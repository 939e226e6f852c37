#ifndef FGLB_CLUSTER_STATS_CHANNEL_H_
#define FGLB_CLUSTER_STATS_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/metrics_registry.h"
#include "common/trace_log.h"
#include "engine/metrics.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"
#include "workload/query_class.h"

namespace fglb {

// Controller-side handling of a degraded statistics feed. A run
// records the guard as the stats_guard row of its RunConfig.
struct StatsChannelConfig {
  // When false the receiver silently substitutes last-known-good stats
  // for missing reports at full confidence — the ablation arm that
  // flaps. When true, confidence decays while reports are missing
  // (kDecay and kRecover in stats_channel.cc), IQR fences widen by
  // 1/confidence, and the placement gate holds migrate/demote/quota
  // actions below ControlPolicy::act_threshold (shed never is).
  bool guard = true;
};

// The transport between StatsCollector::EndInterval and the
// controller (the retuner owns one): per-replica sequenced interval
// reports delivered through the DES. A report is the collector's
// snapshot itself, never serialized, so a fault-free feed hands the
// controller exactly that snapshot. An injected `net` fault window
// makes delivery lossy: reports can be dropped, duplicated, corrupted
// (marked damaged in flight and rejected on arrival), delayed or
// reordered behind the next report.
//
// The publisher side (sequence numbers) is data-plane state and
// survives a controller crash; the receiver side (last-known-good
// snapshots, staleness, confidence) is control-plane state that a
// `ctl` restart restores from the controller's checkpoint.
class StatsChannel {
 public:
  using Snapshot = std::map<ClassKey, MetricVector>;
  // Consults the fault injector for one in-flight report's fate.
  using NetHook =
      std::function<FaultInjector::NetDecision(int replica_id, uint64_t seq)>;

  StatsChannel(Simulator* sim, StatsChannelConfig config);
  StatsChannel(const StatsChannel&) = delete;
  StatsChannel& operator=(const StatsChannel&) = delete;

  void BindObservability(MetricsRegistry* metrics, TraceLog* trace);
  void set_net_hook(NetHook hook) { net_hook_ = std::move(hook); }
  void set_config(const StatsChannelConfig& config) { config_ = config; }

  // Publisher side: sends one replica's interval snapshot under the
  // next sequence number. Without an active net fault the report
  // arrives before Publish returns (same tick), moved, never copied;
  // `interval_seconds` sizes the reorder penalty (1.5 intervals, so a
  // reordered report lands behind its successor).
  void Publish(int replica_id, Snapshot snapshot, double interval_seconds);

  // The controller's view of one replica at collection time.
  struct Feed {
    const Snapshot* snapshot = nullptr;  // fresh or last-known-good
    bool fresh = false;
    uint64_t stale_intervals = 0;
    double confidence = 1.0;
    uint64_t last_seq = 0;
  };

  // Receiver side: consumes the freshest pending report (if any
  // arrived since the last Collect) or falls back to last-known-good,
  // updating staleness and confidence. Call once per replica per
  // diagnosis interval, after Publish.
  Feed Collect(int replica_id);

  // IQR fence multiplier for a replica at `confidence`: 1 at full
  // confidence, wider as confidence decays (capped so a long outage
  // cannot produce infinite fences).
  double FenceScale(double confidence) const;

  // Drops receiver state for replicas that no longer exist.
  void Retain(const std::vector<int>& live_replica_ids);

  // The controller's view of one replica's feed: the last report it
  // collected and how far it trusts it. A report delivered but not yet
  // collected is not part of it.
  struct Receiver {
    uint64_t last_seq = 0;
    uint64_t stale_intervals = 0;
    double confidence = 1.0;
    Snapshot last_known_good;
    bool operator==(const Receiver&) const = default;
  };
  // The receiver side, by replica id: what a checkpoint keeps of the
  // channel. Restoring replaces it and drops every pending report, so
  // restoring the empty map is the cold start. Publisher sequence
  // numbers are data-plane state and survive both.
  const std::map<int, Receiver>& receivers() const { return receivers_; }
  void RestoreReceivers(std::map<int, Receiver> receivers);

  const StatsChannelConfig& config() const { return config_; }

 private:
  // One report in flight, or delivered but not yet collected.
  struct Report {
    uint64_t seq = 0;
    int replica_id = 0;
    Snapshot snapshot;
    bool corrupt = false;  // damaged in flight: rejected on arrival
  };

  void Deliver(Report report);
  void EmitRecovery(const char* why, int replica_id, uint64_t seq,
                    uint64_t stale_intervals, double confidence);

  Simulator* sim_;
  StatsChannelConfig config_;
  NetHook net_hook_;
  std::map<int, uint64_t> publish_seq_;
  std::map<int, Receiver> receivers_;
  std::map<int, Report> pending_;
  MetricsRegistry* metrics_ = nullptr;
  TraceLog* trace_ = nullptr;
  Counter* published_ = nullptr;
  Counter* delivered_ = nullptr;
  Counter* dropped_ = nullptr;
  Counter* corrupt_rejected_ = nullptr;
  Counter* late_rejected_ = nullptr;
  Counter* duplicate_ignored_ = nullptr;
  Counter* stale_collects_ = nullptr;
  Counter* resyncs_ = nullptr;
};

}  // namespace fglb

#endif  // FGLB_CLUSTER_STATS_CHANNEL_H_

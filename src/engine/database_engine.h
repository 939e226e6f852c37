#ifndef FGLB_ENGINE_DATABASE_ENGINE_H_
#define FGLB_ENGINE_DATABASE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/random.h"
#include "engine/stats_collector.h"
#include "storage/disk_model.h"
#include "storage/page.h"
#include "storage/partitioned_buffer_pool.h"
#include "storage/tiered_buffer_pool.h"
#include "workload/access_generator.h"
#include "workload/capture_hooks.h"
#include "workload/query_class.h"

namespace fglb {

// A MySQL/InnoDB-like database engine simulator: one buffer pool
// (optionally partitioned by per-class quotas), per-class statistics
// collection, and a trace-driven execution model that converts a query
// instance into page references, buffer-pool activity and CPU/I/O
// demands. One engine may serve several applications (the paper's
// shared-DBMS consolidation scenario); timing/queueing is the hosting
// replica's job.
class DatabaseEngine {
 public:
  struct Options {
    uint64_t buffer_pool_pages = 8192;  // 128 MB of 16 KiB pages
    size_t access_window_capacity = 30000;
    uint64_t seed = 1;
    // Unread here, since every partition is LRU; only
    // bench/e2e/fglb_e2e.cc reads it.
    ReplacementPolicy replacement = ReplacementPolicy::kLru;
    // Second-tier block cache between DRAM and disk; tier.pages == 0
    // (the default) leaves the engine tierless.
    TierConfig tier;
  };

  DatabaseEngine(std::string name, const Options& options,
                 const DiskModel* disk_model);
  DatabaseEngine(const DatabaseEngine&) = delete;
  DatabaseEngine& operator=(const DatabaseEngine&) = delete;

  // Executes one query instance: generates its page-reference string,
  // drives the buffer pool (with extent read-ahead on sequential runs),
  // records per-class access windows, and returns the counters plus
  // CPU/I/O demands. Latency is recorded separately at completion via
  // RecordCompletion().
  ExecutionCounters Execute(const QueryInstance& query);

  // Records a completed query's end-to-end latency with its counters
  // into the per-class statistics.
  void RecordCompletion(ClassKey key, double latency_seconds,
                        const ExecutionCounters& counters);

  // Buffer-pool quota enforcement for a query class (the paper's
  // fine-grained memory allocation action). Returns false if quotas
  // would exceed pool capacity.
  bool SetQuota(ClassKey key, uint64_t pages);
  void DropQuota(ClassKey key);

  // Tier-2 quota enforcement, mirroring the DRAM quotas. No-ops
  // returning false / nothing when the engine has no tier.
  bool SetTierQuota(ClassKey key, uint64_t pages);
  void DropTierQuota(ClassKey key);

  // Hooks this engine's stats into `registry` under "engine.<name>.":
  // a completed-query counter and latency histogram updated inline, and
  // buffer-pool stats published by PublishMetrics(). Null unbinds.
  void BindMetrics(MetricsRegistry* registry);

  // Copies cumulative buffer-pool stats into the bound registry
  // ("engine.<name>.bufferpool.*"). Called once per sampling interval.
  void PublishMetrics();

  const std::string& name() const { return name_; }
  PartitionedBufferPool& pool() { return pool_; }
  const PartitionedBufferPool& pool() const { return pool_; }
  StatsCollector& stats() { return stats_; }
  const StatsCollector& stats() const { return stats_; }

  // Fault-injection forwarder: degrades/restores the stats feed.
  void set_stats_dropout(StatsDropout mode) { stats_.set_dropout(mode); }

  // Second-tier cache, null when the engine runs tierless.
  TieredBufferPool* tier2() { return tier2_.get(); }
  const TieredBufferPool* tier2() const { return tier2_.get(); }

  // Fault-injection forwarders for the tier (no-ops without one):
  // fail = the tier serves nothing and recovers cold; the latency
  // factor scales every tier-2 hit's service time (degrade).
  void SetTierFailed(bool failed) {
    if (tier2_ != nullptr) tier2_->SetFailed(failed);
  }
  void SetTierLatencyFactor(double factor) {
    if (tier2_ != nullptr) tier2_->SetLatencyFactor(factor);
  }

  // Execution-timeout accounting: completions slower than this count
  // as timed out ("engine.<name>.timeouts" when metrics are bound) —
  // the signal the admission layer's circuit breakers key off. 0 (the
  // default) disables the check. Queries still complete; the engine
  // only classifies, it never kills.
  void set_execution_timeout_seconds(double seconds) {
    execution_timeout_seconds_ = seconds;
  }
  double execution_timeout_seconds() const {
    return execution_timeout_seconds_;
  }
  uint64_t timeouts() const { return timeouts_; }
  const DiskModel& disk_model() const { return *disk_model_; }
  const Options& options() const { return options_; }

  // --- capture/replay hooks ---
  // `recorder` observes every execution's generated access string
  // (tagged with the hosting replica's id); null detaches.
  void SetExecutionRecorder(ExecutionRecorder* recorder, int replica_id) {
    execution_recorder_ = recorder;
    recorder_replica_id_ = replica_id;
  }
  // `source` supplies recorded access strings instead of the generator;
  // executions the source cannot serve fall back to generation and are
  // counted in generated_fallbacks(). Null restores pure generation.
  void SetAccessReplaySource(AccessReplaySource* source) {
    replay_source_ = source;
  }
  uint64_t replayed_executions() const { return replayed_executions_; }
  uint64_t generated_fallbacks() const { return generated_fallbacks_; }

 private:
  std::string name_;
  Options options_;
  PartitionedBufferPool pool_;
  std::unique_ptr<TieredBufferPool> tier2_;
  StatsCollector stats_;
  const DiskModel* disk_model_;
  MetricsRegistry* metrics_ = nullptr;
  AccessGenerator generator_;
  Rng rng_;
  std::vector<PageAccess> scratch_;
  ExecutionRecorder* execution_recorder_ = nullptr;
  int recorder_replica_id_ = -1;
  AccessReplaySource* replay_source_ = nullptr;
  uint64_t replayed_executions_ = 0;
  uint64_t generated_fallbacks_ = 0;
  double execution_timeout_seconds_ = 0;
  uint64_t timeouts_ = 0;
  Counter* timeouts_counter_ = nullptr;
};

}  // namespace fglb

#endif  // FGLB_ENGINE_DATABASE_ENGINE_H_

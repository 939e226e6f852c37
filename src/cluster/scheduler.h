#ifndef FGLB_CLUSTER_SCHEDULER_H_
#define FGLB_CLUSTER_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "cluster/admission.h"
#include "cluster/replica.h"
#include "common/histogram.h"
#include "sim/simulator.h"
#include "workload/application.h"
#include "workload/capture_hooks.h"
#include "workload/query_class.h"
#include "workload/query_sink.h"

namespace fglb {

class SpanTracer;

// Per-application scheduler (the paper's scheduling tier): maintains
// the application's replica set, keeps replicas consistent with a
// read-one/write-all scheme, load balances read-only query classes
// across the subset of replicas each class is placed on, and tracks
// SLA compliance per measurement interval.
class Scheduler final : public QuerySink {
 public:
  Scheduler(Simulator* sim, const ApplicationSpec* app);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  const ApplicationSpec& app() const { return *app_; }

  // --- Replica set management ---

  // Adds a replica. If `in_default_set`, classes without a dedicated
  // placement load balance across it.
  void AddReplica(Replica* replica, bool in_default_set = true);

  // Removes a replica from the set (both default set and any dedicated
  // placements referencing it). In-flight queries complete normally.
  void RemoveReplica(Replica* replica);

  // Pins a query class to exactly `replica` and removes that replica
  // from the default set — the paper's "schedule the problem query
  // class on a different replica" isolation action.
  void DedicateReplica(QueryClassId cls, Replica* replica);

  // Clears a class's dedicated placement; it reverts to the default
  // set. The replica returns to the default set only via AddReplica.
  void ClearDedication(QueryClassId cls);

  // Replicas a class's reads currently balance across.
  std::vector<Replica*> PlacementOf(QueryClassId cls) const;
  const std::vector<Replica*>& replicas() const { return replicas_; }
  std::vector<Replica*> DefaultSet() const;

  // --- Query routing ---

  void Submit(const QueryInstance& query,
              CompletionCallback on_complete) override;

  // Read routing: the class's placement set, narrowed by the admission
  // controller's breaker filter when one is installed, then freshness-
  // first / least-loaded. When the breaker filter excludes *every*
  // candidate the scheduler falls back to the unfiltered set (and
  // records admission.no_replica_available) — degraded routing beats
  // no routing. Returns nullptr only with no replicas at all.
  Replica* PickReplica(const QueryInstance& query);

  // Installs the overload-protection controller on the read path
  // (breaker-aware routing in PickReplica, shed/retry in Submit).
  // Null detaches; writes are never gated.
  void SetAdmission(AdmissionController* admission) {
    admission_ = admission;
  }

  // Observes every Submit() in admission order (workload capture);
  // null detaches. The recorder must outlive the scheduler or be
  // detached first.
  void SetArrivalRecorder(ArrivalRecorder* recorder) {
    arrival_recorder_ = recorder;
  }

  // Installs sampled per-query span tracing: every Submit() bumps the
  // tracer's global sequence and the 1-in-N sampled queries carry a
  // QuerySpan through the replica pipeline. Null detaches; the tracer
  // must outlive the scheduler or be detached first.
  void SetSpanTracer(SpanTracer* spans) { spans_ = spans; }

  // --- SLA / application-level metrics (tracked "through the
  // scheduler" per the paper) ---

  struct IntervalReport {
    uint64_t queries = 0;
    double avg_latency = 0;
    double p95_latency = 0;  // 95th percentile (approximate)
    double p99_latency = 0;  // 99th percentile (approximate)
    double throughput = 0;   // queries per second
    bool sla_met = true;     // avg latency within the application's SLA
    // Reads fast-failed by admission control this interval; they are
    // not part of `queries` or the latency stats (the retuner reads
    // the shed share as its overload signal).
    uint64_t shed = 0;
  };

  // Closes the current measurement interval and returns its report.
  IntervalReport EndInterval(double interval_seconds);

  // Cumulative per-class completion stats (goodput accounting).
  struct ClassStats {
    uint64_t completed = 0;
    uint64_t sla_ok = 0;  // completions within the app's SLA latency
    double latency_sum = 0;
  };
  const std::map<QueryClassId, ClassStats>& class_stats() const {
    return class_stats_;
  }

  uint64_t total_completed() const { return total_completed_; }
  // Cumulative completions within the app's SLA latency (goodput).
  uint64_t total_sla_ok() const { return total_sla_ok_; }
  uint64_t total_shed() const { return total_shed_; }

 private:
  // Least-loaded admission-allowed replica other than `exclude`, for
  // the bounded retry after a shed; nullptr when no alternative exists.
  Replica* RetryTarget(const QueryInstance& query, const Replica* exclude);
  void RunRead(Replica* replica, const QueryInstance& query,
               CompletionCallback on_complete);
  void Account(QueryClassId cls, double latency);

  Simulator* sim_;
  const ApplicationSpec* app_;
  ArrivalRecorder* arrival_recorder_ = nullptr;
  AdmissionController* admission_ = nullptr;
  SpanTracer* spans_ = nullptr;
  std::vector<Replica*> replicas_;
  std::set<const Replica*> dedicated_targets_;
  std::map<QueryClassId, Replica*> dedicated_placement_;

  uint64_t next_write_seq_ = 0;
  uint64_t round_robin_ = 0;

  // Interval accumulators.
  uint64_t interval_queries_ = 0;
  uint64_t interval_shed_ = 0;
  double interval_latency_sum_ = 0;
  Histogram interval_latencies_;
  uint64_t total_completed_ = 0;
  uint64_t total_sla_ok_ = 0;
  uint64_t total_shed_ = 0;
  std::map<QueryClassId, ClassStats> class_stats_;
};

}  // namespace fglb

#endif  // FGLB_CLUSTER_SCHEDULER_H_

#ifndef FGLB_CLUSTER_ADMISSION_H_
#define FGLB_CLUSTER_ADMISSION_H_

#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "common/metrics_registry.h"
#include "common/trace_log.h"
#include "sim/simulator.h"
#include "workload/query_class.h"

namespace fglb {

// Tuning knobs of the overload-protection subsystem. A run turns
// admission on or off (RunConfig::admission) and always runs these
// defaults, so a capture needs no copy of them; tests and benches
// construct the controller with their own.
struct AdmissionConfig {
  // CoDel-style shedding: per-replica windows of
  // `codel_interval_seconds`; when even the *minimum* SLA-normalized
  // read latency (latency / the app's SLA) observed across a whole
  // window stays above `target_delay`, queueing delay is standing —
  // the replica is overloaded — and one more query class is shed.
  // Windows back under the target restore one class at a time.
  double target_delay = 0.5;
  double codel_interval_seconds = 5.0;

  // Hard per-replica concurrency cap: a read arriving while the
  // replica already holds this many in-flight queries is shed
  // outright ("queue_full"), whatever the latency controller thinks.
  uint64_t max_queue_depth = 96;

  // Retry budget: every admitted query accrues `retry_budget_ratio`
  // tokens (capped at `retry_burst`) toward the app's bucket; a shed
  // read may retry on another replica only by spending a whole token,
  // so retries stay a bounded fraction of admitted traffic.
  double retry_budget_ratio = 0.1;
  double retry_burst = 8;

  // Circuit breaker per (class, replica): `breaker_failure_threshold`
  // consecutive timed-out completions (latency > timeout_factor x SLA)
  // trip it open; after `breaker_open_seconds` it half-opens and lets
  // `breaker_half_open_probes` probe queries through — that many
  // consecutive successes close it, one failure re-opens it.
  int breaker_failure_threshold = 8;
  double breaker_open_seconds = 10;
  int breaker_half_open_probes = 3;
  double timeout_factor = 8.0;

  // Smoothing for the per-class normalized-latency estimate that ranks
  // classes by SLA headroom (shedding order).
  double ewma_alpha = 0.2;
};

// Per-replica admission control, load shedding and circuit breaking
// for the read path (writes are never shed: read-one/write-all keeps
// every replica consistent only if every replica applies every write).
//
// One controller serves the whole cluster; state is keyed by replica
// id and (class, replica). All decisions derive from simulated time
// and the deterministic completion stream, so admission behaviour is
// bit-reproducible under capture/replay.
//
// Shedding priority ("SLA headroom"): classes are ranked by their
// smoothed SLA-normalized latency; the classes furthest from meeting
// their SLA are shed first, triage-style, so the capacity freed lets
// the best-off classes keep meeting theirs instead of every class
// failing together.
class AdmissionController {
 public:
  enum class Decision { kAdmit, kProbe, kShed };

  struct Verdict {
    Decision decision = Decision::kAdmit;
    const char* reason = "";  // "codel" | "queue_full" for kShed
  };

  AdmissionController(Simulator* sim, const AdmissionConfig& config);
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Registers admission.* instruments and the phase="admission" trace
  // stream (transition events only: shed-level changes, breaker trips/
  // probes/closes, retry-budget exhaustion). Either may be null.
  void BindObservability(MetricsRegistry* metrics, TraceLog* trace);

  // SLA registration; queries of unregistered apps normalize against
  // a 1-second SLA.
  void RegisterApp(AppId app, double sla_latency_seconds);

  // Routing filter for Scheduler::PickReplica: false while the
  // (class, replica) breaker is open or its half-open probe quota is
  // spent. Lazily moves open breakers to half-open once their open
  // window has elapsed.
  bool RouteAllowed(ClassKey key, int replica_id);

  // The admission decision for one read about to run on `replica_id`
  // with `queue_depth` queries already in flight there. kProbe is an
  // admit that doubles as a half-open breaker probe.
  Verdict Admit(ClassKey key, int replica_id, uint64_t queue_depth);

  // Feeds one read completion back: updates the class's headroom
  // estimate, the replica's CoDel window, and the breaker.
  void OnComplete(ClassKey key, int replica_id, double latency_seconds);

  // Spends one retry token of `app`'s bucket; false (and a
  // retry_exhausted trace event on the transition) when the budget is
  // dry.
  bool TryRetry(AppId app);

  // True while any class breaker on `replica_id` is open (not yet
  // half-open); the retuner suppresses migrations into such replicas.
  bool BreakerOpen(int replica_id) const;

  // Called by the scheduler when breaker filtering excluded every
  // candidate and it fell back to least-loaded routing.
  void NoteNoReplicaAvailable();

  const AdmissionConfig& config() const { return config_; }

  // --- introspection (tests, benchmarks) ---
  // Classes currently kept on `replica_id` (min(keep, classes seen));
  // negative id or unknown replica reports all classes kept.
  int KeepCount(int replica_id) const;
  bool IsShed(ClassKey key, int replica_id) const;
  uint64_t admitted() const { return admitted_total_; }
  uint64_t shed() const { return shed_total_; }
  double RetryTokens(AppId app) const;

  // What a controller crash loses of admission control, as one value.
  // Registered SLAs and the admitted/shed lifetime totals are not part
  // of it: they are setup and observability history and survive a
  // restore.
  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    SimTime opened_at = 0;
    int probes_issued = 0;
    int probe_successes = 0;
    bool operator==(const Breaker&) const = default;
  };

  struct ReplicaState {
    SimTime window_end = 0;  // 0 = window not started yet
    double window_min = 0;
    uint64_t window_count = 0;
    int keep_count = 1 << 20;  // clamped to the class count in use
    std::set<ClassKey> shed_classes;
    std::map<ClassKey, Breaker> breakers;
    bool operator==(const ReplicaState&) const = default;
  };

  struct ClassState {
    bool has_estimate = false;
    double ewma_normalized = 0;  // smoothed latency / SLA
    bool operator==(const ClassState&) const = default;
  };

  struct RetryBucket {
    double tokens = 0;
    bool exhaustion_noted = false;
    bool operator==(const RetryBucket&) const = default;
  };

  struct State {
    std::map<AppId, RetryBucket> retry;      // per app
    std::map<ClassKey, ClassState> classes;  // headroom estimates
    std::map<int, ReplicaState> replicas;    // CoDel, shed set, breakers
    bool operator==(const State&) const = default;
  };

  const State& state() const { return state_; }
  // Replaces the control state: an app absent from `state` restarts
  // with an empty retry bucket, and restoring State{} is the cold
  // start.
  void Restore(State state) { state_ = std::move(state); }

 private:
  double SlaOf(AppId app) const;
  ReplicaState& StateOf(int replica_id);

  // Closes every CoDel window that has elapsed on `rs`, walking the
  // keep-count down (standing delay) or up (recovered / idle) and
  // recomputing the shed set on changes.
  void RollWindows(int replica_id, ReplicaState& rs);
  void SetKeepCount(int replica_id, ReplicaState& rs, int keep,
                    const char* reason);
  void RecomputeShedSet(ReplicaState& rs);
  int EffectiveKeep(const ReplicaState& rs) const;

  // Breaker transitions (each emits its trace event + counter).
  void TripBreaker(ClassKey key, int replica_id, Breaker& b, bool reopen);
  void HalfOpenBreaker(ClassKey key, int replica_id, Breaker& b);
  void CloseBreaker(ClassKey key, int replica_id, Breaker& b);

  bool Tracing() const { return trace_ != nullptr && trace_->enabled(); }
  void EmitBreakerEvent(const char* kind, ClassKey key, int replica_id,
                        const Breaker& b);

  Simulator* sim_;
  AdmissionConfig config_;
  std::map<AppId, double> slas_;  // registered SLA latency, seconds
  State state_;

  uint64_t admitted_total_ = 0;
  uint64_t shed_total_ = 0;

  MetricsRegistry* metrics_ = nullptr;
  TraceLog* trace_ = nullptr;
  Counter* admitted_counter_ = nullptr;
  Counter* shed_codel_counter_ = nullptr;
  Counter* shed_queue_counter_ = nullptr;
  Counter* probes_counter_ = nullptr;
  Counter* trips_counter_ = nullptr;
  Counter* half_opens_counter_ = nullptr;
  Counter* closes_counter_ = nullptr;
  Counter* reopens_counter_ = nullptr;
  Counter* retry_granted_counter_ = nullptr;
  Counter* retry_denied_counter_ = nullptr;
  Counter* no_replica_counter_ = nullptr;
  LatencyHistogram* completion_us_ = nullptr;
};

}  // namespace fglb

#endif  // FGLB_CLUSTER_ADMISSION_H_

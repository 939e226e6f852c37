#ifndef FGLB_CORE_SELECTIVE_RETUNER_H_
#define FGLB_CORE_SELECTIVE_RETUNER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/resource_manager.h"
#include "cluster/scheduler.h"
#include "cluster/stats_channel.h"
#include "common/metrics_registry.h"
#include "common/trace_log.h"
#include "core/control_state.h"
#include "core/decision.h"
#include "core/log_analyzer.h"
#include "core/outlier_detector.h"
#include "core/quota_planner.h"
#include "mrc/miss_ratio_curve.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"

namespace fglb {

class SpanTracer;

// The paper's selective retuning control loop (§3.2): every
// measurement interval it checks each application's SLA, refreshes
// stable-state signatures on clean intervals, and on violations runs
// the diagnosis cascade —
//
//   CPU saturation        -> reactive replica provisioning
//   memory interference   -> outlier contexts -> MRC recomputation ->
//                            per-class quota OR re-placement on a
//                            different replica
//   I/O interference      -> evict contexts by decreasing I/O rate
//   still failing         -> coarse-grained fallback: new replicas and
//                            application isolation
//
// Each rung's choice comes from the pure decision core
// (core/decision.h); this class gathers its evidence, gates and commits
// what it proposes, and records each violating interval as a Decision
// whose rendering is the interval's trace. Every action is appended to
// an action log and every interval to a sample series, which the
// benchmarks print as the paper's figures.
class SelectiveRetuner {
 public:
  // A class placed on a new replica is not moved again for this many
  // intervals (anti-thrash).
  static constexpr int kPlacementCooldownIntervals = 9;
  // A class migration gets 1 initial attempt plus this many retries
  // before it is abandoned (and its class cools down).
  static constexpr int kMigrationMaxRetries = 2;

  struct Config {
    double interval_seconds = 10;

    uint64_t replica_pool_pages = 8192;

    OutlierConfig outlier;
    MrcConfig mrc;

    // Ablation knob: disable the fine-grained paths entirely (every
    // violation goes straight to coarse provisioning).
    bool enable_fine_grained = true;

    // Monitoring-only mode: collect samples and diagnoses but take no
    // action at all (benchmarks use this to measure the broken state).
    bool enable_actions = true;

    // Migrations the controller may *start* per interval; 0 = unlimited
    // (the default keeps fault-free behaviour unchanged).
    int max_migrations_per_interval = 0;

    // Observability hooks, both optional. `metrics` registers
    // controller.* instruments (tick/phase durations, violation and
    // per-kind action counters, per-server utilization gauges);
    // `trace` receives one structured event per diagnosis phase per
    // violating interval (sla -> impact -> iqr -> mrc -> action).
    MetricsRegistry* metrics = nullptr;
    TraceLog* trace = nullptr;
  };

  using ActionKind = fglb::ActionKind;
  using Action = fglb::Action;

  struct AppSample {
    AppId app = 0;
    uint64_t queries = 0;
    double avg_latency = 0;
    double p95_latency = 0;
    double throughput = 0;
    bool sla_met = true;
    int servers_used = 0;
  };

  struct ServerSample {
    int server_id = 0;
    double cpu_utilization = 0;
    double io_utilization = 0;
  };

  struct IntervalSample {
    SimTime time = 0;
    std::vector<AppSample> apps;
    std::vector<ServerSample> servers;
  };

  // One memory-diagnosis pass, recorded for inspection: the engine's
  // record from its interval's Decision — the outlier report, the MRC
  // verdict per candidate, the baselines it was judged against.
  using DiagnosisRecord = EngineDiagnosis;

  SelectiveRetuner(Simulator* sim, ResourceManager* resources, Config config);
  SelectiveRetuner(const SelectiveRetuner&) = delete;
  SelectiveRetuner& operator=(const SelectiveRetuner&) = delete;

  // Registers an application's scheduler with the control loop.
  void RegisterApplication(Scheduler* scheduler);

  // Begins interval ticks at Now() + interval.
  void Start();

  // Runs one measurement-interval evaluation immediately (exposed for
  // tests and trace-driven benchmarks; Start() calls it periodically).
  void Tick();

  // The replica's engine analyzer, created on first use and keyed by
  // replica id (ids are never reused).
  LogAnalyzer& AnalyzerFor(Replica* replica);

  // Decides the fate of each migration attempt: it may fail outright
  // (retried with backoff) or apply only after a delay (a slow
  // migration). Unset (the default) applies every attempt immediately,
  // the fault-free fast path; the harness wires the fault injector in.
  using MigrationInterceptor =
      std::function<FaultInjector::MigrationDecision(ClassKey, int attempt)>;
  void set_migration_interceptor(MigrationInterceptor interceptor) {
    migration_interceptor_ = std::move(interceptor);
  }

  // Overload-protection coupling: sustained shedding escalates straight
  // to replica provisioning, and placement never targets a replica with
  // an open circuit breaker. Null (the default) decouples.
  void set_admission(AdmissionController* admission) {
    admission_ = admission;
  }

  // Late-binds the sampled span tracer (the harness enables tracing
  // after construction): phase=impact events carry its measured
  // per-class wait profile, and controller phase marks land on its
  // exported timeline. Null detaches.
  void set_span_tracer(SpanTracer* spans) { spans_ = spans; }

  // Telemetry transport: Tick publishes every replica's interval
  // report through this channel and collects the controller's
  // (possibly stale, last-known-good) view back. Stale feeds widen the
  // IQR fences and, below the confidence threshold, suppress per-class
  // quota/demote/migration actions — shed and CPU provisioning run on
  // app-level latency and are never gated. Bound to config.metrics and
  // config.trace; the harness installs the `net` fault hook and the
  // run's StatsChannelConfig.
  StatsChannel& stats_channel() { return channel_; }
  const StatsChannel& stats_channel() const { return channel_; }

  // --- controller crash/restart (ctl faults) ---
  // Stop halts the interval ticker and strands every in-flight
  // callback (the armed tick and pending migration retries/delayed
  // applies die with the epoch). Restart re-arms the ticker so the
  // next tick lands one interval after the restart. ResetControlState
  // is the cold-start path: it drops all diagnostic state (analyzers,
  // streaks, warmup/cooldown clocks, in-flight migration bookkeeping,
  // the stats channel's receiver side) while keeping the action/
  // sample/diagnosis history — those are observability records of the
  // run, not control state.
  void Stop();
  void Restart();
  void ResetControlState();

  // Checkpoint support (FGLBCKPT1): the retuner section — the
  // ControlState encoding, then per-replica analyzer state (stable
  // signatures + stable MRC baselines, by replica id). In-flight
  // migrations are restored as placement cooldowns: their callbacks
  // died with the crash, and the cooldown guarantees the restarted
  // controller cannot re-issue the same move inside the flap window.
  void SerializeControlState(std::string* out) const;
  bool RestoreControlState(const uint8_t* p, const uint8_t* limit);

  const std::vector<Action>& actions() const { return actions_; }
  const std::vector<IntervalSample>& samples() const { return samples_; }
  const std::vector<DiagnosisRecord>& diagnoses() const { return diagnoses_; }
  const Config& config() const { return config_; }

  // Lifetime counters over the migration state machine; the chaos tests
  // assert its invariants (attempts bounded, abandoned moves cool down).
  struct MigrationStats {
    uint64_t started = 0;
    uint64_t applied = 0;
    uint64_t delayed = 0;
    uint64_t failed_attempts = 0;
    uint64_t abandoned = 0;
    int max_attempts_observed = 0;
  };
  const MigrationStats& migration_stats() const { return migration_stats_; }

  static const char* ActionKindName(ActionKind kind) {
    return fglb::ActionKindName(kind);
  }

 private:
  // What one tick's cascades share across applications: every replica's
  // telemetry (fresh or last-known-good snapshot, staleness,
  // confidence) and the re-placements started so far.
  struct TickContext {
    std::map<Replica*, StatsChannel::Feed> feeds;
    int moves_started = 0;
  };

  // The cascade of one violating interval (§3.2): each rung gathers its
  // evidence, takes its choice from the decision core, gates and
  // commits it, and records it in `d`.
  Decision OpenDecision(Scheduler* scheduler,
                        const Scheduler::IntervalReport& report,
                        Verdict verdict, double end_interval_us,
                        const TickContext& tick);
  void HandleViolation(Scheduler* scheduler, TickContext& tick, Decision& d);
  // `act` false = diagnose and record only (monitoring mode).
  void MemoryRung(Scheduler* scheduler, TickContext& tick, bool act,
                  Decision& d);
  void IoRung(Scheduler* scheduler, TickContext& tick, Decision& d);
  void CoarseFallback(Scheduler* scheduler);
  void MaybeRelease(Scheduler* scheduler);

  // Provisions a replica for `scheduler`, opens its app's warmup window
  // and logs `kind` as `why` + "provisioned R on S" (+ the new server
  // count when `count_servers`).
  void Provision(Scheduler* scheduler, ActionKind kind, const std::string& why,
                 bool count_servers, Decision& d);
  // The one quota path: a containment quota, a plan's quota or a
  // demote on `r`. False when the engine refused the DRAM quota.
  bool ApplyQuota(Replica* r, LogAnalyzer& analyzer, const Proposal& p);
  // Finds (or provisions) a replica of `scheduler`'s app, other than
  // `avoid`, that passes the acceptable-memory fit test for `incoming`.
  Replica* FindPlacementTarget(Scheduler* scheduler, Replica* avoid,
                               const ClassMemoryProfile& incoming);
  Scheduler* OwnerOf(AppId app) const;
  // Whether another application routes to `r` (or, with `same_server`,
  // to any other replica on r's server).
  bool SharedWithOthers(const Scheduler* scheduler, Replica* r,
                        bool same_server) const;

  // The placement gate over the live control state, counting the
  // low-confidence and budget holds.
  Hold Admit(const GateRequest& request);
  ControlPolicy Policy() const;

  // --- migration state machine ---
  // Every class re-placement goes through here. Replicas are carried by
  // id (delayed applies must survive the source/target dying); the
  // fault-free fast path (no interceptor) applies inline, producing the
  // exact same action stream as direct application used to.
  struct PendingMigration {
    ClassKey key = 0;
    int source_id = -1;
    int target_id = -1;
    ActionKind kind = ActionKind::kClassRescheduled;
    std::string description;
    ClassMemoryProfile profile;  // for re-finding a lost target
    SimTime started = 0;
    int attempt = 0;
  };
  // The one move path (memory reschedule and I/O eviction) for `p` off
  // `source`: gate, target search, start. Sets p.hold and p.committed.
  void TryMove(Proposal& p, Replica* source, double confidence,
               const ClassMemoryProfile& profile, TickContext& tick);
  void AttemptMigration(PendingMigration m);
  bool ApplyMigration(const PendingMigration& m);
  void AbandonMigration(const PendingMigration& m, const char* why);

  // Arms the periodic ticker for the current epoch; Stop() bumps the
  // epoch, so a stranded callback fires once and does nothing.
  void ArmTicker();

  // Records an action: the action log, a span mark, a per-kind counter.
  // A violating interval traces its actions by rendering its Decision;
  // other callers trace theirs with TraceActions(first logged index).
  void Log(ActionKind kind, AppId app, std::string description);
  void TraceActions(size_t first);
  void Count(const std::string& counter);
  bool Tracing() const { return trace_ != nullptr && trace_->enabled(); }

  void NoteTopologyChange(AppId app) {
    state_.apps[app].topology_changed_at = sim_->Now();
  }

  Simulator* sim_;
  ResourceManager* resources_;
  Config config_;
  MigrationInterceptor migration_interceptor_;
  AdmissionController* admission_ = nullptr;
  QuotaPlanner planner_;
  std::vector<Scheduler*> schedulers_;
  ControlState state_;
  std::map<int, std::unique_ptr<LogAnalyzer>> analyzers_;  // by replica id
  std::vector<Action> actions_;
  std::vector<IntervalSample> samples_;
  std::vector<DiagnosisRecord> diagnoses_;
  bool started_ = false;
  MigrationStats migration_stats_;

  StatsChannel channel_;
  // Bumped by Stop(): scheduled callbacks capture the epoch they were
  // armed under and no-op if the controller crashed since.
  uint64_t epoch_ = 0;

  MetricsRegistry* metrics_ = nullptr;
  TraceLog* trace_ = nullptr;
  SpanTracer* spans_ = nullptr;
  LatencyHistogram* tick_us_ = nullptr;
  Counter* violations_ = nullptr;
};

}  // namespace fglb

#endif  // FGLB_CORE_SELECTIVE_RETUNER_H_

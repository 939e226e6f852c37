#ifndef FGLB_SCENARIOS_HARNESS_H_
#define FGLB_SCENARIOS_HARNESS_H_

#include <memory>
#include <optional>
#include <vector>

#include "cluster/admission.h"
#include "cluster/resource_manager.h"
#include "cluster/scheduler.h"
#include "cluster/stats_channel.h"
#include "common/metrics_registry.h"
#include "common/span_tracer.h"
#include "common/trace_log.h"
#include "core/selective_retuner.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"
#include "workload/application.h"
#include "workload/client_emulator.h"
#include "workload/load_function.h"

namespace fglb {

// Convenience bundle wiring a whole experiment together: simulator,
// server pool, per-application schedulers/clients, and the retuning
// controller. Owns everything; tests, examples and benchmarks build
// their scenarios through it.
class ClusterHarness {
 public:
  // `observability` false skips all metrics/trace wiring: no registry
  // bindings anywhere, so instrumented hot paths take their null-check
  // branch (bench_overhead measures the difference). When true,
  // config.metrics/config.trace default to the harness-owned instances
  // unless the caller already supplied its own.
  explicit ClusterHarness(SelectiveRetuner::Config config = {},
                          bool observability = true);
  ClusterHarness(const ClusterHarness&) = delete;
  ClusterHarness& operator=(const ClusterHarness&) = delete;

  // Adds `count` identical servers to the pool.
  void AddServers(int count, const PhysicalServer::Options& options = {});

  // Registers an application: creates its scheduler and registers it
  // with the retuner. The spec is copied and kept alive by the harness.
  Scheduler* AddApplication(ApplicationSpec spec);

  // Attaches a closed-loop client population to an application.
  // The load function is kept alive by the harness.
  ClientEmulator* AddClients(Scheduler* scheduler,
                             std::unique_ptr<LoadFunction> load,
                             uint64_t seed,
                             ClientEmulator::Options options = {});

  // Shorthand: constant client population.
  ClientEmulator* AddConstantClients(Scheduler* scheduler, double clients,
                                     uint64_t seed,
                                     ClientEmulator::Options options = {});

  // Turns on overload protection cluster-wide: creates the admission
  // controller, installs it on every scheduler (existing and future),
  // registers every application's SLA, couples it into the retuner
  // (overload escalation, breaker-aware placement), and arms engine
  // execution-timeout accounting at timeout_factor x the largest SLA.
  // Idempotent — later calls return the existing controller, ignoring
  // `config`.
  AdmissionController* EnableAdmission(const AdmissionConfig& config = {});
  AdmissionController* admission() { return admission_.get(); }

  // Installs a fault injector driving this cluster: crash/restart maps
  // to scheduler detach + replica destruction / re-provisioning, disk
  // and slowdown faults mutate the live server/replica models, stats
  // faults degrade the engine's collector, and migration-fault windows
  // intercept the controller's re-placements. Deterministic per (spec,
  // seed). Call before Start() (Start arms the schedule); one injector
  // per harness, later calls return the first.
  FaultInjector* InjectFaults(FaultSpec spec, uint64_t seed);
  FaultInjector* fault_injector() { return fault_injector_.get(); }

  // Turns on sampled per-query span tracing: creates the tracer,
  // installs it on every scheduler (existing and future) and couples
  // it into the retuner (phase marks + wait profiles on phase=impact
  // events). Call before Start() so the sampling sequence covers the
  // whole run. Idempotent — later calls return the existing tracer,
  // ignoring `config`.
  SpanTracer* EnableSpanTracing(const SpanConfig& config = {});
  SpanTracer* span_tracer() { return span_tracer_.get(); }

  // Interval stats reports always travel the retuner's DES-delivered
  // channel (publish -> deliver -> collect); injected `net` fault
  // windows make delivery lossy and the controller falls back to
  // last-known-good stats with confidence decay. EnableStatsChannel
  // only sets the channel's config (guard, decay, recovery, threshold);
  // call it before Start().
  StatsChannel* EnableStatsChannel(const StatsChannelConfig& config = {});
  StatsChannel* stats_channel() { return &retuner_.stats_channel(); }

  // Arms a recurring checkpoint of the controller's control plane
  // (the retuner's and admission's) every `interval_seconds` (<= 0
  // uses the retuner interval). A `ctl` restart then restores the
  // latest one instead of cold-starting. Idempotent.
  void EnableCheckpointing(double interval_seconds = 0);

  // The `ctl` fault surface (also exposed for tests): CrashController
  // halts the interval ticker and strands the controller's in-flight
  // callbacks; RestartController restores the control plane from the
  // latest checkpoint (phase=recovery why=restored) or cold-starts
  // (why=no_ckpt), and re-arms the ticker so the next diagnosis lands
  // one interval later.
  bool CrashController();
  bool RestartController();
  bool controller_down() const { return controller_down_; }

  // Wires workload-capture hooks into the whole cluster: `arrivals`
  // observes every scheduler Submit (existing schedulers and ones
  // added later), `executions` observes every engine's page-access
  // strings (existing replicas and ones created mid-run, via the
  // resource manager's replica observer). Either may be null; both
  // recorders must outlive the harness. Call before Start() so the
  // capture covers the whole run.
  void AttachRecorders(ArrivalRecorder* arrivals,
                       ExecutionRecorder* executions);

  // Starts every emulator plus the retuner's interval ticks.
  void Start();

  // Advances simulated time by `seconds`.
  void RunFor(double seconds);

  // Mutable access to a registered application's spec, for scenarios
  // that change the workload mid-run (e.g. dropping an index swaps a
  // template's access components in place).
  ApplicationSpec* mutable_app(Scheduler* scheduler);

  // Starts a recurring sim event that publishes cumulative engine /
  // buffer-pool stats into the registry every `period_seconds` (<= 0
  // uses the retuner interval). Start() arms the default sampler
  // automatically when observability is on; call earlier to customize.
  void StartMetricsSampler(double period_seconds = 0);

  Simulator& sim() { return sim_; }
  ResourceManager& resources() { return resources_; }
  SelectiveRetuner& retuner() { return retuner_; }
  MetricsRegistry& metrics() { return metrics_; }
  TraceLog& trace() { return trace_; }
  const std::vector<std::unique_ptr<Scheduler>>& schedulers() const {
    return schedulers_;
  }

  // Averages app metrics over the retuner samples within [from, to).
  struct WindowSummary {
    double avg_latency = 0;
    double avg_throughput = 0;
    uint64_t queries = 0;
    int intervals = 0;
    int sla_violations = 0;
  };
  WindowSummary Summarize(AppId app, SimTime from, SimTime to) const;

 private:
  // Fills in config.metrics/config.trace with the harness-owned
  // instances (ctor-init helper; members below are declared first so
  // their addresses are valid here).
  SelectiveRetuner::Config WithObservability(SelectiveRetuner::Config config);

  MetricsRegistry metrics_;
  TraceLog trace_;
  bool observability_;
  Simulator sim_;
  ResourceManager resources_;
  SelectiveRetuner retuner_;
  std::vector<std::unique_ptr<ApplicationSpec>> specs_;
  std::vector<std::unique_ptr<Scheduler>> schedulers_;
  std::vector<std::unique_ptr<LoadFunction>> loads_;
  std::vector<std::unique_ptr<ClientEmulator>> emulators_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<SpanTracer> span_tracer_;
  std::unique_ptr<FaultBackend> fault_backend_;
  std::unique_ptr<FaultInjector> fault_injector_;
  ArrivalRecorder* arrival_recorder_ = nullptr;
  bool started_ = false;
  bool sampler_started_ = false;
  // ctl-fault state: the latest checkpoint (none until the first
  // cadence fires) and whether the controller is currently crashed.
  struct Checkpoint {
    SimTime taken_at = 0;
    SelectiveRetuner::ControlPlane retuner;
    AdmissionController::State admission;
  };
  std::optional<Checkpoint> checkpoint_;
  double checkpoint_interval_ = 0;
  bool checkpointing_ = false;
  bool controller_down_ = false;
};

}  // namespace fglb

#endif  // FGLB_SCENARIOS_HARNESS_H_

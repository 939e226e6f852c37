#include "scenarios/scenario.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "sim/fault_injector.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

// The fault schedule a chaos scenario runs when --fault-spec is absent;
// times scale with the run's duration `d` so short smoke runs still hit
// every fault. Other scenarios inject nothing by default.
std::string DefaultFaultSpec(Scenario scenario, double d) {
  char buf[256];
  switch (scenario) {
    case Scenario::kChaosReplica:
      std::snprintf(buf, sizeof(buf),
                    "crash@%.0f:replica=1,restart=60;"
                    "stats@%.0f:replica=0,mode=partial,duration=60;"
                    "migration@%.0f:delay=2,fail=0.3,duration=%.0f",
                    d / 3, d / 2, d / 3, d / 3);
      return buf;
    case Scenario::kChaosDisk:
      std::snprintf(buf, sizeof(buf),
                    "disk@%.0f:server=0,factor=8,duration=%.0f;"
                    "slow@%.0f:replica=0,factor=3,duration=%.0f",
                    d / 3, d / 6, d / 2, d / 6);
      return buf;
    case Scenario::kChaosNet:
      // One long lossy window over the middle third of the run: the
      // controller rides last-known-good stats through it.
      std::snprintf(buf, sizeof(buf),
                    "net@%.0f:drop=0.08,dup=0.03,corrupt=0.02,reorder=0.05,"
                    "delay=1,duration=%.0f",
                    d / 3, d / 3);
      return buf;
    case Scenario::kChaosCtl:
      // A lossy window, then the controller itself crashes inside it
      // and restarts 30 s later from its latest checkpoint.
      std::snprintf(buf, sizeof(buf),
                    "net@%.0f:drop=0.08,duration=%.0f;"
                    "ctl@%.0f:restart=30",
                    d / 3, d / 3, d / 2);
      return buf;
    case Scenario::kTierFail:
      // The SSD tier dies cold mid-run, then recovers and later merely
      // degrades (hits land but cost 10x).
      std::snprintf(buf, sizeof(buf),
                    "tier@%.0f:replica=0,mode=fail,duration=%.0f;"
                    "tier@%.0f:replica=0,mode=degrade,factor=10,"
                    "duration=%.0f",
                    d / 3, d / 6, 2 * d / 3, d / 6);
      return buf;
    default:
      return "";
  }
}

// Per-app emulator options for a scenario whose (scaled) population is
// `clients`: batched cohorts kick in under --cohorts=auto once the app
// is large enough that per-client think events would dominate the
// event queue.
ClientEmulator::Options EmulatorOptions(const RunConfig& run, double clients) {
  constexpr double kAutoCohortClients = 10000;
  ClientEmulator::Options emu;
  emu.cohort = run.cohorts == "on" ||
               (run.cohorts == "auto" && clients >= kAutoCohortClients);
  return emu;
}

}  // namespace

RunConfig ScenarioRunConfig(Scenario scenario, double duration_seconds) {
  RunConfig run;
  run.scenario = scenario;
  run.duration_seconds = duration_seconds;
  switch (scenario) {
    case Scenario::kChaosCtl:
      run.ckpt_interval_seconds = run.interval_seconds;
      [[fallthrough]];
    case Scenario::kChaosReplica:
    case Scenario::kChaosDisk:
    case Scenario::kChaosNet:
      // Under injected churn, bound re-placement so flapping faults
      // cannot translate into unbounded migrations.
      run.max_migrations_per_interval = 2;
      break;
    case Scenario::kColdStart:
      // Cold-start runs half-size DRAM pools; replicas the controller
      // provisions must match.
      run.replica_pool_pages = 4096;
      [[fallthrough]];
    case Scenario::kTierThrash:
    case Scenario::kTierFail:
      run.tier2_pages = 16384;
      break;
    case Scenario::kOverload:
      run.admission = true;
      break;
    default:
      break;
  }
  run.fault_spec = DefaultFaultSpec(scenario, duration_seconds);
  return run;
}

bool RunConfigFromCli(const CliOptions& options, RunConfig* out,
                      std::string* error) {
  // The scenario and the duration pick the defaults the other flags
  // override (chaos fault times scale with the duration).
  RunConfig picked;
  for (const char* key : {"scenario", "duration"}) {
    const auto flag = options.run_flags.find(key);
    if (flag != options.run_flags.end() &&
        !picked.Set(key, flag->second, error)) {
      return false;
    }
  }
  RunConfig run = ScenarioRunConfig(picked.scenario, picked.duration_seconds);
  for (const auto& [key, value] : options.run_flags) {
    if (!run.Set(key, value, error)) return false;
  }
  // A spans file needs a tracer: 1 in 64 queries unless --span-sample
  // says otherwise, and not none.
  if (!options.spans_out.empty()) {
    if (!options.run_flags.contains("span_sample")) {
      run.span_sample = SpanConfig{}.sample_every;
    } else if (run.span_sample == 0) {
      *error = "--spans-out needs span tracing, but --span-sample=0";
      return false;
    }
  }
  // --clients-scale multiplies every population, including the
  // overload scenario's 7.5x default applied at assembly.
  run.tpcw_clients *= options.clients_scale;
  run.rubis_clients *= options.clients_scale;
  *out = std::move(run);
  return true;
}

std::unique_ptr<ClusterHarness> MakeHarness(const RunConfig& run,
                                            int analysis_threads) {
  SelectiveRetuner::Config config;
  config.interval_seconds = run.interval_seconds;
  config.max_migrations_per_interval = run.max_migrations_per_interval;
  config.replica_pool_pages = run.replica_pool_pages;
  config.mrc.sample_rate = run.mrc_sample_rate;
  config.mrc.opt_regret = run.mrc_opt_regret;
  config.mrc.analysis_threads = analysis_threads;
  auto harness = std::make_unique<ClusterHarness>(config);
  harness->resources().set_engine_defaults(
      ReplacementPolicy::kLru, TierConfig{.pages = run.tier2_pages,
                                          .read_us = run.tier2_read_us,
                                          .demote = run.tier2_demote});
  return harness;
}

void AssembleCluster(const RunConfig& run, ClusterHarness* harness) {
  harness->AddServers(run.servers);
  ResourceManager& resources = harness->resources();
  PhysicalServer* first = resources.servers()[0].get();
  RubisOptions rubis_options;
  rubis_options.app_id = 2;

  switch (run.scenario) {
    case Scenario::kSteady:
    case Scenario::kBurst:
    case Scenario::kOverload: {
      Scheduler* tpcw = harness->AddApplication(MakeTpcw());
      tpcw->AddReplica(resources.CreateReplica(first, 8192));
      break;
    }
    case Scenario::kColdStart: {
      // A half-size DRAM pool with everything cold at t=0: the tier
      // fills via demotions and then absorbs misses the shrunken DRAM
      // can no longer hold.
      Scheduler* tpcw = harness->AddApplication(MakeTpcw());
      tpcw->AddReplica(resources.CreateReplica(first, 4096));
      break;
    }
    case Scenario::kConsolidation:
    case Scenario::kTierThrash:
    case Scenario::kTierFail: {
      // TPC-W and RUBiS share one replica. On the tier-* scenarios the
      // engines carry a second tier: where the tierless run reschedules
      // the arriving heavy RUBiS class to another replica, there the
      // cheaper rung is to cap its DRAM quota and demote the
      // working-set overflow into the tier.
      Scheduler* tpcw = harness->AddApplication(MakeTpcw());
      Scheduler* rubis = harness->AddApplication(MakeRubis(rubis_options));
      Replica* shared = resources.CreateReplica(first, 8192);
      tpcw->AddReplica(shared);
      rubis->AddReplica(shared);
      break;
    }
    case Scenario::kIoContention: {
      RubisOptions a, b;
      a.app_id = 2;
      a.table_base = 11;
      b.app_id = 3;
      b.table_base = 21;
      Scheduler* rubis1 = harness->AddApplication(MakeRubis(a));
      Scheduler* rubis2 = harness->AddApplication(MakeRubis(b));
      rubis1->AddReplica(resources.CreateReplica(first, 8192, 51));
      rubis2->AddReplica(resources.CreateReplica(first, 8192, 52));
      break;
    }
    case Scenario::kChaosReplica:
    case Scenario::kChaosDisk:
    case Scenario::kChaosNet:
    case Scenario::kChaosCtl: {
      // Consolidation topology plus a second TPC-W replica so a crash
      // degrades capacity instead of zeroing it.
      Scheduler* tpcw = harness->AddApplication(MakeTpcw());
      Scheduler* rubis = harness->AddApplication(MakeRubis(rubis_options));
      Replica* shared = resources.CreateReplica(first, 8192);
      PhysicalServer* second =
          run.servers > 1 ? resources.servers()[1].get() : first;
      Replica* spare = resources.CreateReplica(second, 8192, 2);
      tpcw->AddReplica(shared);
      tpcw->AddReplica(spare);
      rubis->AddReplica(shared);
      break;
    }
  }
}

void AssembleScenario(const RunConfig& run, ClusterHarness* harness) {
  AssembleCluster(run, harness);
  // Applications in registration order: TPC-W first, RUBiS second (io
  // runs two RUBiS domains).
  Scheduler* first = harness->schedulers()[0].get();
  Scheduler* second = harness->schedulers().size() > 1
                          ? harness->schedulers()[1].get()
                          : nullptr;
  // The populations are already scaled by --clients-scale, so the
  // overload scenario's 7.5x below scales with them.
  const double tpcw_clients = run.tpcw_clients;
  const double rubis_clients = run.rubis_clients;
  auto add_constant = [&](Scheduler* app, double clients, uint64_t seed) {
    harness->AddConstantClients(app, clients, seed,
                                EmulatorOptions(run, clients));
  };
  // The second application steps in at one third of the run.
  const double step_at = run.duration_seconds / 3;
  auto add_step = [&](Scheduler* app, double clients) {
    harness->AddClients(
        app,
        std::make_unique<StepLoad>(
            std::vector<std::pair<SimTime, double>>{{step_at, clients}}),
        run.seed + 1, EmulatorOptions(run, clients));
  };

  switch (run.scenario) {
    case Scenario::kSteady:
    case Scenario::kColdStart:
      add_constant(first, tpcw_clients, run.seed);
      break;
    case Scenario::kBurst:
      // Quarter load, then the full client count from one third in.
      harness->AddClients(
          first,
          std::make_unique<StepLoad>(std::vector<std::pair<SimTime, double>>{
              {0, tpcw_clients / 4}, {step_at, tpcw_clients}}),
          run.seed, EmulatorOptions(run, tpcw_clients));
      break;
    case Scenario::kOverload:
      // ~3x one replica's saturation point (~300 clients at TPC-W's 1s
      // think time): far past capacity, so without admission control
      // the queue (and every class's latency) collapses together.
      add_constant(first, 7.5 * tpcw_clients, run.seed);
      break;
    case Scenario::kConsolidation:
      add_constant(first, tpcw_clients, run.seed);
      add_step(second, rubis_clients);
      break;
    case Scenario::kIoContention:
      add_constant(first, rubis_clients, run.seed);
      add_step(second, rubis_clients);
      break;
    case Scenario::kTierThrash:
    case Scenario::kTierFail:
      add_constant(first, tpcw_clients, run.seed);
      // A sharper arrival than consolidation's: the squeeze must break
      // SLA within a controller interval of the step, while the heavy
      // class is still a suspect rather than an adopted baseline (the
      // tier's own cushioning otherwise delays the violation past the
      // stability window and the diagnosis clears everyone).
      add_step(second, 4.0 / 3.0 * rubis_clients);
      break;
    case Scenario::kChaosReplica:
    case Scenario::kChaosDisk:
    case Scenario::kChaosNet:
    case Scenario::kChaosCtl:
      add_constant(first, tpcw_clients, run.seed);
      add_constant(second, rubis_clients, run.seed + 1);
      break;
  }
}

bool ArmRun(const RunConfig& run, ClusterHarness* harness,
            std::string* error) {
  if (run.admission) harness->EnableAdmission(AdmissionConfig{});
  if (run.span_sample > 0) {
    harness->EnableSpanTracing(SpanConfig{.sample_every = run.span_sample});
  }
  harness->EnableStatsChannel(StatsChannelConfig{.guard = run.stats_guard});
  if (run.ckpt_interval_seconds > 0) {
    harness->EnableCheckpointing(run.ckpt_interval_seconds);
  }
  if (!run.fault_spec.empty()) {
    FaultSpec spec;
    if (!FaultSpec::Parse(run.fault_spec, &spec, error)) return false;
    harness->InjectFaults(std::move(spec), run.fault_seed);
  }
  return true;
}

}  // namespace fglb

#ifndef FGLB_SCENARIOS_RUN_CONFIG_H_
#define FGLB_SCENARIOS_RUN_CONFIG_H_

#include <cstdint>
#include <optional>
#include <string>

#include "cluster/admission.h"
#include "cluster/stats_channel.h"
#include "common/span_tracer.h"
#include "storage/replacement_policy.h"
#include "storage/tiered_buffer_pool.h"

namespace fglb {

// The canned cluster scenarios fglb_sim runs (built by
// AssembleScenario in scenarios/scenario.h).
enum class Scenario {
  kSteady,         // constant TPC-W load
  kBurst,          // step burst (Fig. 3-style provisioning)
  kConsolidation,  // TPC-W + RUBiS in one engine (Table 2)
  kIoContention,   // two RUBiS domains on one machine (Table 3)
  kChaosReplica,   // consolidation + replica crash/restart faults
  kChaosDisk,      // consolidation + disk-latency spike faults
  kChaosNet,       // consolidation + lossy stats-report transport
  kChaosCtl,       // consolidation + controller crash/restart
  kOverload,       // 3x TPC-W load on one replica (admission control)
  kTierThrash,     // consolidation squeezed into small DRAM + tier-2
  kTierFail,       // tier-thrash + the SSD tier failing mid-run
  kColdStart,      // tiered steady state from empty caches
};

// The scenario's command-line name ("steady", "io", "chaos-net", ...)
// and its inverse; both read one table.
const char* ScenarioName(Scenario scenario);
bool ParseScenarioName(const std::string& name, Scenario* out);

// Everything that decides a run, fully resolved: fglb_sim derives one
// from its flags (RunConfigFromCli), a capture stores it as its info
// block, and replay rebuilds the cluster from it, so a capture always
// replays the run it recorded. Per-process knobs that cannot change
// the outcome (MRC worker threads, output files) stay out.
struct RunConfig {
  // The run.
  Scenario scenario = Scenario::kSteady;
  uint64_t seed = 1;
  uint64_t fault_seed = 1;
  double duration_seconds = 900;

  // Population: client counts are after --clients-scale; `cohorts` is
  // "auto" | "on" | "off" (see ClientEmulator::Options::cohort).
  int servers = 4;
  double tpcw_clients = 120;
  double rubis_clients = 45;
  std::string cohorts = "auto";

  // Controller (SelectiveRetuner::Config).
  double interval_seconds = 10;
  int max_migrations_per_interval = 0;
  uint64_t replica_pool_pages = 8192;
  double mrc_sample_rate = 1.0;
  bool opt_regret = false;

  // Engines: every engine's buffer hierarchy.
  TierConfig tier;
  ReplacementPolicy replacement = ReplacementPolicy::kLru;

  // Subsystems; an absent optional is a subsystem left off.
  std::optional<AdmissionConfig> admission;
  std::optional<SpanConfig> spans;
  StatsChannelConfig stats;
  double ckpt_interval_seconds = 0;  // 0 = no controller checkpoints
  std::string fault_spec;            // FaultSpec text; "" = no faults

  // One "key=value" line per field, keys sorted, joined by '\n'.
  // Sub-configs print through their own ToString and numbers in the
  // shortest form that parses back exactly, so Parse(ToString()) gives
  // back a bit-identical config.
  std::string ToString() const;
  // Accepts exactly what ToString writes: every key once, in any order,
  // each value checked by its own parser. On error names the offending
  // token in *error and leaves *out untouched.
  static bool Parse(const std::string& text, RunConfig* out,
                    std::string* error);
  bool operator==(const RunConfig&) const = default;
};

}  // namespace fglb

#endif  // FGLB_SCENARIOS_RUN_CONFIG_H_

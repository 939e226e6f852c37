#ifndef FGLB_SCENARIOS_RUN_CONFIG_H_
#define FGLB_SCENARIOS_RUN_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/stats_channel.h"
#include "mrc/miss_ratio_curve.h"
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

// Everything that decides a run, fully resolved, as one flat record of
// scalars: fglb_sim derives one from its flags (RunConfigFromCli), a
// capture stores it as its info block, and replay rebuilds the cluster
// from it, so a capture always replays the run it recorded. Each field
// is one row of the table in run_config.cc, which holds its info-block
// key, how it prints, how it parses and whether fglb_sim takes it as a
// flag. Per-process knobs that cannot change the outcome (MRC worker
// threads, output files) stay out.
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

  // Controller (SelectiveRetuner::Config and its MrcConfig).
  double interval_seconds = 10;
  int max_migrations_per_interval = 0;
  uint64_t replica_pool_pages = 8192;
  double mrc_sample_rate = MrcConfig{}.sample_rate;
  bool mrc_opt_regret = false;

  // Engines: every engine's second tier (TierConfig); 0 tier pages
  // builds no tier.
  uint64_t tier2_pages = 0;
  double tier2_read_us = TierConfig{}.read_us;
  bool tier2_demote = TierConfig{}.demote;

  // Subsystems.
  bool admission = false;    // overload protection, AdmissionConfig{}
  uint64_t span_sample = 0;  // trace 1 in N queries; 0 = no span tracing
  bool stats_guard = StatsChannelConfig{}.guard;
  double ckpt_interval_seconds = 0;  // 0 = no controller checkpoints
  std::string fault_spec;            // FaultSpec text; "" = no faults

  // One "key=value" line per row, keys sorted, joined by '\n'. Numbers
  // print in the shortest form that parses back exactly and switches
  // as "on" / "off", so Parse(ToString()) gives back a bit-identical
  // config.
  std::string ToString() const;
  // Accepts exactly the keys ToString writes, every one once, in any
  // order, each value checked by its row. On error names the offending
  // key in *error and leaves *out untouched.
  static bool Parse(const std::string& text, RunConfig* out,
                    std::string* error);

  // Sets the row `key` from a value in its printed form, checked as
  // Parse checks it. On an unknown key or a bad value returns false,
  // names the key in *error and leaves *this untouched.
  bool Set(const std::string& key, const std::string& value,
           std::string* error);
  // The keys of the rows fglb_sim takes as flags, in table order; the
  // flag is the key with '-' for '_' (fault_seed is --fault-seed).
  static std::vector<std::string> FlagKeys();

  bool operator==(const RunConfig&) const = default;
};

}  // namespace fglb

#endif  // FGLB_SCENARIOS_RUN_CONFIG_H_

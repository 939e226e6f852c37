#ifndef FGLB_SCENARIOS_CLI_OPTIONS_H_
#define FGLB_SCENARIOS_CLI_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "scenarios/run_config.h"

namespace fglb {

// Options of the fglb_sim command-line scenario runner. Parsed from
// --key=value / --key value / --flag arguments; unknown keys fail with
// a message so typos do not silently run the default scenario.
struct CliOptions {
  using Scenario = ::fglb::Scenario;
  enum class Output {
    kTable,       // human-readable series + actions
    kSamplesCsv,  // interval series as CSV
    kActionsCsv,  // action log as CSV
    kServersCsv,  // per-server utilization as CSV
  };

  Scenario scenario = Scenario::kSteady;
  Output output = Output::kTable;
  int servers = 4;
  double duration_seconds = 900;
  double tpcw_clients = 120;
  double rubis_clients = 45;
  // Multiplies every scenario's client counts (tpcw/rubis, including
  // scenario-specific defaults like overload's 7.5x), so e.g.
  // --clients-scale=100 drives the overload scenario at 100x without
  // recomputing per-app numbers by hand.
  double clients_scale = 1;
  // Client emulation: "auto" uses batched cohorts when the scaled
  // client count is large enough to need them (>= 10k per app), "on" /
  // "off" force the choice. See ClientEmulator::Options::cohort.
  std::string cohorts = "auto";
  uint64_t seed = 1;
  // Second-tier block cache under every engine's DRAM pool: total
  // pages (0 = tierless; the tier-* scenarios default it on), the
  // per-hit SSD read service time, and whether DRAM evictions are
  // demoted into the tier. Captures record the resolved TierConfig as
  // part of their RunConfig so replays rebuild the identical hierarchy.
  uint64_t tier2_pages = 0;
  double tier2_read_us = 100.0;
  bool tier2_demote = true;
  // Replacement policy of every DRAM buffer-pool partition.
  std::string replacement = "lru";
  // MRC analysis pipeline: worker threads for the diagnosis fan-out
  // (0 = hardware concurrency, 1 = serial) and the Mattson replay
  // hash-sampling rate (1.0 = exact; e.g. 0.125 replays ~1/8 of the
  // pages and scales counts back up).
  int mrc_threads = 0;
  double mrc_sample_rate = 1.0;
  // Attach the LRU-vs-Belady regret to every diagnosed class profile
  // (phase=mrc trace events gain "regret_vs_opt"). Costs an OPT
  // simulation over the access window per diagnosed class.
  bool mrc_opt_regret = false;
  // Observability outputs: a JSONL decision trace of the controller's
  // diagnosis cascade, a final metrics-registry snapshot, and the
  // engine-stats sampling period (0 = the retuner interval).
  std::string trace_out;
  // Workload capture output for the replay subsystem (fglb_replay):
  // empty disables capture.
  std::string capture_out;
  std::string metrics_out;
  double metrics_interval_seconds = 0;
  // Sampled per-query span tracing: Chrome trace_event / Perfetto JSON
  // timeline output (empty = no file) and the 1-in-N sampling rate
  // (0 = leave tracing off unless --spans-out is given, then 1-in-64).
  std::string spans_out;
  uint64_t span_sample = 0;
  // Fault injection: an explicit schedule (see the FaultSpec grammar in
  // sim/fault_injector.h / README) and the seed for the injector's own
  // decisions (migration failures) and for seed-generated schedules.
  // The chaos-* scenarios supply a default spec when this is empty.
  std::string fault_spec;
  uint64_t fault_seed = 1;
  // Stale-telemetry guard: "on" decays confidence while reports are
  // missing (fence widening + action suppression); "off" is the
  // ablation arm that trusts last-known-good stats at full confidence.
  std::string stats_guard = "on";
  // Controller checkpoint cadence in seconds: -1 = auto (chaos-ctl
  // checkpoints every retuner interval, other scenarios don't),
  // 0 = explicitly off, > 0 = that cadence.
  double ckpt_interval = -1;
  // Overload protection: "on" | "off" | "auto" (auto = on for the
  // overload scenario, off elsewhere), plus the knobs forwarded into
  // AdmissionConfig (negative = keep that config's default).
  std::string admission = "auto";
  double admission_target = -1;             // CoDel target delay (xSLA)
  double admission_interval = -1;           // CoDel window seconds
  int admission_max_queue = -1;             // per-replica queue cap
  double admission_retry_ratio = -1;        // retry tokens per admit
  int admission_breaker_threshold = -1;     // consecutive failures
  double admission_breaker_open = -1;       // breaker open seconds
  // Stderr verbosity: quiet | info | debug.
  std::string log_level = "info";
  bool help = false;
};

// Parses argv (excluding argv[0]). On success returns true; on failure
// returns false with a one-line message in *error.
bool ParseCliOptions(const std::vector<std::string>& args,
                     CliOptions* options, std::string* error);

// The --help text.
std::string CliUsage();

}  // namespace fglb

#endif  // FGLB_SCENARIOS_CLI_OPTIONS_H_

#ifndef FGLB_SCENARIOS_CLI_OPTIONS_H_
#define FGLB_SCENARIOS_CLI_OPTIONS_H_

#include <map>
#include <string>
#include <vector>

#include "scenarios/run_config.h"

namespace fglb {

// Options of the fglb_sim command-line scenario runner. Parsed from
// --key=value / --key value / --flag arguments; unknown keys fail with
// a message so typos do not silently run the default scenario.
//
// A flag that sets a run knob is a RunConfig row's key with '-' for
// '_' (run_config.h): its value is checked by that row and kept here
// as given; RunConfigFromCli (scenarios/scenario.h) applies it to the
// scenario's defaults. Everything below is not part of a run.
struct CliOptions {
  enum class Output {
    kTable,       // human-readable series + actions
    kSamplesCsv,  // interval series as CSV
    kActionsCsv,  // action log as CSV
    kServersCsv,  // per-server utilization as CSV
  };

  // The run flags given, by RunConfig key; the last one given wins.
  // --admission=auto and --ckpt-interval=-1 leave the scenario's
  // default, so they remove the key instead.
  std::map<std::string, std::string> run_flags;
  // Multiplies both client rows after every run flag is applied,
  // including scenario-specific defaults like overload's 7.5x, so e.g.
  // --clients-scale=100 drives the overload scenario at 100x without
  // recomputing per-app numbers by hand.
  double clients_scale = 1;
  Output output = Output::kTable;
  // Diagnosis worker threads (0 = hardware concurrency, 1 = serial);
  // parallel and serial runs are byte-identical.
  int mrc_threads = 0;
  // Observability outputs: a JSONL decision trace of the controller's
  // diagnosis cascade, a workload capture for fglb_replay, a final
  // metrics-registry snapshot, Chrome trace_event span timelines
  // (sampled 1 in SpanConfig{}.sample_every unless --span-sample is
  // given), and the engine-stats sampling period (0 = the retuner
  // interval). An empty path writes no file.
  std::string trace_out;
  std::string capture_out;
  std::string metrics_out;
  std::string spans_out;
  double metrics_interval_seconds = 0;
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

#include "scenarios/cli_options.h"

#include <algorithm>

#include "common/kv_spec.h"

namespace fglb {

namespace {

bool ParseOutput(const std::string& value, CliOptions::Output* out) {
  if (value == "table") *out = CliOptions::Output::kTable;
  else if (value == "samples-csv") *out = CliOptions::Output::kSamplesCsv;
  else if (value == "actions-csv") *out = CliOptions::Output::kActionsCsv;
  else if (value == "servers-csv") *out = CliOptions::Output::kServersCsv;
  else return false;
  return true;
}

// The RunConfig row a flag sets ("fault-seed" -> "fault_seed"), or ""
// when the flag sets no run knob.
std::string RunKeyOf(const std::string& flag) {
  if (flag.find('_') != std::string::npos) return "";
  std::string key = flag;
  std::replace(key.begin(), key.end(), '-', '_');
  const std::vector<std::string> keys = RunConfig::FlagKeys();
  return std::find(keys.begin(), keys.end(), key) != keys.end() ? key : "";
}

}  // namespace

std::string CliUsage() {
  return R"(fglb_sim -- scenario runner for the fglb cluster simulator

usage: fglb_sim [options]

N is a count (digits only); X, R and SEC are numbers.

  --scenario=NAME   steady | burst | consolidation | io |
                    chaos-replica | chaos-disk | chaos-net |
                    chaos-ctl | overload |
                    tier-thrash | tier-fail | cold-start    (default steady)
  --output=FORMAT   table | samples-csv | actions-csv | servers-csv
  --servers=N       machines in the shared pool             (default 4)
  --duration=SEC    simulated seconds                       (default 900)
  --tpcw-clients=X  TPC-W closed-loop clients               (default 120)
  --rubis-clients=X RUBiS closed-loop clients               (default 45)
  --clients-scale=X multiply every scenario's client counts by X
                    (million-client runs: e.g. overload at
                    --clients-scale=100)                    (default 1)
  --cohorts=MODE    client emulation: auto | on | off; batched
                    cohorts replace per-client think events
                    (auto = on from 10k clients per app)    (default auto)
  --seed=N          RNG seed (runs are deterministic)       (default 1)
  --tier2-pages=N   second-tier (SSD) cache pages per engine; 0 = no
                    tier (tier-* scenarios and cold-start
                    default to 16384)                       (default 0)
  --tier2-read-us=X service time of one tier-2 hit in usec  (default 100)
  --tier2-demote=M  on | off: demote DRAM evictions into the tier
                                                            (default on)
  --replacement=P   DRAM partition replacement: lru | clock | arc
                                                            (default lru)
  --mrc-threads=N   diagnosis worker threads; 0 = all cores (default 0)
  --mrc-sample-rate=R  Mattson replay sampling rate in (0,1];
                    1 = exact, 0.125 ~ 8x cheaper           (default 1)
  --mrc-opt-regret  attach the LRU-vs-Belady miss-ratio gap to every
                    diagnosed class (phase=mrc "regret_vs_opt")
  --trace-out=FILE  write the controller's JSONL decision trace
                    (one event per diagnosis phase per interval)
  --capture-out=FILE  record the full workload stream (run config,
                    arrivals, page accesses, actions) for fglb_replay
  --metrics-out=FILE  write a final metrics-registry JSON snapshot
  --metrics-interval=SEC  engine-stats sampling period;
                    0 = the retuner interval                 (default 0)
  --spans-out=FILE  write sampled per-query span timelines as Chrome
                    trace_event JSON (load in ui.perfetto.dev);
                    samples 1 in 64 unless --span-sample is given
  --span-sample=N   trace 1 in N queries, deterministically by submit
                    sequence, even without --spans-out; 0 = no
                    span tracing                            (default 0)
  --fault-spec=SPEC fault schedule, e.g.
                    "crash@120:replica=1,restart=60;disk@300:server=0,factor=8,duration=120"
                    (chaos-* scenarios provide one if omitted)
  --fault-seed=N    fault-injector seed (schedule + decisions) (default 1)
  --stats-guard=M   on | off: decay controller confidence while stats
                    reports are missing (fences widen, per-class
                    actions pause); off is the flapping ablation arm
                                                            (default on)
  --ckpt-interval=SEC  controller-checkpoint cadence;
                    0 = off, -1 = auto (chaos-ctl checkpoints every
                    retuner interval)                       (default -1)
  --admission=MODE  overload protection: on | off | auto
                    (auto = on for the overload scenario)    (default auto)
  --log-level=L     quiet | info | debug                    (default info)
  --help            this text
)";
}

bool ParseCliOptions(const std::vector<std::string>& args,
                     CliOptions* options, std::string* error) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      options->help = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected positional argument: " + arg;
      return false;
    }
    std::string key = arg.substr(2);
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key == "mrc-opt-regret") {
      value = "on";  // bare boolean flag: --mrc-opt-regret
    } else {
      if (i + 1 >= args.size()) {
        *error = "missing value for --" + key;
        return false;
      }
      value = args[++i];
    }

    if (const std::string run_key = RunKeyOf(key); !run_key.empty()) {
      if ((run_key == "admission" && value == "auto") ||
          (run_key == "ckpt_interval" && value == "-1")) {
        options->run_flags.erase(run_key);
        continue;
      }
      // The row checks the value now, so a bad one fails before the run
      // is resolved. An empty fault spec means no faults in a capture,
      // but on the command line it is a forgotten value.
      if (value.empty()) {
        *error = "invalid value for --" + key + ": ";
        return false;
      }
      RunConfig checked;
      if (!checked.Set(run_key, value, error)) return false;
      options->run_flags[run_key] = value;
      continue;
    }

    bool ok = !value.empty();
    if (key == "output") {
      ok = ParseOutput(value, &options->output);
    } else if (key == "clients-scale") {
      ok = ParseKvNumber(value, &options->clients_scale) &&
           options->clients_scale > 0;
    } else if (key == "mrc-threads") {
      ok = ParseKvCount(value, &options->mrc_threads);
    } else if (key == "trace-out") {
      options->trace_out = value;
    } else if (key == "capture-out") {
      options->capture_out = value;
    } else if (key == "metrics-out") {
      options->metrics_out = value;
    } else if (key == "metrics-interval") {
      ok = ParseKvNumber(value, &options->metrics_interval_seconds) &&
           options->metrics_interval_seconds >= 0;
    } else if (key == "spans-out") {
      options->spans_out = value;
    } else if (key == "log-level") {
      ok = value == "quiet" || value == "info" || value == "debug";
      options->log_level = value;
    } else {
      *error = "unknown option --" + key;
      return false;
    }
    if (!ok) {
      *error = "invalid value for --" + key + ": " + value;
      return false;
    }
  }
  return true;
}

}  // namespace fglb

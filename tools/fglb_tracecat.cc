// fglb_tracecat: inspector for the JSONL decision traces fglb_sim
// writes via --trace-out. Pretty-prints events, filters by phase /
// app / query class, validates trace well-formedness, and summarizes
// per-phase durations and action counts.
//
//   ./build/tools/fglb_tracecat trace.jsonl
//   ./build/tools/fglb_tracecat trace.jsonl --phase=action
//   ./build/tools/fglb_tracecat trace.jsonl --app=2 --phase=mrc
//   ./build/tools/fglb_tracecat trace.jsonl --summary
//   ./build/tools/fglb_tracecat trace.jsonl --check
//   ./build/tools/fglb_tracecat spans.json --spans
//
// `--phase=action` prints the action log in the exact format of the
// simulator's own table output ("t=... [kind] description"), so the
// trace can be diffed against it (demote actions included). `--check`
// exits non-zero on any malformed line or event missing the schema's
// required fields — including a partial or nonsensical tier-field set
// (tier2_pages/tier2_resident/tier2_read_us) on a phase=mrc event.
// `--spans` reads a --spans-out Chrome trace_event file instead of a
// JSONL decision trace and summarizes sampled query spans by segment
// kind; it exits non-zero if the file is not a well-formed trace array.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/kv_spec.h"
#include "common/trace_check.h"

namespace {

using fglb::JsonValue;

struct TracecatOptions {
  std::string path;
  std::string phase;       // empty = all
  bool has_app = false;
  uint32_t app = 0;
  bool has_class = false;
  uint32_t cls = 0;
  bool summary = false;
  bool check = false;
  bool spans = false;
  bool help = false;
};

// Every phase the cluster emits; --phase names outside this set are
// rejected (a typo would otherwise silently match nothing) and
// --summary prints a row per phase even at zero events.
const char* const kKnownPhases[] = {"sla",    "impact",    "iqr",
                                    "mrc",    "action",    "migration",
                                    "fault",  "admission", "recovery"};

const char kUsage[] =
    R"(fglb_tracecat -- inspector for fglb_sim --trace-out JSONL traces

usage: fglb_tracecat FILE [options]

  --phase=NAME   only events of this phase (sla|impact|iqr|mrc|action|
                 migration|fault|admission|recovery);
                 --phase=action prints the simulator's action-log format
  --app=N        only events of application N
  --class=N      only events mentioning query class N (any app)
  --summary      per-phase event counts, duration percentiles and
                 action-kind counts instead of the events themselves
  --check        validate every line (schema fields, JSON syntax);
                 exit 1 on the first malformed line
  --spans        input is a --spans-out Chrome trace_event file;
                 summarize sampled query spans by segment kind
                 (exit 1 on malformed span JSON)
  --help         this text
)";

// An app or class id: a plain digit string (the kv_spec count
// grammar) that fits uint32.
bool ParseId(const std::string& value, uint32_t* out) {
  uint64_t parsed = 0;
  if (!fglb::ParseKvCount(value, &parsed) || parsed > UINT32_MAX) {
    return false;
  }
  *out = static_cast<uint32_t>(parsed);
  return true;
}

bool ParseArgs(int argc, char** argv, TracecatOptions* options,
               std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      options->help = true;
      return true;
    }
    if (arg.rfind("--", 0) != 0) {
      if (!options->path.empty()) {
        *error = "more than one input file: " + arg;
        return false;
      }
      options->path = arg;
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(2, eq == std::string::npos
                                              ? std::string::npos
                                              : eq - 2);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "phase") {
      bool known = false;
      for (const char* phase : kKnownPhases) known |= value == phase;
      if (!known) {
        *error = "unknown phase: " + value;
        return false;
      }
      options->phase = value;
    } else if (key == "app") {
      options->has_app = true;
      if (!ParseId(value, &options->app)) {
        *error = "invalid --app: " + value;
        return false;
      }
    } else if (key == "class") {
      options->has_class = true;
      if (!ParseId(value, &options->cls)) {
        *error = "invalid --class: " + value;
        return false;
      }
    } else if (key == "summary") {
      options->summary = true;
    } else if (key == "check") {
      options->check = true;
    } else if (key == "spans") {
      options->spans = true;
    } else {
      *error = "unknown option " + arg;
      return false;
    }
  }
  if (options->path.empty()) {
    *error = "no input file";
    return false;
  }
  return true;
}

// Does any object in the value tree carry "cls" == cls?
bool MentionsClass(const JsonValue& value, uint32_t cls) {
  if (value.is_object()) {
    const JsonValue* c = value.Find("cls");
    if (c != nullptr && c->kind == JsonValue::Kind::kNumber &&
        static_cast<uint32_t>(c->number) == cls) {
      return true;
    }
    for (const auto& [key, child] : value.object) {
      if (MentionsClass(child, cls)) return true;
    }
  } else if (value.is_array()) {
    for (const JsonValue& child : value.array) {
      if (MentionsClass(child, cls)) return true;
    }
  }
  return false;
}

bool Matches(const JsonValue& event, const TracecatOptions& options) {
  if (!options.phase.empty() &&
      event.StringOr("phase", "") != options.phase) {
    return false;
  }
  if (options.has_app &&
      static_cast<uint32_t>(event.NumberOr("app", -1)) != options.app) {
    return false;
  }
  if (options.has_class && !MentionsClass(event, options.cls)) return false;
  return true;
}

// One line per event: header columns then the remaining payload.
void PrintEvent(const JsonValue& event) {
  std::printf("#%-5.0f t=%8.1f  %-7s", event.NumberOr("seq", -1),
              event.NumberOr("t", 0), event.StringOr("phase", "?").c_str());
  JsonValue rest = event;
  rest.object.erase("v");
  rest.object.erase("seq");
  rest.object.erase("mono_us");
  rest.object.erase("phase");
  rest.object.erase("t");
  std::printf("  %s\n", rest.Dump().c_str());
}

// Parity with scenarios/report.cc FormatActions (shared renderer, so
// the in-process tests compare the same projection).
void PrintActionLine(const JsonValue& event) {
  const std::string line = fglb::FormatActionEventLine(event);
  if (!line.empty()) std::fputs(line.c_str(), stdout);
}

double PercentileOf(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

struct PhaseStats {
  uint64_t events = 0;
  uint64_t skipped = 0;
  std::vector<double> durations_us;
};

// --spans: summarize a --spans-out Chrome trace_event file. The whole
// file is one JSON array; query slices carry cat "query" and the tiled
// attribution slices underneath them cat "segment" (named by segment
// kind). Anything that fails to parse as that shape exits 1 so CI can
// gate on span-file well-formedness.
int RunSpans(const TracecatOptions& options) {
  std::ifstream in(options.path);
  if (!in) {
    std::fprintf(stderr, "fglb_tracecat: cannot open %s\n",
                 options.path.c_str());
    return 1;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  JsonValue root;
  std::string error;
  if (!JsonValue::Parse(text, &root, &error)) {
    std::fprintf(stderr, "fglb_tracecat: %s: malformed span JSON: %s\n",
                 options.path.c_str(), error.c_str());
    return 1;
  }
  if (!root.is_array()) {
    std::fprintf(stderr,
                 "fglb_tracecat: %s: span file is not a trace_event array\n",
                 options.path.c_str());
    return 1;
  }

  uint64_t queries = 0;
  std::vector<double> end_to_end_us;
  std::map<std::string, std::vector<double>> segments;
  for (const JsonValue& event : root.array) {
    if (!event.is_object()) {
      std::fprintf(stderr,
                   "fglb_tracecat: %s: non-object trace event\n",
                   options.path.c_str());
      return 1;
    }
    if (event.StringOr("ph", "") != "X") continue;
    const std::string cat = event.StringOr("cat", "");
    const double dur_us = event.NumberOr("dur", 0);
    if (cat == "query") {
      ++queries;
      end_to_end_us.push_back(dur_us);
    } else if (cat == "segment") {
      segments[event.StringOr("name", "?")].push_back(dur_us);
    }
  }

  std::printf("%llu sampled query spans\n",
              static_cast<unsigned long long>(queries));
  std::printf("%-12s %8s %12s %12s %12s %12s\n", "segment", "count",
              "total_ms", "p50_us", "p95_us", "p99_us");
  auto print_row = [](const std::string& name,
                      const std::vector<double>& durations) {
    double total_us = 0;
    for (double d : durations) total_us += d;
    std::printf("%-12s %8llu %12.3f %12.1f %12.1f %12.1f\n", name.c_str(),
                static_cast<unsigned long long>(durations.size()),
                total_us / 1000.0, PercentileOf(durations, 0.50),
                PercentileOf(durations, 0.95),
                PercentileOf(durations, 0.99));
  };
  print_row("end_to_end", end_to_end_us);
  for (const auto& [name, durations] : segments) print_row(name, durations);
  return 0;
}

int Run(const TracecatOptions& options) {
  std::ifstream in(options.path);
  if (!in) {
    std::fprintf(stderr, "fglb_tracecat: cannot open %s\n",
                 options.path.c_str());
    return 1;
  }

  std::vector<std::string> lines;
  {
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  if (options.check) {
    // Shared with the in-process trace tests (common/trace_check.h).
    std::string check_error;
    if (!fglb::CheckTraceLines(lines, &check_error)) {
      std::fprintf(stderr, "fglb_tracecat: %s: %s\n", options.path.c_str(),
                   check_error.c_str());
      return 1;
    }
  }

  std::map<std::string, PhaseStats> phases;
  if (options.summary && options.phase.empty()) {
    // Every known phase gets a row, so "0 admission events" is visible
    // rather than indistinguishable from "phase unknown to this tool".
    for (const char* phase : kKnownPhases) phases[phase];
  }
  std::map<std::string, uint64_t> action_kinds;
  std::map<std::string, uint64_t> recovery_whys;
  uint64_t line_number = 0;
  uint64_t matched = 0;
  for (const std::string& line : lines) {
    ++line_number;
    if (line.empty()) continue;
    JsonValue event;
    std::string error;
    if (!JsonValue::Parse(line, &event, &error)) {
      std::fprintf(stderr, "fglb_tracecat: %s:%llu: %s\n",
                   options.path.c_str(),
                   static_cast<unsigned long long>(line_number),
                   error.c_str());
      return 1;
    }
    if (!Matches(event, options)) continue;
    ++matched;

    if (options.summary) {
      const std::string phase = event.StringOr("phase", "?");
      PhaseStats& stats = phases[phase];
      ++stats.events;
      if (event.BoolOr("skipped", false)) ++stats.skipped;
      if (const JsonValue* dur = event.Find("dur_us")) {
        stats.durations_us.push_back(dur->number);
      }
      if (phase == "action") {
        ++action_kinds[event.StringOr("kind", "?")];
      }
      if (phase == "recovery") {
        ++recovery_whys[event.StringOr("why", "?")];
      }
      continue;
    }
    if (options.check) continue;
    if (options.phase == "action") {
      PrintActionLine(event);
    } else {
      PrintEvent(event);
    }
  }

  if (options.check) {
    std::printf("ok: %llu lines, %llu matching events\n",
                static_cast<unsigned long long>(line_number),
                static_cast<unsigned long long>(matched));
    return 0;
  }
  if (options.summary) {
    std::printf("%-8s %8s %8s %12s %12s %12s %12s\n", "phase", "events",
                "skipped", "dur_p50_us", "dur_p95_us", "dur_p99_us",
                "dur_max_us");
    for (const auto& [phase, stats] : phases) {
      const double max_us =
          stats.durations_us.empty()
              ? 0
              : *std::max_element(stats.durations_us.begin(),
                                  stats.durations_us.end());
      std::printf("%-8s %8llu %8llu %12.1f %12.1f %12.1f %12.1f\n",
                  phase.c_str(),
                  static_cast<unsigned long long>(stats.events),
                  static_cast<unsigned long long>(stats.skipped),
                  PercentileOf(stats.durations_us, 0.50),
                  PercentileOf(stats.durations_us, 0.95),
                  PercentileOf(stats.durations_us, 0.99), max_us);
    }
    if (!action_kinds.empty()) {
      std::printf("\nactions by kind:\n");
      for (const auto& [kind, count] : action_kinds) {
        std::printf("  %-18s %8llu\n", kind.c_str(),
                    static_cast<unsigned long long>(count));
      }
    }
    if (!recovery_whys.empty()) {
      // report_lost counts the dropped/late interval reports the
      // controller rode out on last-known-good stats; the others are
      // resyncs and controller restore/cold-start outcomes.
      std::printf("\nrecovery events by why:\n");
      for (const auto& [why, count] : recovery_whys) {
        std::printf("  %-18s %8llu\n", why.c_str(),
                    static_cast<unsigned long long>(count));
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  TracecatOptions options;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &error)) {
    std::fprintf(stderr, "error: %s\n%s", error.c_str(), kUsage);
    return 2;
  }
  if (options.help) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (options.spans) return RunSpans(options);
  return Run(options);
}

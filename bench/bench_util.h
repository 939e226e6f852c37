#ifndef FGLB_BENCH_BENCH_UTIL_H_
#define FGLB_BENCH_BENCH_UTIL_H_

// Shared helpers for the paper-reproduction benchmark binaries. Each
// binary regenerates one table or figure of the paper and prints (a)
// the series/rows we measure and (b) the paper's reference values for
// side-by-side comparison. Absolute values differ (the substrate is a
// calibrated simulator, not the authors' testbed); the *shape* is the
// reproduction target. See EXPERIMENTS.md.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "storage/page.h"
#include "workload/access_generator.h"
#include "workload/capture_hooks.h"
#include "workload/query_class.h"

// The CMake build type the bench binaries were built with.
#ifndef FGLB_BUILD_TYPE
#define FGLB_BUILD_TYPE "unknown"
#endif

namespace fglb::bench {

inline void PrintHeader(const std::string& title) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================="
              "=\n");
}

inline void PrintSection(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

// Machine-readable benchmark output. Each measured configuration adds
// one record; WriteTo emits a BENCH_<name>.json the perf trajectory can
// be tracked from across commits, stamped with the build that ran it:
//   {"build_type": "Release", "compiler": "gcc 12.2.0",
//    "results": [{"name": "...", "wall_ms": 1.2,
//                 "accesses_per_sec": 3.4e6},
//                {"name": "...", "unit": "ns/draw", "repeats": 9,
//                 "median": 11.2, "min": 10.9, "p95": 12.1}, ...]}
class BenchJsonWriter {
 public:
  // `accesses` is the work the measured pass performed (page
  // references replayed, rows scored, ...); pass 0 when a rate makes
  // no sense for the stage.
  void Add(const std::string& name, double wall_ms, double accesses) {
    const double per_sec =
        wall_ms > 0 && accesses > 0 ? accesses / (wall_ms / 1000.0) : 0;
    char row[256];
    std::snprintf(row, sizeof(row),
                  "{\"name\": \"%s\", \"wall_ms\": %.4f, "
                  "\"accesses_per_sec\": %.1f}",
                  name.c_str(), wall_ms, per_sec);
    rows_.emplace_back(row);
  }

  // One figure measured `samples.size()` (> 0) times, in `unit`: its
  // median, min and nearest-rank p95. Returns the median.
  double AddRepeated(const std::string& name, const std::string& unit,
                     std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    const double median = n % 2 == 1
                              ? samples[n / 2]
                              : (samples[n / 2 - 1] + samples[n / 2]) / 2;
    const size_t p95_rank = (95 * n + 99) / 100;  // ceil(0.95 n)
    char row[256];
    std::snprintf(row, sizeof(row),
                  "{\"name\": \"%s\", \"unit\": \"%s\", \"repeats\": %zu, "
                  "\"median\": %.4g, \"min\": %.4g, \"p95\": %.4g}",
                  name.c_str(), unit.c_str(), n, median, samples[0],
                  samples[p95_rank - 1]);
    rows_.emplace_back(row);
    return median;
  }

  // Extra top-level scalar next to "results" (derived quantities such
  // as an enabled/disabled overhead ratio).
  void AddField(const std::string& name, double value) {
    fields_.emplace_back(name, value);
  }

  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\"build_type\": \"%s\", \"compiler\": \"%s\",\n",
                 FGLB_BUILD_TYPE, CompilerName().c_str());
    std::fprintf(f, " \"results\": [");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s\n  %s", i == 0 ? "" : ",", rows_[i].c_str());
    }
    std::fprintf(f, "\n]");
    for (const auto& [name, value] : fields_) {
      std::fprintf(f, ",\n \"%s\": %.6g", name.c_str(), value);
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu results)\n", path.c_str(), rows_.size());
    return true;
  }

 private:
  static std::string CompilerName() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
  }

  std::vector<std::string> rows_;  // rendered JSON objects
  std::vector<std::pair<std::string, double>> fields_;
};

// Counts every engine page access (the work unit the end-to-end rate
// is measured in) through the capture hook the replay subsystem uses;
// install it with ClusterHarness::AttachRecorders before Start().
class AccessCounter : public ExecutionRecorder {
 public:
  void OnExecution(int, ClassKey,
                   const std::vector<PageAccess>& accesses) override {
    accesses_ += accesses.size();
  }
  uint64_t accesses() const { return accesses_; }

 private:
  uint64_t accesses_ = 0;
};

// Generates a page-access trace by executing `queries` instances of a
// template back to back (what the paper's per-class logging would have
// recorded in its recent-access window).
inline std::vector<PageId> TraceOf(const QueryTemplate& tmpl, int queries,
                                   uint64_t seed) {
  AccessGenerator gen;
  Rng rng(seed);
  std::vector<PageAccess> accesses;
  for (int i = 0; i < queries; ++i) gen.Generate(tmpl, rng, &accesses);
  std::vector<PageId> trace;
  trace.reserve(accesses.size());
  for (const auto& a : accesses) trace.push_back(a.page);
  return trace;
}

// Generates exactly what the engine's per-class ring window would hold:
// the most recent `window` accesses of back-to-back executions.
inline std::vector<PageId> WindowTrace(const QueryTemplate& tmpl,
                                       size_t window, uint64_t seed) {
  AccessGenerator gen;
  Rng rng(seed);
  std::vector<PageAccess> accesses;
  while (accesses.size() < window) gen.Generate(tmpl, rng, &accesses);
  std::vector<PageId> trace;
  trace.reserve(window);
  for (size_t i = accesses.size() - window; i < accesses.size(); ++i) {
    trace.push_back(accesses[i].page);
  }
  return trace;
}

}  // namespace fglb::bench

#endif  // FGLB_BENCH_BENCH_UTIL_H_

#ifndef FGLB_MRC_MISS_RATIO_CURVE_H_
#define FGLB_MRC_MISS_RATIO_CURVE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/span_pair.h"
#include "mrc/mattson_stack.h"
#include "storage/page.h"

namespace fglb {

// The two MRC parameters the paper attaches to each query-class context
// (§3.3), plus the miss ratios at those sizes.
struct MrcParameters {
  // Smallest of (a) the physical server's memory and (b) the memory at
  // which the curve flattens out ("miss ratio estimated to be 0" in the
  // paper; cold misses put a floor above 0 in any finite trace).
  uint64_t total_memory_pages = 0;
  double ideal_miss_ratio = 0;
  // Smallest memory whose miss ratio is within a fixed threshold of the
  // ideal miss ratio.
  uint64_t acceptable_memory_pages = 0;
  double acceptable_miss_ratio = 0;

  std::string ToString() const;
};

// Policy knobs for curve computation and stable-state comparison.
struct MrcConfig {
  // Physical memory cap used for "total memory needed".
  uint64_t max_server_pages = 8192;
  // "Acceptable" = within this absolute miss-ratio distance of ideal.
  double acceptable_threshold = 0.02;
  // Hash-sampling rate for Mattson replay (rounded to 1/k): 1.0
  // replays every reference exactly; smaller rates replay only the
  // hash-sampled pages and scale counts back up (SHARDS-style),
  // cutting recomputation cost ~rate-fold. Parameters derived from a
  // sampled curve carry a small relative error (see the accuracy
  // tests), which is why MissRatioCurve::kSignificantChangeFraction is
  // much larger than any sensible rate's error.
  double sample_rate = 1.0;
  // Concurrency of the diagnosis fan-out in LogAnalyzer: total
  // threads including the caller; 1 = fully serial, 0 = use hardware
  // concurrency.
  int analysis_threads = 0;
  // When true, the diagnosis also computes each candidate's Belady/OPT
  // miss ratio over the references its LRU curve covers and surfaces
  // the LRU-vs-OPT regret at the acceptable memory size in phase=mrc
  // trace events.
  bool opt_regret = false;
};

// An LRU miss-ratio curve: miss ratio as a function of cache size in
// pages, derived from Mattson stack hit counts. MR(0) = 1 by
// definition; values beyond the largest observed reuse depth stay at
// the cold-miss floor.
class MissRatioCurve {
 public:
  MissRatioCurve() = default;

  static MissRatioCurve FromStack(const MattsonStack& stack);
  static MissRatioCurve FromTrace(std::span<const PageId> trace);

  // Builds a curve from externally maintained Mattson-style counts:
  // hits[d] = (scaled) hits at stack depth d+1. Like FromStack the
  // curve is normalized by the histogram's own mass (hits + cold);
  // `total_accesses` is the exact reference count the histogram stands
  // for and becomes total_accesses().
  static MissRatioCurve FromHistogram(std::span<const uint64_t> hits,
                                      uint64_t cold_misses,
                                      uint64_t total_accesses);

  // Copy-free variants consuming a (possibly wrapped) ring-window
  // snapshot directly.
  static MissRatioCurve FromTrace(SpanPair<PageId> trace,
                                  const MrcConfig& config);
  // Resets `stack` and replays `trace` through it — the
  // allocation-light path for callers holding a reusable scratch
  // stack.
  static MissRatioCurve Replay(SpanPair<PageId> trace, MattsonStack& stack);

  // The stack a recomputation replays a window through under
  // `config`: sampled when config.sample_rate < 1, else the exact
  // Fenwick stack, presized for `expected_accesses`.
  static std::unique_ptr<MattsonStack> MakeReplayStack(
      const MrcConfig& config, size_t expected_accesses);

  // Miss ratio of an LRU cache holding `pages` pages.
  double MissRatioAt(uint64_t pages) const;

  // Second read-out of the same reuse-distance histogram for a
  // two-tier hierarchy: the fraction of accesses that miss a
  // `dram_pages` DRAM tier but hit an exclusive `tier2_pages` second
  // tier stacked under it — hits at reuse depths in
  // (dram_pages, dram_pages + tier2_pages]. The blended latency of a
  // (d1, d2) placement is then
  //   (1 - MissRatioAt(d1))·t_mem + Tier2HitRatioAt(d1, d2)·t_ssd +
  //   MissRatioAt(d1 + d2)·t_disk.
  double Tier2HitRatioAt(uint64_t dram_pages, uint64_t tier2_pages) const {
    const double ratio = MissRatioAt(dram_pages) -
                         MissRatioAt(dram_pages + tier2_pages);
    return ratio > 0 ? ratio : 0.0;
  }

  // Largest cache size at which the curve still changes. MissRatioAt is
  // constant beyond this.
  uint64_t max_pages() const {
    return miss_ratio_.empty() ? 0 : miss_ratio_.size() - 1;
  }

  uint64_t total_accesses() const { return total_accesses_; }
  bool empty() const { return total_accesses_ == 0; }

  bool operator==(const MissRatioCurve&) const = default;

  // The curve counts as flat once within this of its final value.
  static constexpr double kFlattenEpsilon = 1e-4;
  // Relative change (either direction) in total/acceptable memory that
  // counts as a "significant change" during diagnosis (§5.3 flags the
  // no-index BestSeller whose acceptable memory *shrank*).
  static constexpr double kSignificantChangeFraction = 0.5;

  // Derives the paper's per-context parameters from this curve.
  MrcParameters ComputeParameters(const MrcConfig& config) const;

  // True when `current` shows a significant change in memory need
  // versus `stable` (the paper's trigger for keeping a query class a
  // memory-interference suspect). Both directions count: a grown
  // working set signals interference pressure, a collapsed one signals
  // a plan/access-pattern change at the root of the problem.
  static bool SignificantChange(const MrcParameters& stable,
                                const MrcParameters& current);

 private:
  // miss_ratio_[m] = miss ratio with m pages of cache; index 0 is 1.0.
  std::vector<double> miss_ratio_;
  uint64_t total_accesses_ = 0;
};

}  // namespace fglb

#endif  // FGLB_MRC_MISS_RATIO_CURVE_H_

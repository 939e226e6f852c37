#include "mrc/miss_ratio_curve.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "mrc/sampled_mattson_stack.h"

namespace fglb {

std::string MrcParameters::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "total=%llu pages (mr=%.4f), acceptable=%llu pages (mr=%.4f)",
                static_cast<unsigned long long>(total_memory_pages),
                ideal_miss_ratio,
                static_cast<unsigned long long>(acceptable_memory_pages),
                acceptable_miss_ratio);
  return buf;
}

MissRatioCurve MissRatioCurve::FromStack(const MattsonStack& stack) {
  // Normalization is by the stack's own mass (hits + cold misses)
  // rather than total_accesses(): for exact stacks the two are equal;
  // for a hash-sampled stack the sampled pages' reference share
  // fluctuates around the nominal rate (badly so on skewed traces,
  // where one head page in or out of the sample moves the share by
  // whole percents), and dividing by the sample's own scaled mass —
  // the SHARDS "adjusted" estimator — cancels that fluctuation instead
  // of folding it into every point of the curve.
  return FromHistogram(stack.hit_counts(), stack.cold_misses(),
                       stack.total_accesses());
}

MissRatioCurve MissRatioCurve::FromHistogram(std::span<const uint64_t> hits,
                                             uint64_t cold_misses,
                                             uint64_t total_accesses) {
  MissRatioCurve curve;
  curve.total_accesses_ = total_accesses;
  if (total_accesses == 0) return curve;
  curve.miss_ratio_.resize(hits.size() + 1);
  curve.miss_ratio_[0] = 1.0;
  uint64_t mass = cold_misses;
  for (uint64_t h : hits) mass += h;
  // A non-empty window whose sample caught nothing yields the
  // pessimistic constant-1 curve rather than dividing by zero.
  if (mass == 0) {
    curve.miss_ratio_.assign(1, 1.0);
    return curve;
  }
  const double total = static_cast<double>(mass);
  uint64_t cumulative_hits = 0;
  for (size_t depth = 1; depth <= hits.size(); ++depth) {
    cumulative_hits += hits[depth - 1];
    curve.miss_ratio_[depth] =
        std::max(0.0, 1.0 - static_cast<double>(cumulative_hits) / total);
  }
  return curve;
}

MissRatioCurve MissRatioCurve::FromTrace(std::span<const PageId> trace) {
  FenwickMattsonStack stack(trace.size());
  for (PageId page : trace) stack.Access(page);
  return FromStack(stack);
}

MissRatioCurve MissRatioCurve::FromTrace(SpanPair<PageId> trace,
                                         const MrcConfig& config) {
  auto stack = MakeReplayStack(config, trace.size());
  return Replay(trace, *stack);
}

MissRatioCurve MissRatioCurve::Replay(SpanPair<PageId> trace,
                                      MattsonStack& stack) {
  stack.Reset();
  trace.ForEach([&stack](PageId page) { stack.Access(page); });
  return FromStack(stack);
}

std::unique_ptr<MattsonStack> MissRatioCurve::MakeReplayStack(
    const MrcConfig& config, size_t expected_accesses) {
  if (config.sample_rate < 1.0) {
    return std::make_unique<SampledMattsonStack>(config.sample_rate,
                                                 expected_accesses);
  }
  return std::make_unique<FenwickMattsonStack>(expected_accesses);
}

double MissRatioCurve::MissRatioAt(uint64_t pages) const {
  if (miss_ratio_.empty()) return 1.0;
  if (pages >= miss_ratio_.size()) return miss_ratio_.back();
  return miss_ratio_[pages];
}

MrcParameters MissRatioCurve::ComputeParameters(const MrcConfig& config) const {
  MrcParameters params;
  const uint64_t cap = config.max_server_pages;
  const double floor = MissRatioAt(cap);
  // Total memory needed: smallest size (<= cap) already at the floor.
  uint64_t total = cap;
  for (uint64_t m = 0; m <= std::min<uint64_t>(cap, max_pages()); ++m) {
    if (MissRatioAt(m) <= floor + kFlattenEpsilon) {
      total = m;
      break;
    }
  }
  params.total_memory_pages = total;
  params.ideal_miss_ratio = MissRatioAt(total);
  // Acceptable memory: smallest size within threshold of ideal.
  const double acceptable_bound =
      params.ideal_miss_ratio + config.acceptable_threshold;
  uint64_t acceptable = total;
  for (uint64_t m = 0; m <= total; ++m) {
    if (MissRatioAt(m) <= acceptable_bound) {
      acceptable = m;
      break;
    }
  }
  params.acceptable_memory_pages = acceptable;
  params.acceptable_miss_ratio = MissRatioAt(acceptable);
  return params;
}

bool MissRatioCurve::SignificantChange(const MrcParameters& stable,
                                       const MrcParameters& current) {
  auto changed = [](uint64_t before, uint64_t now) {
    const uint64_t abs_delta = now > before ? now - before : before - now;
    // Small working sets jitter by large *relative* amounts while being
    // irrelevant in absolute terms; require a change that also matters
    // against pool sizes (half a typical minimum quota times 4).
    if (abs_delta < 512) return false;
    if (before == 0) return true;
    return static_cast<double>(abs_delta) / static_cast<double>(before) >
           kSignificantChangeFraction;
  };
  return changed(stable.total_memory_pages, current.total_memory_pages) ||
         changed(stable.acceptable_memory_pages,
                 current.acceptable_memory_pages);
}

}  // namespace fglb

#include "mrc/mattson_stack.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "mrc/miss_ratio_curve.h"
#include "mrc/mrc_tracker.h"
#include "mrc/sampled_mattson_stack.h"
#include "storage/buffer_pool.h"

namespace fglb {
namespace {

std::vector<PageId> MakeZipfTrace(uint64_t pages, double theta, size_t n,
                                  uint64_t seed) {
  Rng rng(seed);
  ZipfGenerator zipf(pages, theta);
  std::vector<PageId> trace;
  trace.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    trace.push_back(MakePageId(1, ScrambleToDomain(zipf.Sample(rng), pages)));
  }
  return trace;
}

std::vector<PageId> MakeScanTrace(uint64_t region, int repetitions) {
  std::vector<PageId> trace;
  for (int r = 0; r < repetitions; ++r) {
    for (uint64_t i = 0; i < region; ++i) trace.push_back(MakePageId(2, i));
  }
  return trace;
}

TEST(MattsonStackTest, FirstAccessIsColdMiss) {
  ListMattsonStack stack;
  EXPECT_EQ(stack.Access(MakePageId(1, 1)), 0u);
  EXPECT_EQ(stack.cold_misses(), 1u);
  EXPECT_EQ(stack.total_accesses(), 1u);
}

TEST(MattsonStackTest, ImmediateReuseHasDepthOne) {
  ListMattsonStack stack;
  stack.Access(MakePageId(1, 1));
  EXPECT_EQ(stack.Access(MakePageId(1, 1)), 1u);
  ASSERT_GE(stack.hit_counts().size(), 1u);
  EXPECT_EQ(stack.hit_counts()[0], 1u);
}

TEST(MattsonStackTest, DepthCountsDistinctIntermediatePages) {
  ListMattsonStack stack;
  stack.Access(MakePageId(1, 1));
  stack.Access(MakePageId(1, 2));
  stack.Access(MakePageId(1, 3));
  // Page 1 has two distinct pages above it: depth 3.
  EXPECT_EQ(stack.Access(MakePageId(1, 1)), 3u);
}

TEST(MattsonStackTest, RepeatedIntermediateDoesNotInflateDepth) {
  ListMattsonStack stack;
  stack.Access(MakePageId(1, 1));
  stack.Access(MakePageId(1, 2));
  stack.Access(MakePageId(1, 2));
  stack.Access(MakePageId(1, 2));
  EXPECT_EQ(stack.Access(MakePageId(1, 1)), 2u);
}

// Property: the Fenwick implementation is exactly equivalent to the
// list oracle on random traces.
class MattsonEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, size_t>> {
};

TEST_P(MattsonEquivalenceTest, FenwickMatchesListOracle) {
  const auto [pages, theta, n] = GetParam();
  const std::vector<PageId> trace = MakeZipfTrace(pages, theta, n, 99 + n);
  ListMattsonStack list;
  FenwickMattsonStack fenwick;
  for (PageId p : trace) {
    const uint64_t a = list.Access(p);
    const uint64_t b = fenwick.Access(p);
    ASSERT_EQ(a, b);
  }
  EXPECT_EQ(list.cold_misses(), fenwick.cold_misses());
  EXPECT_EQ(list.hit_counts(), fenwick.hit_counts());
  EXPECT_EQ(list.distinct_pages(), fenwick.distinct_pages());
}

INSTANTIATE_TEST_SUITE_P(
    Traces, MattsonEquivalenceTest,
    ::testing::Values(std::make_tuple(16, 0.0, 500),
                      std::make_tuple(64, 0.9, 2000),
                      std::make_tuple(500, 1.2, 5000),
                      std::make_tuple(2000, 0.5, 20000),
                      std::make_tuple(8, 0.99, 10000)));

// Property: for every cache size m, the hit count predicted by the
// stack algorithm equals what a real LRU buffer pool of size m
// achieves on the same trace (the inclusion property in action).
class MrcLruConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MrcLruConsistencyTest, CurvePredictsRealLru) {
  const uint64_t cache_pages = GetParam();
  const std::vector<PageId> trace = MakeZipfTrace(300, 0.8, 8000, 7);
  const MissRatioCurve curve = MissRatioCurve::FromTrace(trace);

  BufferPool pool(cache_pages);
  for (PageId p : trace) pool.Access(p);
  const double real_miss_ratio = pool.stats().miss_ratio();
  EXPECT_NEAR(curve.MissRatioAt(cache_pages), real_miss_ratio, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(CacheSizes, MrcLruConsistencyTest,
                         ::testing::Values(1, 2, 5, 10, 50, 100, 200, 400));

TEST(MissRatioCurveTest, EmptyTrace) {
  const MissRatioCurve curve = MissRatioCurve::FromTrace({});
  EXPECT_TRUE(curve.empty());
  EXPECT_DOUBLE_EQ(curve.MissRatioAt(0), 1.0);
  EXPECT_DOUBLE_EQ(curve.MissRatioAt(100), 1.0);
}

TEST(MissRatioCurveTest, ZeroCacheMissesEverything) {
  const std::vector<PageId> trace = MakeZipfTrace(100, 0.9, 1000, 3);
  const MissRatioCurve curve = MissRatioCurve::FromTrace(trace);
  EXPECT_DOUBLE_EQ(curve.MissRatioAt(0), 1.0);
}

TEST(MissRatioCurveTest, MonotoneNonIncreasing) {
  const std::vector<PageId> trace = MakeZipfTrace(400, 1.0, 20000, 5);
  const MissRatioCurve curve = MissRatioCurve::FromTrace(trace);
  double last = 1.0;
  for (uint64_t m = 0; m <= curve.max_pages() + 10; ++m) {
    const double mr = curve.MissRatioAt(m);
    EXPECT_LE(mr, last + 1e-12);
    last = mr;
  }
}

TEST(MissRatioCurveTest, FloorIsColdMissRatio) {
  const std::vector<PageId> trace = MakeZipfTrace(50, 0.5, 5000, 11);
  const MissRatioCurve curve = MissRatioCurve::FromTrace(trace);
  // With a cache bigger than every reuse distance, only cold misses
  // remain: 50 distinct pages out of 5000 accesses.
  EXPECT_NEAR(curve.MissRatioAt(1000), 50.0 / 5000.0, 1e-12);
}

TEST(MissRatioCurveTest, ScanHasCliffAtRegionSize) {
  // A repeated scan of R pages has miss ratio ~1 for caches < R and
  // ~cold-only for caches >= R.
  const uint64_t region = 64;
  const MissRatioCurve curve =
      MissRatioCurve::FromTrace(MakeScanTrace(region, 10));
  EXPECT_GT(curve.MissRatioAt(region - 1), 0.9);
  EXPECT_LT(curve.MissRatioAt(region), 0.2);
}

TEST(MrcParametersTest, HotWorkloadNeedsLittleAcceptableMemory) {
  const std::vector<PageId> trace = MakeZipfTrace(2000, 1.2, 30000, 13);
  const MissRatioCurve curve = MissRatioCurve::FromTrace(trace);
  MrcConfig config;
  config.max_server_pages = 4096;
  const MrcParameters params = curve.ComputeParameters(config);
  EXPECT_GT(params.total_memory_pages, 0u);
  EXPECT_LE(params.acceptable_memory_pages, params.total_memory_pages);
  EXPECT_GE(params.acceptable_miss_ratio, params.ideal_miss_ratio);
  EXPECT_LE(params.acceptable_miss_ratio,
            params.ideal_miss_ratio + config.acceptable_threshold + 1e-12);
  // Hot zipf: much less than the whole footprint suffices.
  EXPECT_LT(params.acceptable_memory_pages, 2000u);
}

TEST(MrcParametersTest, CappedByServerMemory) {
  const std::vector<PageId> trace = MakeScanTrace(5000, 3);
  const MissRatioCurve curve = MissRatioCurve::FromTrace(trace);
  MrcConfig config;
  config.max_server_pages = 1000;
  const MrcParameters params = curve.ComputeParameters(config);
  EXPECT_LE(params.total_memory_pages, 1000u);
}

TEST(MrcParametersTest, SignificantChangeDetection) {
  MrcParameters stable;
  stable.total_memory_pages = 4000;
  stable.acceptable_memory_pages = 2000;
  MrcParameters same = stable;
  EXPECT_FALSE(MissRatioCurve::SignificantChange(stable, same));
  MrcParameters bigger = stable;
  bigger.acceptable_memory_pages = 3100;  // +55%
  EXPECT_TRUE(MissRatioCurve::SignificantChange(stable, bigger));
  // Shrinkage beyond the threshold also counts (the paper's no-index
  // BestSeller case: acceptable memory 6982 -> 3695).
  MrcParameters smaller = stable;
  smaller.total_memory_pages = 1000;
  smaller.acceptable_memory_pages = 500;
  EXPECT_TRUE(MissRatioCurve::SignificantChange(stable, smaller));
  MrcParameters slightly = stable;
  slightly.total_memory_pages = 4400;  // +10% < 50% threshold
  EXPECT_FALSE(MissRatioCurve::SignificantChange(stable, slightly));
  MrcParameters slightly_down = stable;
  slightly_down.acceptable_memory_pages = 1500;  // -25% < 50% threshold
  EXPECT_FALSE(MissRatioCurve::SignificantChange(stable, slightly_down));
}

TEST(MrcTrackerTest, NewClassIsSuspect) {
  MrcConfig config;
  MrcTracker tracker(config);
  EXPECT_FALSE(tracker.has_stable());
  const auto rec = tracker.Recompute(MakeZipfTrace(100, 0.9, 3000, 17));
  EXPECT_TRUE(rec.suspect);
}

TEST(MrcTrackerTest, UnchangedPatternNotSuspect) {
  MrcConfig config;
  MrcTracker tracker(config);
  tracker.SetStableFromTrace(MakeZipfTrace(500, 0.9, 20000, 19));
  ASSERT_TRUE(tracker.has_stable());
  // Same distribution, different sample.
  const auto rec = tracker.Recompute(MakeZipfTrace(500, 0.9, 20000, 23));
  EXPECT_FALSE(rec.suspect);
}

TEST(MrcTrackerTest, GrownWorkingSetIsSuspect) {
  MrcConfig config;
  MrcTracker tracker(config);
  tracker.SetStableFromTrace(MakeZipfTrace(300, 0.9, 20000, 29));
  // Working set grows 10x.
  const auto rec = tracker.Recompute(MakeZipfTrace(3000, 0.3, 20000, 31));
  EXPECT_TRUE(rec.suspect);
}

TEST(SampledMattsonStackTest, RateStepCorrectionRecomputedPerSnapshot) {
  // Regression for adjusted-mass drift: the SHARDS-adj residual must be
  // recomputed from the snapshot's own totals every time hit_counts()
  // is read, not cached at the first read. Scenario: snapshot
  // mid-stream, then a rate step — the class keeps referencing pages,
  // but only ones outside the spatial sample, so the exact reference
  // count grows while the sampled mass stands still. A cached
  // correction would under-count all post-snapshot mass.
  const double kRate = 0.25;
  SampledMattsonStack stepped(kRate);
  ASSERT_EQ(stepped.scale(), 4u);

  std::vector<PageId> unsampled;
  for (uint64_t i = 0; unsampled.size() < 64; ++i) {
    const PageId page = MakePageId(3, i);
    if (!stepped.InSample(page)) unsampled.push_back(page);
  }

  std::vector<PageId> trace = MakeZipfTrace(1000, 0.8, 8000, 47);
  for (PageId p : trace) stepped.Access(p);
  // First snapshot (materializes the scaled view once).
  const std::vector<uint64_t> first = stepped.hit_counts();
  EXPECT_EQ(stepped.total_accesses(), 8000u);
  const int64_t phase1_residual =
      8000 - static_cast<int64_t>(4 * stepped.sampled_accesses());

  // Rate step: 8000 more references, none visible to the sample.
  Rng rng(53);
  for (int i = 0; i < 8000; ++i) {
    const PageId p = unsampled[rng.NextUint64(unsampled.size())];
    stepped.Access(p);
    trace.push_back(p);
  }
  const std::vector<uint64_t>& second = stepped.hit_counts();

  // Differential reference: a fresh stack fed the whole trace in one
  // go (it never took a mid-stream snapshot, so a stale cached
  // correction in `stepped` would show up as a histogram mismatch).
  SampledMattsonStack fresh(kRate);
  for (PageId p : trace) fresh.Access(p);
  EXPECT_EQ(second, fresh.hit_counts());
  EXPECT_EQ(stepped.cold_misses(), fresh.cold_misses());
  EXPECT_EQ(stepped.total_accesses(), fresh.total_accesses());

  // The post-step sample is in deficit (the step added mass the sample
  // never saw), so the folded residual must restore exact mass
  // conservation: scaled hits + scaled cold == true reference count.
  uint64_t mass = stepped.cold_misses();
  for (uint64_t h : second) mass += h;
  EXPECT_EQ(mass, stepped.total_accesses());
  // And the correction moved with the step: at scale 4 the raw
  // histogram never lands in bucket 0, so the second snapshot's bucket
  // 0 is exactly the recomputed residual — the step's 8000 unseen
  // references plus whatever deficit/excess phase 1 left behind.
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(static_cast<int64_t>(second[0]), phase1_residual + 8000);
}

TEST(MrcTrackerTest, AdoptSilencesSuspicion) {
  MrcConfig config;
  MrcTracker tracker(config);
  tracker.SetStableFromTrace(MakeZipfTrace(300, 0.9, 20000, 37));
  const auto rec = tracker.Recompute(MakeZipfTrace(3000, 0.3, 20000, 41));
  ASSERT_TRUE(rec.suspect);
  tracker.AdoptAsStable(rec);
  const auto again = tracker.Recompute(MakeZipfTrace(3000, 0.3, 20000, 43));
  EXPECT_FALSE(again.suspect);
}

}  // namespace
}  // namespace fglb

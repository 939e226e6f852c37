// Tests for the Belady/OPT oracle: hand-computed tiny traces, the
// OPT <= LRU dominance at every cache size, agreement of the Fenwick
// forward-distance sweep with an O(n^2) brute force, and the regret
// helper's clamping.

#include <algorithm>
#include <ostream>
#include <span>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "mrc/miss_ratio_curve.h"
#include "mrc/opt_oracle.h"

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

std::vector<PageId> Pages(std::initializer_list<uint64_t> ids) {
  std::vector<PageId> trace;
  for (uint64_t id : ids) trace.push_back(MakePageId(1, id));
  return trace;
}

// --- Hand-computed tiny traces ---

TEST(OptOracleTest, CyclicTraceMatchesHandComputation) {
  // a b c a b c with 2 frames: Belady misses a,b,c, then keeps `a`
  // (evicting b, whose reuse is farther), hits a, misses b (evicts the
  // now-dead a), hits c — 4 misses. LRU thrashes to 6.
  const std::vector<PageId> trace = Pages({1, 2, 3, 1, 2, 3});
  EXPECT_DOUBLE_EQ(OptMissRatioAt(trace, 1), 1.0);
  EXPECT_DOUBLE_EQ(OptMissRatioAt(trace, 2), 4.0 / 6.0);
  EXPECT_DOUBLE_EQ(OptMissRatioAt(trace, 3), 3.0 / 6.0);
  EXPECT_DOUBLE_EQ(OptMissRatioAt(trace, 100), 3.0 / 6.0);
  const MissRatioCurve lru =
      MissRatioCurve::FromTrace(std::span<const PageId>(trace));
  EXPECT_DOUBLE_EQ(lru.MissRatioAt(2), 1.0);  // the classic LRU loop worst case
}

TEST(OptOracleTest, BeladyClassicExampleMatchesHandComputation) {
  // The canonical OPT example (Silberschatz): the reference string
  // 7 0 1 2 0 3 0 4 2 3 0 3 2 1 2 0 1 7 0 1 with 3 frames incurs
  // exactly 9 page faults under Belady's algorithm.
  const std::vector<PageId> trace = Pages(
      {7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1});
  EXPECT_DOUBLE_EQ(OptMissRatioAt(trace, 3), 9.0 / 20.0);
}

TEST(OptOracleTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(OptMissRatioAt({}, 4), 1.0);
  const std::vector<PageId> one = Pages({5});
  EXPECT_DOUBLE_EQ(OptMissRatioAt(one, 0), 1.0);
  EXPECT_DOUBLE_EQ(OptMissRatioAt(one, 1), 1.0);
  const std::vector<PageId> repeats = Pages({5, 5, 5, 5});
  EXPECT_DOUBLE_EQ(OptMissRatioAt(repeats, 1), 0.25);
}

TEST(OptOracleTest, ForwardDistancesOnTinyTrace) {
  // a b a c b a: next-use marks by hand.
  const std::vector<PageId> trace = Pages({1, 2, 1, 3, 2, 1});
  const std::vector<uint64_t> d = OptForwardDistances(trace);
  ASSERT_EQ(d.size(), trace.size());
  EXPECT_EQ(d[0], 1u);          // a..a spans {b}
  EXPECT_EQ(d[1], 2u);          // b..b spans {a, c}
  EXPECT_EQ(d[2], 2u);          // a..a spans {c, b}
  EXPECT_EQ(d[3], kNoNextUse);  // c never recurs
  EXPECT_EQ(d[4], kNoNextUse);
  EXPECT_EQ(d[5], kNoNextUse);
}

// --- OPT dominance: no policy beats Belady ---

// Each case prints as its name, so the ctest name (which CMake builds
// from the printed parameter) is the same in every build; a bare
// function pointer would print as an ASLR-dependent address.
struct NamedTrace {
  const char* name;
  std::vector<PageId> (*make)();
};

void PrintTo(const NamedTrace& trace, std::ostream* os) { *os << trace.name; }

class OptDominanceTest : public ::testing::TestWithParam<NamedTrace> {};

std::vector<PageId> SkewedTrace() { return MakeZipfTrace(600, 0.9, 12000, 3); }
std::vector<PageId> UniformTrace() { return MakeZipfTrace(800, 0.0, 12000, 5); }
std::vector<PageId> ScanTrace() {
  std::vector<PageId> trace;
  for (int r = 0; r < 15; ++r) {
    for (uint64_t i = 0; i < 700; ++i) trace.push_back(MakePageId(2, i));
  }
  return trace;
}

TEST_P(OptDominanceTest, OptNeverExceedsLruAtAnyCacheSize) {
  const std::vector<PageId> trace = GetParam().make();
  const MissRatioCurve lru =
      MissRatioCurve::FromTrace(std::span<const PageId>(trace));
  double previous = 1.0;
  for (uint64_t cache = 1; cache <= lru.max_pages() + 8; cache += 37) {
    const double opt = OptMissRatioAt(trace, cache);
    EXPECT_LE(opt, lru.MissRatioAt(cache) + 1e-12) << "cache " << cache;
    // Belady with more frames never does worse (simulation sanity).
    EXPECT_LE(opt, previous + 1e-12) << "cache " << cache;
    previous = opt;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Traces, OptDominanceTest,
    ::testing::Values(NamedTrace{"skewed", &SkewedTrace},
                      NamedTrace{"uniform", &UniformTrace},
                      NamedTrace{"scan", &ScanTrace}));

// --- Fenwick sweep vs brute force ---

// Brute-force definition: the forward distance of reference i is the
// number of distinct pages referenced strictly between i and the next
// use of trace[i] (kNoNextUse when the page never recurs).
std::vector<uint64_t> BruteForceDistances(const std::vector<PageId>& trace) {
  const size_t n = trace.size();
  std::vector<uint64_t> result(n, kNoNextUse);
  for (size_t i = 0; i < n; ++i) {
    size_t next = n;
    for (size_t j = i + 1; j < n; ++j) {
      if (trace[j] == trace[i]) {
        next = j;
        break;
      }
    }
    if (next == n) continue;
    std::unordered_set<PageId> between;
    for (size_t j = i + 1; j < next; ++j) between.insert(trace[j]);
    result[i] = between.size();
  }
  return result;
}

TEST(OptForwardDistanceTest, FenwickMatchesBruteForce) {
  for (const uint64_t seed : {41u, 43u, 47u}) {
    for (const uint64_t alphabet : {3u, 17u, 120u}) {
      Rng rng(seed);
      std::vector<PageId> trace;
      const size_t n = 512;
      for (size_t i = 0; i < n; ++i) {
        trace.push_back(MakePageId(1, rng.NextUint64(alphabet)));
      }
      const std::vector<uint64_t> fast = OptForwardDistances(trace);
      const std::vector<uint64_t> slow = BruteForceDistances(trace);
      ASSERT_EQ(fast.size(), slow.size());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(fast[i], slow[i])
            << "seed " << seed << " alphabet " << alphabet << " index " << i;
      }
    }
  }
}

// --- Regret ---

TEST(RegretVsOptTest, NonNegativeAndZeroWhenLruIsOptimal) {
  // On a pure repeat trace LRU is optimal, so regret clamps to 0.
  const std::vector<PageId> repeats = Pages({1, 2, 1, 2, 1, 2, 1, 2});
  const MissRatioCurve lru =
      MissRatioCurve::FromTrace(std::span<const PageId>(repeats));
  EXPECT_DOUBLE_EQ(RegretVsOpt(repeats, lru, 2), 0.0);

  // On the cyclic trace LRU pays 1.0 at 2 frames while OPT pays 4/6:
  // the regret is exactly the gap.
  const std::vector<PageId> cyclic = Pages({1, 2, 3, 1, 2, 3});
  const MissRatioCurve cyclic_lru =
      MissRatioCurve::FromTrace(std::span<const PageId>(cyclic));
  EXPECT_DOUBLE_EQ(RegretVsOpt(cyclic, cyclic_lru, 2), 1.0 - 4.0 / 6.0);
  EXPECT_GE(RegretVsOpt(cyclic, cyclic_lru, 3), 0.0);
}

}  // namespace
}  // namespace fglb

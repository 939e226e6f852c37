#include "common/random.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "workload/oltp.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace fglb {

// Reaches into ZipfTable and ZipfGenerator: one attempt at a chosen
// inversion point u, exact and by the table, and the table's thresholds.
class ZipfTableProbe {
 public:
  static constexpr uint64_t kRejected = ZipfGenerator::kRejected;
  static constexpr uint64_t kUndecided = ZipfTable::kUndecided;

  static double DrawU(const ZipfGenerator& zipf, Rng& rng) {
    return zipf.DrawU(rng);
  }
  static uint64_t Exact(const ZipfGenerator& zipf, double u) {
    return zipf.Attempt(u);
  }
  static uint64_t Decide(const ZipfTable& table, double u) {
    return table.Decide(u);
  }
  static double Guard(const ZipfTable& table) { return table.guard_; }
  // The range of u: (H(1.5) - 1, H(n + 0.5)].
  static std::pair<double, double> URange(const ZipfGenerator& zipf) {
    return {zipf.h_integral_x1_, zipf.h_integral_num_elements_};
  }
  // Every finite threshold: each rank's lower edge and acceptance
  // threshold.
  static std::vector<double> Thresholds(const ZipfTable& table) {
    std::vector<double> out;
    for (const ZipfTable::Rank& rank : table.ranks_) {
      for (double t : {rank.lower, rank.accept}) {
        if (std::isfinite(t)) out.push_back(t);
      }
    }
    return out;
  }
};

namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 90);
}

TEST(RngTest, NextUint64InRange) {
  Rng rng(7);
  for (uint64_t n : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextUint64(n), n);
  }
}

TEST(RngTest, NextUint64CoversSmallDomain) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextUint64(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(9);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.1);
}

TEST(RngTest, NormalMeanAndSpread) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(19);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::map<size_t, int> counts;
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.Discrete(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.02);
}

TEST(ZipfTest, SamplesWithinDomain) {
  Rng rng(23);
  ZipfGenerator zipf(1000, 0.99);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(zipf.Sample(rng), 1000u);
}

TEST(ZipfTest, RankZeroMostPopular) {
  Rng rng(29);
  ZipfGenerator zipf(10000, 1.1);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  // Rank 0 should dominate rank 100 which dominates rank 5000.
  EXPECT_GT(counts[0], counts[100]);
  EXPECT_GT(counts[100], counts[5000]);
}

TEST(ZipfTest, ThetaZeroIsRoughlyUniform) {
  Rng rng(31);
  ZipfGenerator zipf(10, 0.0);
  std::map<uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (const auto& [value, count] : counts) {
    EXPECT_NEAR(count / static_cast<double>(n), 0.1, 0.02)
        << "value " << value;
  }
}

TEST(ZipfTest, SkewMatchesTheory) {
  // With theta close to 1 the top rank's share over n items is about
  // 1 / H_n; check order of magnitude.
  Rng rng(37);
  const uint64_t n = 1000;
  ZipfGenerator zipf(n, 0.99);
  int top = 0;
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) top += (zipf.Sample(rng) == 0);
  const double share = static_cast<double>(top) / samples;
  EXPECT_GT(share, 0.08);
  EXPECT_LT(share, 0.20);
}

TEST(ZipfTest, SingleElementDomain) {
  Rng rng(41);
  ZipfGenerator zipf(1, 0.9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

// --- Differential: ZipfTable vs ZipfGenerator ---

// Every (region, theta) a point lookup of the TPC-W, RUBiS and OLTP
// templates draws with, plus the smallest domains and both sides of
// the table's cap at theta 0, 1 and 1.5.
std::vector<std::pair<uint64_t, double>> ZipfGrid() {
  std::set<std::pair<uint64_t, double>> grid;
  for (const ApplicationSpec& app : {MakeTpcw(), MakeRubis(), MakeOltp()}) {
    for (const QueryTemplate& tmpl : app.templates) {
      for (const AccessComponent& c : tmpl.components) {
        if (c.kind == AccessComponent::Kind::kPointLookups) {
          grid.emplace(c.EffectiveRegionPages(), c.zipf_theta);
        }
      }
    }
  }
  for (uint64_t n : {uint64_t{2}, uint64_t{3}, ZipfTable::kMaxRanks,
                     ZipfTable::kMaxRanks + 1}) {
    for (double theta : {0.0, 1.0, 1.5}) grid.emplace(n, theta);
  }
  return {grid.begin(), grid.end()};
}

TEST(ZipfTableTest, EveryDrawAndRngStateMatchTheGenerator) {
  const int kDraws = 20000;
  uint64_t attempts = 0;
  uint64_t undecided = 0;
  for (const auto& [n, theta] : ZipfGrid()) {
    SCOPED_TRACE(::testing::Message() << "n " << n << " theta " << theta);
    const ZipfGenerator zipf(n, theta);
    const ZipfTable table(zipf);
    EXPECT_EQ(table.tabulated(), n <= ZipfTable::kMaxRanks);
    const uint64_t seed = n * 1000 + static_cast<uint64_t>(theta * 100);
    Rng got_rng(seed);
    Rng want_rng(seed);
    int mismatches = 0;
    for (int i = 0; i < kDraws; ++i) {
      mismatches += table.Sample(got_rng) != zipf.Sample(want_rng);
    }
    EXPECT_EQ(mismatches, 0);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(got_rng.Next(), want_rng.Next());
    if (!table.tabulated()) continue;
    // The same stream's attempts once more, counting those the table
    // left to the generator's arithmetic.
    Rng rng(seed);
    for (int i = 0; i < kDraws; ++i) {
      const double u = ZipfTableProbe::DrawU(zipf, rng);
      ++attempts;
      undecided += ZipfTableProbe::Decide(table, u) ==
                   ZipfTableProbe::kUndecided;
    }
  }
  std::printf("ZipfTable fell back on %llu of %llu attempts (%.2g)\n",
              static_cast<unsigned long long>(undecided),
              static_cast<unsigned long long>(attempts),
              static_cast<double>(undecided) / static_cast<double>(attempts));
  EXPECT_LT(undecided * 1000, attempts);
}

// `x` moved `ulps` representable doubles up (down when negative).
double StepUlps(double x, int64_t ulps) {
  // Doubles in order as integers: negative ones mirrored below zero.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  int64_t bits = std::bit_cast<int64_t>(x);
  if (bits < 0) bits = kMin - bits;
  bits += ulps;
  if (bits < 0) bits = kMin - bits;
  return std::bit_cast<double>(bits);
}

TEST(ZipfTableTest, SeamsDecideAsTheGenerator) {
  // At and next to each threshold the table must leave the attempt to
  // the generator or decide as it does; two guards out it decides.
  uint64_t points = 0;
  uint64_t decided = 0;
  for (const auto& [n, theta] : ZipfGrid()) {
    SCOPED_TRACE(::testing::Message() << "n " << n << " theta " << theta);
    const ZipfGenerator zipf(n, theta);
    const ZipfTable table(zipf);
    if (!table.tabulated()) continue;
    const auto [lo, hi] = ZipfTableProbe::URange(zipf);
    const double guard = ZipfTableProbe::Guard(table);
    int mismatches = 0;
    for (double t : ZipfTableProbe::Thresholds(table)) {
      std::vector<double> us = {t - 2 * guard, t + 2 * guard};
      for (int64_t ulps : {0, 1, 2, 1000}) {
        us.push_back(StepUlps(t, ulps));
        us.push_back(StepUlps(t, -ulps));
      }
      for (double u : us) {
        if (u < lo || u > hi) continue;
        ++points;
        const uint64_t verdict = ZipfTableProbe::Decide(table, u);
        if (verdict == ZipfTableProbe::kUndecided) continue;
        ++decided;
        if (verdict != ZipfTableProbe::Exact(zipf, u)) {
          ++mismatches;
          ADD_FAILURE() << "u " << u << " threshold " << t;
        }
        if (mismatches > 5) return;
      }
    }
  }
  std::printf("ZipfTable decided %llu of %llu seam points\n",
              static_cast<unsigned long long>(decided),
              static_cast<unsigned long long>(points));
  EXPECT_GT(decided, 0u);
}

TEST(ScrambleTest, BijectiveOnSmallDomains) {
  for (uint64_t n : {1ULL, 2ULL, 7ULL, 64ULL, 100ULL, 1000ULL}) {
    std::set<uint64_t> images;
    for (uint64_t v = 0; v < n; ++v) {
      const uint64_t image = ScrambleToDomain(v, n);
      EXPECT_LT(image, n);
      images.insert(image);
    }
    EXPECT_EQ(images.size(), n) << "n=" << n;
  }
}

TEST(ScrambleTest, DeterministicMapping) {
  for (uint64_t v = 0; v < 50; ++v) {
    EXPECT_EQ(ScrambleToDomain(v, 977), ScrambleToDomain(v, 977));
  }
}

TEST(ScrambleTest, SpreadsNeighbours) {
  // Consecutive inputs should not map to consecutive outputs (that is
  // the whole point: hot ranks spread over the region).
  const uint64_t n = 100000;
  int adjacent = 0;
  for (uint64_t v = 0; v + 1 < 200; ++v) {
    const uint64_t a = ScrambleToDomain(v, n);
    const uint64_t b = ScrambleToDomain(v + 1, n);
    if (a + 1 == b || b + 1 == a) ++adjacent;
  }
  EXPECT_LT(adjacent, 5);
}

}  // namespace
}  // namespace fglb

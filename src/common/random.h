#ifndef FGLB_COMMON_RANDOM_H_
#define FGLB_COMMON_RANDOM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fglb {

// Deterministic, seedable pseudo-random number generator
// (xoshiro256** by Blackman & Vigna). All stochastic behaviour in the
// simulator flows through instances of this class so that every
// experiment is reproducible from its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Raw 64 random bits.
  uint64_t Next() {
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, n). Requires n > 0.
  uint64_t NextUint64(uint64_t n);

  // Uniform integer in [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  // Exponentially distributed double with the given mean (> 0).
  double Exponential(double mean);

  // Normally distributed double (Box-Muller).
  double Normal(double mean, double stddev);

  // Bernoulli trial: true with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  // Binomial(n, p): number of successes in n trials. O(n*p + 1) via
  // geometric gaps between successes, so drawing "how many of a
  // million thinking clients wake this batch" does not cost a million
  // Bernoulli draws.
  uint64_t Binomial(uint64_t n, double p);

  // Samples an index in [0, weights.size()) proportionally to weights.
  // Requires a non-empty vector with a positive total weight.
  size_t Discrete(const std::vector<double>& weights);

 private:
  uint64_t s_[4];
};

// Zipf(theta) sampler over the domain [0, n). Uses Hormann's
// rejection-inversion method so sampling is O(1) regardless of n,
// which matters for multi-gigabyte table footprints (millions of
// pages). theta = 0 degenerates to uniform; theta around 0.8-1.2
// models typical hot/cold database page popularity.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta);

  uint64_t Sample(Rng& rng) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  friend class ZipfTable;
  friend class ZipfTableProbe;  // the differential test calls Attempt

  static constexpr uint64_t kRejected = ~uint64_t{0};

  // The inversion point of one attempt, in (H(1.5) - 1, H(n + 0.5)],
  // from exactly one NextDouble().
  double DrawU(Rng& rng) const {
    return h_integral_num_elements_ +
           rng.NextDouble() * (h_integral_x1_ - h_integral_num_elements_);
  }
  // One rejection-inversion attempt at `u`: the zero-based rank it
  // accepts, or kRejected.
  uint64_t Attempt(double u) const;
  double H(double x) const;
  double HInverse(double x) const;

  uint64_t n_;
  double theta_;
  double h_integral_x1_;
  double h_integral_num_elements_;
  double s_;
};

// The draws of one ZipfGenerator, decided by a table: same ranks, same
// Rng stream, at a fraction of the cost. An attempt's rank and verdict
// are thresholds on its inversion point u. Rank i + 1 (one-based) is
// drawn for u in [H(i + 0.5), H(i + 1.5)) (rank 1 for every u below
// H(1.5), rank n for every u from H(n - 0.5)), and accepted iff u is at
// least min(H(i + 1 - s), H(i + 1.5) - (i + 1)^-theta). The table holds
// those thresholds per rank, and a guide over u finds the rank in
// about one step. A u within a guard band of its rank's thresholds,
// far wider than the few-ulp error of the generator's own H and
// HInverse, runs the generator's arithmetic instead, so no draw can
// come out differently. Domains of one rank or above kMaxRanks keep
// the generator's path.
class ZipfTable {
 public:
  static constexpr uint64_t kMaxRanks = uint64_t{1} << 16;

  explicit ZipfTable(const ZipfGenerator& zipf);

  uint64_t Sample(Rng& rng) const;

  bool tabulated() const { return !ranks_.empty(); }

 private:
  friend class ZipfTableProbe;  // the differential test reads the table

  // Decide's verdict for a u within the guard band of a threshold.
  static constexpr uint64_t kUndecided = ZipfGenerator::kRejected - 1;

  // Zero-based rank i: its lower edge in u (-inf for rank 0) and its
  // acceptance threshold. One extra entry holds the last rank's upper
  // edge, +inf.
  struct Rank {
    double lower = 0;
    double accept = 0;
  };

  // The table's verdict on one attempt at `u`: the rank the
  // generator's Attempt returns, or kUndecided.
  uint64_t Decide(double u) const;
  size_t Bucket(double u) const;

  ZipfGenerator zipf_;
  std::vector<Rank> ranks_;
  // Bucket b of u's range -> the lowest rank a u in it can have.
  std::vector<uint16_t> guide_;
  double guide_lo_ = 0;
  double guide_scale_ = 0;
  double guard_ = 0;
};

// Scrambles a Zipf rank into a page id within [0, n) so that hot pages
// are spread across the table instead of clustered at its start.
// Bijective for any n (cycle-walking on a mixed 64-bit permutation).
uint64_t ScrambleToDomain(uint64_t value, uint64_t n);

}  // namespace fglb

#endif  // FGLB_COMMON_RANDOM_H_

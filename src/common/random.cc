#include "common/random.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>

namespace fglb {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Stafford variant 13 of the 64-bit finalizer; bijective on uint64_t.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::NextUint64(uint64_t n) {
  assert(n > 0);
  // Rejection to avoid modulo bias.
  const uint64_t threshold = -n % n;
  for (;;) {
    const uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextUint64(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::Exponential(double mean) {
  assert(mean > 0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  double u1 = NextDouble();
  if (u1 <= 0) u1 = 0x1.0p-53;
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

uint64_t Rng::Binomial(uint64_t n, double p) {
  if (n == 0 || p <= 0) return 0;
  if (p >= 1) return n;
  // Walk the trial sequence by Geometric(p) gaps: each gap lands on
  // the next success. Expected iterations: n*p + 1.
  const double log_q = std::log1p(-p);  // < 0
  uint64_t count = 0;
  double position = 0;
  while (true) {
    double u = NextDouble();
    if (u <= 0) u = 0x1.0p-53;
    position += std::floor(std::log(u) / log_q) + 1;
    if (position > static_cast<double>(n)) break;
    ++count;
  }
  return count;
}

size_t Rng::Discrete(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0;
  for (double w : weights) total += w;
  assert(total > 0);
  double x = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0) return i;
  }
  return weights.size() - 1;
}

// --- ZipfGenerator (Hormann rejection-inversion) ---
//
// Follows W. Hormann and G. Derflinger, "Rejection-inversion to generate
// variates from monotone discrete distributions" (1996), as popularized
// by the Apache Commons RejectionInversionZipfSampler. Samples ranks in
// [1, n] with P(k) proportional to 1/k^theta, returned zero-based.

namespace {

// Computes (exp(x) - 1) / x with stable behaviour near x = 0.
double Helper1(double x) {
  if (std::fabs(x) > 1e-8) return std::expm1(x) / x;
  return 1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + x * 0.25));
}

// Computes log(1 + x) / x with stable behaviour near x = 0.
double Helper2(double x) {
  if (std::fabs(x) > 1e-8) return std::log1p(x) / x;
  return 1.0 - x * (0.5 - x * (1.0 / 3.0 - x * 0.25));
}

}  // namespace

ZipfGenerator::ZipfGenerator(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  assert(n > 0);
  assert(theta >= 0);
  // H is the integral of the density h(x) = 1/x^theta.
  h_integral_x1_ = H(1.5) - 1.0;
  h_integral_num_elements_ = H(static_cast<double>(n) + 0.5);
  s_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -theta));
}

double ZipfGenerator::H(double x) const {
  // Integral of x^-theta: ((x^(1-theta)) - 1) / (1-theta), expressed
  // as helper1((1-theta) ln x) * ln x for stability near theta = 1.
  const double log_x = std::log(x);
  return Helper1((1.0 - theta_) * log_x) * log_x;
}

double ZipfGenerator::HInverse(double x) const {
  const double t = x * (1.0 - theta_);
  // Clamp to keep log1p's argument above -1 in the face of rounding.
  const double tt = t < -1.0 ? -1.0 : t;
  return std::exp(Helper2(tt) * x);
}

uint64_t ZipfGenerator::Attempt(double u) const {
  const double x = HInverse(u);
  double k = x + 0.5;
  if (k < 1.0) k = 1.0;
  if (k > static_cast<double>(n_)) k = static_cast<double>(n_);
  const uint64_t ki = static_cast<uint64_t>(k);
  const double kd = static_cast<double>(ki);
  if (kd - x <= s_ ||
      u >= H(kd + 0.5) - std::exp(-theta_ * std::log(kd))) {
    return ki - 1;
  }
  return kRejected;
}

uint64_t ZipfGenerator::Sample(Rng& rng) const {
  if (n_ == 1) return 0;
  for (;;) {
    const uint64_t rank = Attempt(DrawU(rng));
    if (rank != kRejected) return rank;
  }
}

// --- ZipfTable ---
//
// In exact arithmetic an attempt at u draws rank k (one-based) =
// 1 + #{j in [1, n) : u >= H(j + 0.5)}, since HInverse(u) + 0.5 >= j + 1
// iff u >= H(j + 0.5), and accepts iff k - HInverse(u) <= s (that is,
// u >= H(k - s), or always when k <= s) or u >= H(k + 0.5) - k^-theta:
// iff u >= the smaller of the two. The generator's double H and
// HInverse are off by a few ulps, which shifts u against a threshold by
// about 10^-15 of the scale |H(n + 0.5)| + |H(1.5) - 1| + 1; the guard
// is 2^-30 of that scale. Farther than the guard from its rank's
// thresholds, u meets the generator's floating-point tests as it meets
// the exact ones, and the table decides; nearer, the generator does.

static_assert(ZipfTable::kMaxRanks - 1 <= UINT16_MAX,
              "guide entries are 16-bit ranks");

ZipfTable::ZipfTable(const ZipfGenerator& zipf) : zipf_(zipf) {
  const uint64_t n = zipf.n_;
  if (n < 2 || n > kMaxRanks) return;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ranks_.resize(n + 1);
  ranks_[0].lower = -kInf;
  for (uint64_t i = 0; i < n; ++i) {
    const double kd = static_cast<double>(i + 1);
    const double upper = zipf.H(kd + 0.5);
    if (i + 1 < n) ranks_[i + 1].lower = upper;
    const double reject_edge =
        upper - std::exp(-zipf.theta_ * std::log(kd));
    const double inversion_edge =
        kd - zipf.s_ > 0 ? zipf.H(kd - zipf.s_) : -kInf;
    ranks_[i].accept = std::min(inversion_edge, reject_edge);
  }
  ranks_[n] = Rank{kInf, kInf};

  const double lo = zipf.h_integral_x1_;
  const double hi = zipf.h_integral_num_elements_;
  guard_ = 0x1.0p-30 * (std::fabs(hi) + std::fabs(lo) + 1);
  // About four buckets per rank: u is uniform, so the scan from a
  // bucket's guide entry crosses an eighth of a rank edge on average.
  guide_.resize(4 * n);
  guide_lo_ = lo;
  guide_scale_ = static_cast<double>(guide_.size()) / (hi - lo);
  // Bucket() is monotone in u, so a u in bucket b lies above every edge
  // whose bucket is below b: the count of those is a lower bound on its
  // rank.
  size_t b = 0;
  for (uint64_t i = 1; i < n; ++i) {
    for (const size_t last = Bucket(ranks_[i].lower); b <= last; ++b) {
      guide_[b] = static_cast<uint16_t>(i - 1);
    }
  }
  for (; b < guide_.size(); ++b) guide_[b] = static_cast<uint16_t>(n - 1);
}

size_t ZipfTable::Bucket(double u) const {
  const double t = (u - guide_lo_) * guide_scale_;
  const size_t last = guide_.size() - 1;
  if (!(t > 0)) return 0;
  return t >= static_cast<double>(last) ? last : static_cast<size_t>(t);
}

uint64_t ZipfTable::Decide(double u) const {
  size_t i = guide_[Bucket(u)];
  while (u >= ranks_[i + 1].lower) ++i;
  const Rank& rank = ranks_[i];
  if (u - rank.lower < guard_ || ranks_[i + 1].lower - u <= guard_) {
    return kUndecided;
  }
  if (u - rank.accept >= guard_) return i;
  if (rank.accept - u > guard_) return ZipfGenerator::kRejected;
  return kUndecided;
}

uint64_t ZipfTable::Sample(Rng& rng) const {
  if (ranks_.empty()) return zipf_.Sample(rng);
  for (;;) {
    const double u = zipf_.DrawU(rng);
    uint64_t rank = Decide(u);
    if (rank == kUndecided) rank = zipf_.Attempt(u);
    if (rank != ZipfGenerator::kRejected) return rank;
  }
}

namespace {

// Balanced Feistel permutation on [0, 2^(2*half_bits)). Always a
// bijection regardless of the round function, so cycle-walking over it
// terminates (iterating a permutation from a point < n must return to
// that point, visiting another element < n on the way or ending there).
uint64_t Feistel(uint64_t v, int half_bits) {
  const uint64_t half_mask = (half_bits >= 64) ? ~0ULL
                                               : ((1ULL << half_bits) - 1);
  uint64_t left = (v >> half_bits) & half_mask;
  uint64_t right = v & half_mask;
  for (int round = 0; round < 4; ++round) {
    const uint64_t f =
        Mix64(right + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(round)) &
        half_mask;
    const uint64_t new_left = right;
    right = left ^ f;
    left = new_left;
  }
  return (left << half_bits) | right;
}

}  // namespace

uint64_t ScrambleToDomain(uint64_t value, uint64_t n) {
  assert(n > 0);
  if (n == 1) return 0;
  int bits = 2;  // even number of bits covering n
  while (bits < 64 && (1ULL << bits) < n) bits += 2;
  const int half_bits = bits / 2;
  uint64_t v = value % n;
  do {
    v = Feistel(v, half_bits);
  } while (v >= n);
  return v;
}

}  // namespace fglb

#include "common/metrics_registry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "common/json.h"

namespace fglb {

namespace {

size_t BucketFor(double microseconds) {
  if (!(microseconds > 0)) return 0;  // negatives and NaN land in bucket 0
  const uint64_t us = static_cast<uint64_t>(microseconds);
  const size_t width = static_cast<size_t>(std::bit_width(us));
  return std::min(width, LatencyHistogram::kNumBuckets - 1);
}

}  // namespace

void LatencyHistogram::Record(double microseconds) {
  if (!std::isfinite(microseconds) || microseconds < 0) microseconds = 0;
  buckets_[BucketFor(microseconds)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(microseconds, std::memory_order_relaxed);
  double seen = max_us_.load(std::memory_order_relaxed);
  while (microseconds > seen &&
         !max_us_.compare_exchange_weak(seen, microseconds,
                                        std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::BucketLowerBoundUs(size_t index) {
  return index == 0 ? 0.0
                    : static_cast<double>(uint64_t{1} << (index - 1));
}

double LatencyHistogram::BucketUpperBoundUs(size_t index) {
  return index == 0 ? 1.0 : static_cast<double>(uint64_t{1} << index);
}

double LatencyHistogram::Percentile(double p) const {
  p = std::clamp(p, 0.0, 1.0);
  uint64_t snapshot[kNumBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    snapshot[i] = buckets_[i].load(std::memory_order_relaxed);
    total += snapshot[i];
  }
  if (total == 0) return 0;
  const double target = p * static_cast<double>(total);
  double cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (snapshot[i] == 0) continue;
    const double next = cumulative + static_cast<double>(snapshot[i]);
    if (next >= target) {
      const double lo = BucketLowerBoundUs(i);
      const double hi = std::min(BucketUpperBoundUs(i), max_us());
      const double fraction =
          (target - cumulative) / static_cast<double>(snapshot[i]);
      return lo + std::max(0.0, hi - lo) * std::clamp(fraction, 0.0, 1.0);
    }
    cumulative = next;
  }
  return max_us();
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

void MetricsRegistry::ZeroGauges(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = gauges_.lower_bound(prefix);
       it != gauges_.end() && it->first.starts_with(prefix); ++it) {
    it->second->Set(0);
  }
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

MaxGauge* MetricsRegistry::max_gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = max_gauges_.find(name);
  if (it == max_gauges_.end()) {
    it = max_gauges_.emplace(name, std::make_unique<MaxGauge>()).first;
  }
  return it->second.get();
}

LatencyHistogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<LatencyHistogram>()).first;
  }
  return it->second.get();
}

size_t MetricsRegistry::counter_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size();
}

size_t MetricsRegistry::gauge_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_.size();
}

size_t MetricsRegistry::max_gauge_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_gauges_.size();
}

size_t MetricsRegistry::histogram_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_.size();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"v\":1,\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + JsonEscape(name) +
           "\":" + std::to_string(counter->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + JsonNumber(gauge->value());
  }
  for (const auto& [name, gauge] : max_gauges_) {
    if (!first) out += ',';
    first = false;
    // Reading a max gauge resets it: each snapshot reports the peak
    // since the previous one.
    out += "\"" + JsonEscape(name) + "\":" + JsonNumber(gauge->Take());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + JsonEscape(name) + "\":{\"count\":" +
           std::to_string(hist->count()) +
           ",\"sum_us\":" + JsonNumber(hist->sum_us()) +
           ",\"mean_us\":" + JsonNumber(hist->mean_us()) +
           ",\"p50_us\":" + JsonNumber(hist->Percentile(0.50)) +
           ",\"p95_us\":" + JsonNumber(hist->Percentile(0.95)) +
           ",\"p99_us\":" + JsonNumber(hist->Percentile(0.99)) +
           ",\"max_us\":" + JsonNumber(hist->max_us()) + ",\"buckets\":[";
    bool first_bucket = true;
    for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      const uint64_t n = hist->bucket_count(i);
      if (n == 0) continue;
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += "[" + JsonNumber(LatencyHistogram::BucketLowerBoundUs(i)) + "," +
             std::to_string(n) + "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

bool MetricsRegistry::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ToJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  return ok;
}

}  // namespace fglb

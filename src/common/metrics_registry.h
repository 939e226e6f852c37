#ifndef FGLB_COMMON_METRICS_REGISTRY_H_
#define FGLB_COMMON_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace fglb {

// Process-wide-cheap instrumentation primitives with hierarchical
// dotted names ("engine.bufferpool.misses", "controller.diagnose.mrc_us",
// "threadpool.queue_depth"). Every instrument is registered once
// (find-or-create under a lock, returning a stable pointer) and then
// updated lock-free with relaxed atomics; instrumented components hold
// the raw pointer, so the steady-state cost of a disabled subsystem is
// one null check and of an enabled one a single relaxed atomic op.
//
// The registry snapshot (`ToJson`/`WriteJson`) is the --metrics-out
// payload: one object with counters, gauges and histogram summaries.

// Monotonically increasing event count. `Set` exists for components
// that already maintain cumulative counters internally and publish them
// into the registry once per sampling interval (e.g. buffer-pool
// stats).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Set(uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-written instantaneous value (queue depth, utilization, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

// High-water mark since the last snapshot. A sampled gauge misses
// bursts between samples; a MaxGauge is updated from the hot path
// (CAS-max, lock-free) and reset to 0 by the snapshot that reads it,
// so each --metrics-out interval reports its true peak.
class MaxGauge {
 public:
  void Update(double value) {
    double seen = value_.load(std::memory_order_relaxed);
    while (value > seen &&
           !value_.compare_exchange_weak(seen, value,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  // Returns the peak and resets it (snapshot semantics).
  double Take() { return value_.exchange(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

// Fixed-bucket latency histogram over microseconds. Bucket 0 holds
// [0,1) us; bucket i >= 1 holds [2^(i-1), 2^i) us, so 40 buckets cover
// up to ~2^39 us (~6.4 simulated days) with the final bucket absorbing
// overflow. Updates are one relaxed fetch_add per bucket plus count/sum
// accumulation; `Percentile` interpolates linearly inside a bucket.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 40;

  void Record(double microseconds);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_us() const { return sum_us_.load(std::memory_order_relaxed); }
  double mean_us() const {
    const uint64_t n = count();
    return n > 0 ? sum_us() / static_cast<double>(n) : 0.0;
  }
  double max_us() const { return max_us_.load(std::memory_order_relaxed); }
  uint64_t bucket_count(size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

  // Lower bound (inclusive) / upper bound (exclusive) of a bucket, us.
  static double BucketLowerBoundUs(size_t index);
  static double BucketUpperBoundUs(size_t index);

  // p in [0, 1]; approximate quantile over the recorded distribution.
  double Percentile(double p) const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_us_{0};
  std::atomic<double> max_us_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create; the returned pointer is stable for the registry's
  // lifetime. A name must keep one instrument kind (registering
  // "x" as both counter and gauge is two distinct instruments in two
  // namespaces, not an error).
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  MaxGauge* max_gauge(const std::string& name);
  LatencyHistogram* histogram(const std::string& name);

  // Sets every gauge whose name starts with `prefix` to 0 (the
  // instruments of something that no longer exists).
  void ZeroGauges(const std::string& prefix);

  size_t counter_count() const;
  size_t gauge_count() const;
  size_t max_gauge_count() const;
  size_t histogram_count() const;

  // {"v":1,"counters":{...},"gauges":{...},"histograms":{name:
  //  {"count":..,"sum_us":..,"mean_us":..,"p50_us":..,"p95_us":..,
  //   "p99_us":..,"max_us":..,"buckets":[[lo_us,count],...]}}}
  // Max gauges are reported in "gauges" (their snapshot-and-reset
  // semantics make them gauges from the reader's point of view).
  std::string ToJson() const;
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<MaxGauge>> max_gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace fglb

#endif  // FGLB_COMMON_METRICS_REGISTRY_H_

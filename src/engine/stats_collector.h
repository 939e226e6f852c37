#ifndef FGLB_ENGINE_STATS_COLLECTOR_H_
#define FGLB_ENGINE_STATS_COLLECTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/metrics_registry.h"
#include "common/ring_window.h"
#include "common/span_pair.h"
#include "engine/metrics.h"
#include "storage/page.h"
#include "workload/query_class.h"

namespace fglb {

// Raw execution counters produced by running one query instance.
struct ExecutionCounters {
  uint64_t page_accesses = 0;
  // Physical page reads: random-read misses plus pages fetched by
  // read-ahead (InnoDB's "pages read").
  uint64_t buffer_misses = 0;
  // Random-read misses only (subset of buffer_misses). Logical hit
  // ratio of a class is (accesses - random_misses - read_aheads) /
  // accesses: one stall per random miss or extent fetch.
  uint64_t random_misses = 0;
  // I/O block requests issued: random reads + extent fetches + writes
  // (tier-2 hits included: an SSD read is still a block request).
  uint64_t io_requests = 0;
  // Random-read DRAM misses served by the second-tier block cache
  // (subset of buffer_misses, disjoint from random_misses): the page
  // was promoted from tier 2 at SSD latency instead of read from disk.
  // Always 0 without a configured tier.
  uint64_t tier2_hits = 0;
  uint64_t read_aheads = 0;
  uint64_t page_writes = 0;
  // Resource demands derived from the above.
  double cpu_seconds = 0;
  double io_seconds = 0;
  // Write-lock critical section: stripes to lock exclusively at commit
  // and how long the commit work holds them. Empty for read-only
  // queries (consistent reads are non-blocking, as in InnoDB MVCC).
  std::vector<PageId> write_stripes;
  double commit_seconds = 0;
  // Filled in by the replica at completion: time spent queued on locks.
  double lock_wait_seconds = 0;
};

// Fault-injected degradation of the statistics feed (the paper's
// per-thread logging buffers can be disabled or can lose data under
// load). Values match the sim-layer kStatsDropAll/kStatsPartial
// constants so the fault injector can pass modes as plain ints.
enum class StatsDropout {
  kNone = 0,
  kDropAll = 1,  // EndInterval reports nothing (collector offline)
  kPartial = 2,  // EndInterval reports only some classes (lossy buffers)
};

// Lightweight per-query-class statistics collection inside one engine
// (the paper instruments MySQL/InnoDB with per-thread private logging
// buffers; in this single-threaded simulation the collector accumulates
// directly — the data it yields is the same). Counters accumulate per
// measurement interval; a ring window additionally keeps the most
// recent page accesses per class for on-demand MRC recomputation.
class StatsCollector {
 public:
  explicit StatsCollector(size_t access_window_capacity = 30000);

  // Records a page reference into the class's recent-access window.
  void RecordPageAccess(ClassKey key, PageId page);

  // Resolve-once handle for the engine's per-query hot loop: one class
  // lookup per query instead of one map lookup per page access. Valid
  // as long as the collector lives (class states never move).
  class AccessRecorder {
   public:
    void Record(PageId page) { window_->Push(page); }

   private:
    friend class StatsCollector;
    explicit AccessRecorder(RingWindow<PageId>* window) : window_(window) {}
    RingWindow<PageId>* window_;
  };
  AccessRecorder RecorderFor(ClassKey key) {
    return AccessRecorder(&ClassState(key).window);
  }

  // Records a completed query with its end-to-end latency and counters.
  void RecordQuery(ClassKey key, double latency_seconds,
                   const ExecutionCounters& counters);

  // Ends the current measurement interval: returns per-class metric
  // vectors (averages/rates over `interval_seconds`) and resets
  // interval accumulators. Access windows persist across intervals.
  std::map<ClassKey, MetricVector> EndInterval(double interval_seconds);

  // Recent page accesses of a class, oldest first. Empty if unseen.
  std::vector<PageId> AccessWindow(ClassKey key) const;

  // Zero-copy wrap-aware snapshot of the same window (at most two
  // spans). Valid until the class's next RecordPageAccess; the MRC
  // recomputation path consumes this directly instead of copying the
  // window per diagnosis.
  SpanPair<PageId> AccessWindowSpans(ClassKey key) const;

  // Classes with any activity since construction.
  std::vector<ClassKey> KnownClasses() const;

  // Points RecordQuery at a queries counter and an end-to-end latency
  // histogram (microseconds). Null pointers unbind; the unbound path
  // costs one branch per completed query.
  void BindMetrics(Counter* queries, LatencyHistogram* latency_us) {
    queries_metric_ = queries;
    latency_us_metric_ = latency_us;
  }

  // Total queries completed since construction.
  uint64_t total_queries() const { return total_queries_; }

  // Degrades (or restores) what EndInterval reports. Accumulators keep
  // running regardless — only the reporting is lossy, so a restored
  // collector needs no warm-up.
  void set_dropout(StatsDropout mode) { dropout_ = mode; }
  StatsDropout dropout() const { return dropout_; }

 private:
  struct PerClass {
    // Interval accumulators.
    uint64_t queries = 0;
    double latency_sum = 0;
    uint64_t page_accesses = 0;
    uint64_t buffer_misses = 0;
    uint64_t io_requests = 0;
    uint64_t read_aheads = 0;
    double lock_wait_seconds = 0;
    // Recent accesses for MRC recomputation.
    RingWindow<PageId> window;

    explicit PerClass(size_t window_capacity) : window(window_capacity) {}
  };

  PerClass& ClassState(ClassKey key);

  size_t window_capacity_;
  std::map<ClassKey, std::unique_ptr<PerClass>> classes_;
  uint64_t total_queries_ = 0;
  Counter* queries_metric_ = nullptr;
  LatencyHistogram* latency_us_metric_ = nullptr;
  StatsDropout dropout_ = StatsDropout::kNone;
};

}  // namespace fglb

#endif  // FGLB_ENGINE_STATS_COLLECTOR_H_

#include "storage/buffer_pool.h"

#include <algorithm>
#include <list>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics_registry.h"
#include "common/random.h"
#include "storage/disk_model.h"
#include "storage/page.h"
#include "storage/partitioned_buffer_pool.h"
#include "workload/query_class.h"

namespace fglb {
namespace {

TEST(PageIdTest, PacksAndUnpacks) {
  const PageId p = MakePageId(7, 123456789);
  EXPECT_EQ(TableOf(p), 7);
  EXPECT_EQ(OffsetOf(p), 123456789u);
}

TEST(PageIdTest, DistinctTablesNeverCollide) {
  EXPECT_NE(MakePageId(1, 5), MakePageId(2, 5));
  EXPECT_NE(MakePageId(1, 0), MakePageId(0, 0));
}

TEST(BufferPoolTest, MissThenHit) {
  BufferPool pool(4);
  EXPECT_FALSE(pool.Access(MakePageId(1, 1)));
  EXPECT_TRUE(pool.Access(MakePageId(1, 1)));
  EXPECT_EQ(pool.stats().accesses, 2u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BufferPool pool(2);
  pool.Access(MakePageId(1, 1));
  pool.Access(MakePageId(1, 2));
  pool.Access(MakePageId(1, 1));  // refresh page 1
  pool.Access(MakePageId(1, 3));  // evicts page 2
  EXPECT_TRUE(pool.Contains(MakePageId(1, 1)));
  EXPECT_FALSE(pool.Contains(MakePageId(1, 2)));
  EXPECT_TRUE(pool.Contains(MakePageId(1, 3)));
  EXPECT_EQ(pool.stats().evictions, 1u);
}

TEST(BufferPoolTest, CapacityRespected) {
  BufferPool pool(8);
  for (uint64_t i = 0; i < 100; ++i) pool.Access(MakePageId(1, i));
  EXPECT_EQ(pool.resident_pages(), 8u);
}

TEST(BufferPoolTest, ZeroCapacityAlwaysMisses) {
  BufferPool pool(0);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(pool.Access(MakePageId(1, 1)));
  EXPECT_EQ(pool.resident_pages(), 0u);
  EXPECT_FALSE(pool.Insert(MakePageId(1, 2)));
}

TEST(BufferPoolTest, ResizeShrinkEvicts) {
  BufferPool pool(4);
  for (uint64_t i = 0; i < 4; ++i) pool.Access(MakePageId(1, i));
  pool.Resize(2);
  EXPECT_EQ(pool.resident_pages(), 2u);
  // The two most recently used survive.
  EXPECT_TRUE(pool.Contains(MakePageId(1, 2)));
  EXPECT_TRUE(pool.Contains(MakePageId(1, 3)));
}

TEST(BufferPoolTest, InsertDoesNotCountAccess) {
  BufferPool pool(4);
  EXPECT_TRUE(pool.Insert(MakePageId(1, 9)));
  EXPECT_EQ(pool.stats().accesses, 0u);
  EXPECT_EQ(pool.stats().prefetch_inserts, 1u);
  EXPECT_TRUE(pool.Access(MakePageId(1, 9)));  // prefetched page hits
}

TEST(BufferPoolTest, InsertExistingIsNoop) {
  BufferPool pool(4);
  pool.Access(MakePageId(1, 1));
  EXPECT_FALSE(pool.Insert(MakePageId(1, 1)));
  EXPECT_EQ(pool.stats().prefetch_inserts, 0u);
}

TEST(BufferPoolTest, ClearKeepsCounters) {
  BufferPool pool(4);
  pool.Access(MakePageId(1, 1));
  pool.Clear();
  EXPECT_EQ(pool.resident_pages(), 0u);
  EXPECT_EQ(pool.stats().accesses, 1u);
}

TEST(BufferPoolTest, LruOrderUnderMixedInsertAccess) {
  BufferPool pool(3);
  pool.Access(MakePageId(1, 1));
  pool.Insert(MakePageId(1, 2));
  pool.Access(MakePageId(1, 3));
  // MRU order: 3, 2, 1... Insert puts at MRU, then 3 accessed after.
  pool.Access(MakePageId(1, 4));  // evicts LRU = 1
  EXPECT_FALSE(pool.Contains(MakePageId(1, 1)));
  EXPECT_TRUE(pool.Contains(MakePageId(1, 2)));
}

// --- Differential: slot-threaded LRU vs a std::list LRU ---

// Oracle: the straightforward node-allocating LRU, a std::list in
// recency order plus a hash map into it. The pool must reproduce it op
// for op, evictions included.
class ReferenceLru {
 public:
  explicit ReferenceLru(uint64_t capacity) : capacity_(capacity) {}

  bool Access(PageId page) {
    ++stats_.accesses;
    auto it = map_.find(page);
    if (it != map_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      return true;
    }
    ++stats_.misses;
    if (capacity_ == 0) return false;
    lru_.push_front(page);
    map_[page] = lru_.begin();
    EvictIfNeeded();
    return false;
  }
  bool Insert(PageId page) {
    if (capacity_ == 0 || map_.contains(page)) return false;
    ++stats_.prefetch_inserts;
    lru_.push_front(page);
    map_[page] = lru_.begin();
    EvictIfNeeded();
    return true;
  }
  bool Contains(PageId page) const { return map_.contains(page); }
  bool Erase(PageId page) {
    auto it = map_.find(page);
    if (it == map_.end()) return false;
    lru_.erase(it->second);
    map_.erase(it);
    return true;
  }
  void Resize(uint64_t capacity) {
    capacity_ = capacity;
    EvictIfNeeded();
  }
  void Clear() {
    lru_.clear();
    map_.clear();
  }
  uint64_t resident_pages() const { return map_.size(); }
  const BufferPoolStats& stats() const { return stats_; }
  const std::vector<PageId>& evicted() const { return evicted_; }

 private:
  void EvictIfNeeded() {
    while (map_.size() > capacity_) {
      const PageId victim = lru_.back();
      map_.erase(victim);
      lru_.pop_back();
      ++stats_.evictions;
      evicted_.push_back(victim);
    }
  }

  uint64_t capacity_;
  BufferPoolStats stats_;
  std::list<PageId> lru_;
  std::unordered_map<PageId, std::list<PageId>::iterator> map_;
  std::vector<PageId> evicted_;
};

void ExpectSameStats(const BufferPoolStats& a, const BufferPoolStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.prefetch_inserts, b.prefetch_inserts);
}

// Pages from a universe about twice the capacity (so hits, misses and
// evictions all occur) that includes page 0 and ids differing only in
// their table bits.
std::vector<PageId> SpreadUniverse(uint64_t capacity) {
  const TableId tables[] = {0, 1, 0x8000, 0xFFFF};
  const uint64_t offsets = capacity / 2 + 3;
  std::vector<PageId> universe;
  for (TableId table : tables) {
    for (uint64_t offset = 0; offset < offsets; ++offset) {
      universe.push_back(MakePageId(table, offset));
    }
  }
  return universe;
}

// About twice the capacity in ids, in groups of 64 whose Fibonacci
// hashes (page * 0x9E3779B97F4A7C15, the pool's) share their top 32
// bits: a group shares one home slot at every table size, so its probe
// run is long and erasing from it shifts linked entries back.
std::vector<PageId> CollidingUniverse(uint64_t capacity) {
  constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  // Newton's iteration for the odd constant's inverse mod 2^64.
  uint64_t inverse = kGolden;
  for (int i = 0; i < 5; ++i) inverse *= 2 - kGolden * inverse;
  EXPECT_EQ(kGolden * inverse, 1u);
  const uint64_t groups = capacity / 32 + 1;
  std::vector<PageId> universe;
  for (uint64_t g = 0; g < groups; ++g) {
    const uint64_t top = (g * 0x9E3779B9ULL) & 0xFFFFFFFFULL;
    for (uint64_t j = 0; j < 64; ++j) {
      universe.push_back(((top << 32) | j) * inverse);
    }
  }
  return universe;
}

// Fills the pool past its capacity with distinct pages (each table
// doubling re-threads a live list; the overflow evicts), then runs a
// random op sequence, comparing with the reference after every op.
void RunDifferential(uint64_t capacity, uint64_t seed,
                     const std::vector<PageId>& universe) {
  SCOPED_TRACE(::testing::Message() << "capacity " << capacity << " seed "
                                    << seed);
  BufferPool pool(capacity);
  ReferenceLru reference(capacity);
  std::vector<PageId> evicted;
  pool.set_eviction_sink([&evicted](PageId page) { evicted.push_back(page); });

  size_t checked = 0;
  // Only this op's victims are new; earlier ones were checked already.
  auto expect_same = [&](int op) {
    ASSERT_EQ(pool.resident_pages(), reference.resident_pages())
        << "op " << op;
    ASSERT_EQ(evicted.size(), reference.evicted().size()) << "op " << op;
    for (; checked < evicted.size(); ++checked) {
      ASSERT_EQ(evicted[checked], reference.evicted()[checked])
          << "op " << op;
    }
    ExpectSameStats(pool.stats(), reference.stats());
  };

  const size_t fill = std::min(universe.size(), capacity + capacity / 4);
  for (size_t i = 0; i < fill; ++i) {
    ASSERT_EQ(pool.Access(universe[i]), reference.Access(universe[i]))
        << "fill " << i;
    ASSERT_NO_FATAL_FAILURE(expect_same(-1)) << "fill " << i;
  }

  Rng rng(seed);
  const int ops = 20000;
  for (int op = 0; op < ops; ++op) {
    const PageId page = universe[rng.NextUint64(universe.size())];
    const uint64_t roll = rng.NextUint64(1000);
    if (roll < 500) {
      ASSERT_EQ(pool.Access(page), reference.Access(page)) << "op " << op;
    } else if (roll < 650) {
      ASSERT_EQ(pool.Insert(page), reference.Insert(page)) << "op " << op;
    } else if (roll < 800) {
      ASSERT_EQ(pool.Contains(page), reference.Contains(page)) << "op " << op;
    } else if (roll < 950) {
      ASSERT_EQ(pool.Erase(page), reference.Erase(page)) << "op " << op;
    } else if (roll < 995) {
      // Shrink, grow, to zero, or back to the starting capacity.
      const uint64_t targets[] = {0, capacity / 2, capacity, 2 * capacity + 1};
      const uint64_t target = targets[rng.NextUint64(4)];
      pool.Resize(target);
      reference.Resize(target);
      ASSERT_EQ(pool.capacity(), target);
    } else {
      pool.Clear();
      reference.Clear();
    }
    ASSERT_NO_FATAL_FAILURE(expect_same(op));
  }
  // Draining to zero evicts everything left in LRU order, which pins
  // down the full recency list, not just the prefix evicted so far.
  pool.Resize(0);
  reference.Resize(0);
  EXPECT_EQ(evicted, reference.evicted());
  EXPECT_EQ(pool.resident_pages(), 0u);
}

TEST(BufferPoolDifferentialTest, MatchesListLruOnRandomOps) {
  for (uint64_t capacity : {0, 1, 2, 7, 64, 1000, 5000, 20000}) {
    for (uint64_t seed : {1, 2, 3}) {
      RunDifferential(capacity, seed, SpreadUniverse(capacity));
    }
  }
}

TEST(BufferPoolDifferentialTest, MatchesListLruOnCollidingIds) {
  for (uint64_t capacity : {1, 7, 64, 1000, 5000}) {
    for (uint64_t seed : {1, 2}) {
      RunDifferential(capacity, seed, CollidingUniverse(capacity));
    }
  }
}

TEST(PartitionedPoolTest, SharedByDefault) {
  PartitionedBufferPool pool(4);
  EXPECT_EQ(pool.shared_capacity(), 4u);
  EXPECT_FALSE(pool.Access(10, MakePageId(1, 1)));
  EXPECT_TRUE(pool.Access(11, MakePageId(1, 1)));  // same shared region
}

TEST(PartitionedPoolTest, QuotaCarvesOutShared) {
  PartitionedBufferPool pool(10);
  EXPECT_TRUE(pool.SetQuota(42, 4));
  EXPECT_EQ(pool.shared_capacity(), 6u);
  EXPECT_EQ(pool.QuotaOf(42), 4u);
  EXPECT_TRUE(pool.HasQuota(42));
}

TEST(PartitionedPoolTest, QuotaIsolation) {
  PartitionedBufferPool pool(4);
  ASSERT_TRUE(pool.SetQuota(1, 2));
  // Key 1's pages live in its partition; key 2's in shared. The same
  // page id is tracked independently per partition.
  pool.Access(1, MakePageId(1, 5));
  EXPECT_FALSE(pool.Access(2, MakePageId(1, 5)));
  EXPECT_TRUE(pool.Access(1, MakePageId(1, 5)));
}

TEST(PartitionedPoolTest, OverCommitRejected) {
  PartitionedBufferPool pool(10);
  EXPECT_TRUE(pool.SetQuota(1, 6));
  EXPECT_FALSE(pool.SetQuota(2, 5));
  EXPECT_EQ(pool.QuotaOf(2), 0u);
  EXPECT_TRUE(pool.SetQuota(2, 4));
}

TEST(PartitionedPoolTest, ResizeExistingQuota) {
  PartitionedBufferPool pool(10);
  ASSERT_TRUE(pool.SetQuota(1, 6));
  EXPECT_TRUE(pool.SetQuota(1, 8));  // grow within capacity
  EXPECT_EQ(pool.QuotaOf(1), 8u);
  EXPECT_EQ(pool.shared_capacity(), 2u);
}

TEST(PartitionedPoolTest, DropQuotaReturnsCapacity) {
  PartitionedBufferPool pool(10);
  ASSERT_TRUE(pool.SetQuota(1, 6));
  pool.DropQuota(1);
  EXPECT_FALSE(pool.HasQuota(1));
  EXPECT_EQ(pool.shared_capacity(), 10u);
}

TEST(PartitionedPoolTest, StatsPerPartition) {
  PartitionedBufferPool pool(8);
  ASSERT_TRUE(pool.SetQuota(1, 4));
  pool.Access(1, MakePageId(1, 1));
  pool.Access(2, MakePageId(1, 2));
  pool.Access(2, MakePageId(1, 2));
  EXPECT_EQ(pool.StatsOf(1).accesses, 1u);
  EXPECT_EQ(pool.StatsOf(2).accesses, 2u);
  EXPECT_EQ(pool.StatsOf(2).hits, 1u);
}

TEST(PartitionedPoolTest, SharedEvictionDoesNotTouchDedicated) {
  PartitionedBufferPool pool(6);
  ASSERT_TRUE(pool.SetQuota(1, 2));
  pool.Access(1, MakePageId(1, 100));
  // Flood the shared region (capacity 4).
  for (uint64_t i = 0; i < 50; ++i) pool.Access(2, MakePageId(2, i));
  EXPECT_TRUE(pool.Contains(1, MakePageId(1, 100)));
}

TEST(PartitionedPoolTest, DroppedPartitionPublishesZeroPages) {
  // A class that leaves the engine must stop reporting its partition,
  // and one dropped and set again before the next publish reports its
  // live partition.
  MetricsRegistry registry;
  PartitionedBufferPool pool(10);
  const PartitionKey key = MakeClassKey(2, 4);
  ASSERT_TRUE(pool.SetQuota(key, 4));
  pool.Access(key, MakePageId(1, 1));
  pool.PublishMetrics(&registry, "bp.");
  EXPECT_EQ(registry.gauge("bp.class_2_4.capacity_pages")->value(), 4);
  EXPECT_EQ(registry.gauge("bp.class_2_4.resident_pages")->value(), 1);

  pool.DropQuota(key);
  pool.PublishMetrics(&registry, "bp.");
  EXPECT_EQ(registry.gauge("bp.partitions")->value(), 0);
  EXPECT_EQ(registry.gauge("bp.class_2_4.capacity_pages")->value(), 0);
  EXPECT_EQ(registry.gauge("bp.class_2_4.resident_pages")->value(), 0);

  ASSERT_TRUE(pool.SetQuota(key, 2));
  pool.DropQuota(key);
  ASSERT_TRUE(pool.SetQuota(key, 3));
  pool.PublishMetrics(&registry, "bp.");
  EXPECT_EQ(registry.gauge("bp.class_2_4.capacity_pages")->value(), 3);
}

TEST(DiskModelTest, ServiceDemandComposition) {
  DiskModel disk;
  disk.random_read_seconds = 0.004;
  disk.extent_read_seconds = 0.008;
  disk.page_write_seconds = 0.002;
  EXPECT_DOUBLE_EQ(disk.ServiceDemand(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(disk.ServiceDemand(10, 2, 5),
                   10 * 0.004 + 2 * 0.008 + 5 * 0.002);
}

}  // namespace
}  // namespace fglb

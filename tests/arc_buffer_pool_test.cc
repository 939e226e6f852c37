// Tests for the ARC buffer pool: hand-traced adaptation behaviour,
// scan resistance vs the CLOCK pool, and hit-rate parity with plain LRU
// on reuse-friendly traces.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/arc_buffer_pool.h"
#include "storage/buffer_pool.h"
#include "storage/clock_buffer_pool.h"

namespace fglb {
namespace {

PageId P(uint64_t id) { return MakePageId(1, id); }

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

// A hot set that fits the cache, periodically interrupted by one-shot
// scans over a large cold range. Each round scans a fresh range, so
// scan pages never recur (no ghost hits, no adaptation from them).
// ARC should keep the hot set in T2 across the scans; LRU and CLOCK
// flush it every time.
std::vector<PageId> MakeScanPollutedTrace(uint64_t hot_pages,
                                          uint64_t scan_pages, int rounds,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<PageId> trace;
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < 1500; ++i) {
      trace.push_back(P(rng.NextUint64(hot_pages)));
    }
    for (uint64_t s = 0; s < scan_pages; ++s) {
      trace.push_back(P(1'000'000 + r * scan_pages + s));
    }
  }
  return trace;
}

// --- Basic mechanics ---

TEST(ArcBufferPoolTest, ColdMissesThenHits) {
  ArcBufferPool arc(4);
  EXPECT_FALSE(arc.Access(P(1)));
  EXPECT_FALSE(arc.Access(P(2)));
  EXPECT_TRUE(arc.Access(P(1)));  // promoted T1 -> T2
  EXPECT_TRUE(arc.Access(P(2)));
  EXPECT_EQ(arc.stats().accesses, 4u);
  EXPECT_EQ(arc.stats().hits, 2u);
  EXPECT_EQ(arc.stats().misses, 2u);
  EXPECT_EQ(arc.resident_pages(), 2u);
  EXPECT_TRUE(arc.Contains(P(1)));
  EXPECT_FALSE(arc.Contains(P(3)));
}

TEST(ArcBufferPoolTest, ResidencyNeverExceedsCapacity) {
  ArcBufferPool arc(8);
  const std::vector<PageId> trace = MakeZipfTrace(200, 0.7, 5000, 11);
  for (PageId p : trace) {
    arc.Access(p);
    ASSERT_LE(arc.resident_pages(), arc.capacity());
    ASSERT_LE(arc.target_t1(), arc.capacity());
  }
  EXPECT_EQ(arc.resident_pages(), arc.capacity());  // zipf set >> capacity
}

TEST(ArcBufferPoolTest, ZeroCapacityPoolMissesEverything) {
  ArcBufferPool arc(0);
  EXPECT_FALSE(arc.Access(P(1)));
  EXPECT_FALSE(arc.Access(P(1)));
  EXPECT_EQ(arc.resident_pages(), 0u);
  EXPECT_EQ(arc.stats().misses, 2u);
}

TEST(ArcBufferPoolTest, CaseIvAWithEmptyB1DropsT1LruWithoutGhost) {
  // Cold-fill T1 to capacity, then one more cold miss: the paper's
  // Case IV(a) with B1 empty deletes T1's LRU page outright — no ghost
  // entry, so re-touching it later is a plain miss that does not adapt.
  ArcBufferPool arc(4);
  for (uint64_t i = 1; i <= 5; ++i) arc.Access(P(i));
  EXPECT_FALSE(arc.Contains(P(1)));
  EXPECT_FALSE(arc.Access(P(1)));
  EXPECT_EQ(arc.target_t1(), 0u);  // no B1 ghost hit happened
}

TEST(ArcBufferPoolTest, GhostHitInB1GrowsRecencyTarget) {
  // Build: 1..4 cold into T1, promote 1 to T2 (hit), then a cold miss
  // replaces T1's LRU (page 2) into ghost B1. Touching 2 again is a
  // B1 ghost hit: ARC must adapt p upward (favouring recency) and
  // bring the page back into the frequency list T2.
  ArcBufferPool arc(4);
  for (uint64_t i = 1; i <= 4; ++i) arc.Access(P(i));
  EXPECT_TRUE(arc.Access(P(1)));     // 1 -> T2; T1 = {4,3,2}
  EXPECT_FALSE(arc.Access(P(5)));    // replace: 2 -> B1
  EXPECT_FALSE(arc.Contains(P(2)));
  EXPECT_EQ(arc.target_t1(), 0u);
  EXPECT_FALSE(arc.Access(P(2)));    // ghost hit: a miss, but adaptive
  EXPECT_GT(arc.target_t1(), 0u);
  EXPECT_TRUE(arc.Contains(P(2)));   // reloaded into T2
  EXPECT_TRUE(arc.Access(P(2)));
}

// --- Scan resistance ---

TEST(ArcBufferPoolTest, SurvivesScansThatFlushClock) {
  const uint64_t kCache = 512;
  const std::vector<PageId> trace =
      MakeScanPollutedTrace(/*hot_pages=*/400, /*scan_pages=*/1024,
                            /*rounds=*/8, /*seed=*/21);
  ArcBufferPool arc(kCache);
  ClockBufferPool clock(kCache);
  BufferPool lru(kCache);
  for (PageId p : trace) {
    arc.Access(p);
    clock.Access(p);
    lru.Access(p);
  }
  // The hot set (400 pages) fits the 512-page cache, but every scan
  // round pushes 1024 never-reused cold pages through. LRU/CLOCK evict
  // the hot set each round and re-miss it; ARC parks the scan in T1
  // and keeps the hot pages in T2.
  EXPECT_GT(arc.stats().hit_ratio(), lru.stats().hit_ratio() + 0.10);
  EXPECT_GT(arc.stats().hit_ratio(), clock.stats().hit_ratio() + 0.10);
}

// --- LRU parity on reuse-friendly traces ---

TEST(ArcBufferPoolTest, CloseToLruOnSkewedTraces) {
  for (const uint64_t seed : {31u, 37u}) {
    const std::vector<PageId> trace = MakeZipfTrace(2000, 0.9, 40000, seed);
    for (const uint64_t cache : {256u, 1024u}) {
      ArcBufferPool arc(cache);
      BufferPool lru(cache);
      for (PageId p : trace) {
        arc.Access(p);
        lru.Access(p);
      }
      // On scan-free skewed traffic ARC should behave like (or better
      // than) LRU, not pathologically worse.
      EXPECT_GE(arc.stats().hit_ratio(), lru.stats().hit_ratio() - 0.03)
          << "seed " << seed << " cache " << cache;
    }
  }
}

}  // namespace
}  // namespace fglb

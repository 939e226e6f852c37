#include "engine/database_engine.h"

#include <gtest/gtest.h>

#include "engine/metrics.h"
#include "engine/stats_collector.h"
#include "mrc/miss_ratio_curve.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

QueryInstance MakeQuery(const ApplicationSpec& app, QueryClassId cls) {
  QueryInstance q;
  q.app = app.id;
  q.tmpl = app.FindTemplate(cls);
  return q;
}

QueryTemplate ScanTemplate(uint64_t region_pages, double mean_pages) {
  AccessComponent c;
  c.table = 9;
  c.table_pages = region_pages;
  c.region_pages = region_pages;
  c.kind = AccessComponent::Kind::kSequentialScan;
  c.mean_pages = mean_pages;
  QueryTemplate t;
  t.id = 77;
  t.name = "Scan";
  t.components = {c};
  return t;
}

TEST(MetricsTest, NamesAndHelpers) {
  EXPECT_STREQ(MetricName(Metric::kLatency), "latency");
  EXPECT_STREQ(MetricName(Metric::kReadAheads), "read_aheads");
  EXPECT_TRUE(IsMemoryMetric(Metric::kBufferMisses));
  EXPECT_TRUE(IsMemoryMetric(Metric::kPageAccesses));
  EXPECT_TRUE(IsMemoryMetric(Metric::kReadAheads));
  EXPECT_FALSE(IsMemoryMetric(Metric::kLatency));
  EXPECT_FALSE(IsMemoryMetric(Metric::kThroughput));
  MetricVector v{};
  At(v, Metric::kLatency) = 1.5;
  EXPECT_DOUBLE_EQ(At(static_cast<const MetricVector&>(v), Metric::kLatency),
                   1.5);
}

TEST(StatsCollectorTest, IntervalAveragesAndReset) {
  StatsCollector stats(100);
  const ClassKey key = MakeClassKey(1, 2);
  ExecutionCounters c;
  c.page_accesses = 10;
  c.buffer_misses = 2;
  c.io_requests = 3;
  c.read_aheads = 1;
  stats.RecordQuery(key, 0.2, c);
  stats.RecordQuery(key, 0.4, c);
  auto snap = stats.EndInterval(10.0);
  ASSERT_TRUE(snap.contains(key));
  EXPECT_NEAR(At(snap[key], Metric::kLatency), 0.3, 1e-12);
  EXPECT_NEAR(At(snap[key], Metric::kThroughput), 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(At(snap[key], Metric::kPageAccesses), 20.0);
  EXPECT_DOUBLE_EQ(At(snap[key], Metric::kBufferMisses), 4.0);
  EXPECT_DOUBLE_EQ(At(snap[key], Metric::kIoRequests), 6.0);
  EXPECT_DOUBLE_EQ(At(snap[key], Metric::kReadAheads), 2.0);
  // Second interval is empty.
  EXPECT_TRUE(stats.EndInterval(10.0).empty());
}

TEST(StatsCollectorTest, AccessWindowKeepsRecent) {
  StatsCollector stats(3);
  const ClassKey key = MakeClassKey(1, 1);
  for (uint64_t i = 0; i < 5; ++i) stats.RecordPageAccess(key, i);
  EXPECT_EQ(stats.AccessWindow(key), (std::vector<PageId>{2, 3, 4}));
  EXPECT_TRUE(stats.AccessWindow(MakeClassKey(9, 9)).empty());
}

TEST(StatsCollectorTest, WindowSurvivesIntervalEnd) {
  StatsCollector stats(10);
  const ClassKey key = MakeClassKey(1, 1);
  stats.RecordPageAccess(key, 42);
  stats.RecordQuery(key, 0.1, ExecutionCounters{});
  stats.EndInterval(1.0);
  EXPECT_EQ(stats.AccessWindow(key).size(), 1u);
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() {
    DatabaseEngine::Options options;
    options.buffer_pool_pages = 1024;
    options.seed = 5;
    engine_ = std::make_unique<DatabaseEngine>("e", options, &disk_);
  }
  DiskModel disk_;
  std::unique_ptr<DatabaseEngine> engine_;
};

TEST_F(EngineTest, ColdQueryMissesWarmQueryHits) {
  const ApplicationSpec app = MakeTpcw();
  const QueryInstance q = MakeQuery(app, kTpcwHome);
  uint64_t first_misses = 0;
  for (int i = 0; i < 50; ++i) {
    const ExecutionCounters c = engine_->Execute(q);
    if (i == 0) first_misses = c.buffer_misses;
  }
  EXPECT_GT(first_misses, 0u);
  // After warm-up, the hot home pages mostly hit.
  const ExecutionCounters warm = engine_->Execute(q);
  EXPECT_LT(warm.buffer_misses, first_misses);
}

TEST_F(EngineTest, CountersAreConsistent) {
  const ApplicationSpec app = MakeTpcw();
  const ExecutionCounters c =
      engine_->Execute(MakeQuery(app, kTpcwProductDetail));
  EXPECT_GT(c.page_accesses, 0u);
  EXPECT_GT(c.cpu_seconds, 0.0);
  EXPECT_LE(c.read_aheads, c.io_requests);
}

TEST_F(EngineTest, SequentialScanUsesReadAhead) {
  QueryTemplate scan = ScanTemplate(10000, 640);
  QueryInstance q;
  q.app = 1;
  q.tmpl = &scan;
  const ExecutionCounters c = engine_->Execute(q);
  // ~640 sequential pages = ~10 extents.
  EXPECT_GE(c.read_aheads, 8u);
  EXPECT_LE(c.read_aheads, 16u);
  // Pages fetched via read-ahead count as physical reads.
  EXPECT_GE(c.buffer_misses, c.page_accesses / 2);
  // But the scan itself hits in the pool (prefetch landed first).
  EXPECT_GT(engine_->pool().shared_stats().hit_ratio(), 0.9);
}

TEST_F(EngineTest, ScanIoDemandUsesExtentReads) {
  QueryTemplate scan = ScanTemplate(10000, 640);
  QueryInstance q;
  q.app = 1;
  q.tmpl = &scan;
  const ExecutionCounters c = engine_->Execute(q);
  // Sequential I/O: roughly read_aheads * extent time, far cheaper than
  // 640 random reads.
  EXPECT_LT(c.io_seconds, 640 * disk_.random_read_seconds / 4);
  EXPECT_NEAR(c.io_seconds, c.read_aheads * disk_.extent_read_seconds,
              disk_.extent_read_seconds * 3);
}

TEST_F(EngineTest, QuotaConfinesClass) {
  QueryTemplate scan = ScanTemplate(2000, 500);
  QueryInstance q;
  q.app = 1;
  q.tmpl = &scan;
  const ClassKey key = q.class_key();
  ASSERT_TRUE(engine_->SetQuota(key, 128));
  EXPECT_TRUE(engine_->pool().HasQuota(key));
  engine_->Execute(q);
  // The scan's pages went to its partition; the shared region holds
  // nothing of it.
  EXPECT_EQ(engine_->pool().shared_stats().accesses, 0u);
  EXPECT_GT(engine_->pool().StatsOf(key).accesses, 0u);
  engine_->DropQuota(key);
  EXPECT_FALSE(engine_->pool().HasQuota(key));
}

// The quota planner sizes a partition by reading the class's Mattson
// curve at the quota, which is exact only for an LRU partition. A
// point-lookup class (no read-ahead, so every page is one Access) run
// alone in a fresh dedicated partition must miss exactly as the curve
// of its own access window predicts at that size.
TEST(EnginePartitionTest, QuotaPartitionMissesAsItsCurvePredicts) {
  const ApplicationSpec app = MakeTpcw();
  const DiskModel disk;
  for (const QueryClassId cls : {kTpcwProductDetail, kTpcwBestSeller}) {
    for (const uint64_t quota : {64u, 256u, 1024u}) {
      SCOPED_TRACE(::testing::Message() << "class " << cls << ", quota "
                                        << quota);
      DatabaseEngine::Options options;
      options.access_window_capacity = size_t{1} << 20;
      DatabaseEngine engine("e", options, &disk);
      const QueryInstance q = MakeQuery(app, cls);
      ASSERT_TRUE(engine.SetQuota(q.class_key(), quota));
      uint64_t accesses = 0;
      for (int i = 0; i < 1000; ++i) {
        const ExecutionCounters c = engine.Execute(q);
        ASSERT_EQ(c.read_aheads, 0u);
        accesses += c.page_accesses;
      }
      // The window holds every access the partition saw.
      const std::vector<PageId> window =
          engine.stats().AccessWindow(q.class_key());
      ASSERT_EQ(window.size(), accesses);
      ASSERT_EQ(engine.pool().StatsOf(q.class_key()).accesses, accesses);
      EXPECT_NEAR(engine.pool().StatsOf(q.class_key()).miss_ratio(),
                  MissRatioCurve::FromTrace(window).MissRatioAt(quota),
                  1e-12);
    }
  }
}

TEST_F(EngineTest, RecordCompletionFeedsStats) {
  const ApplicationSpec app = MakeTpcw();
  const QueryInstance q = MakeQuery(app, kTpcwHome);
  const ExecutionCounters c = engine_->Execute(q);
  engine_->RecordCompletion(q.class_key(), 0.25, c);
  auto snap = engine_->stats().EndInterval(5.0);
  ASSERT_TRUE(snap.contains(q.class_key()));
  EXPECT_NEAR(At(snap[q.class_key()], Metric::kLatency), 0.25, 1e-12);
}

TEST_F(EngineTest, AccessWindowPopulatedByExecution) {
  const ApplicationSpec app = MakeTpcw();
  const QueryInstance q = MakeQuery(app, kTpcwBestSeller);
  for (int i = 0; i < 5; ++i) engine_->Execute(q);
  EXPECT_GT(engine_->stats().AccessWindow(q.class_key()).size(), 100u);
}

TEST_F(EngineTest, WritesProduceWriteCountersAndIoTime) {
  const ApplicationSpec app = MakeTpcw();
  const QueryInstance q = MakeQuery(app, kTpcwBuyConfirm);
  uint64_t writes = 0;
  for (int i = 0; i < 20; ++i) writes += engine_->Execute(q).page_writes;
  EXPECT_GT(writes, 0u);
}

}  // namespace
}  // namespace fglb

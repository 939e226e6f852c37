#include "cluster/scheduler.h"

#include <gtest/gtest.h>

#include "cluster/physical_server.h"
#include "cluster/replica.h"
#include "cluster/resource_manager.h"
#include "common/metrics_registry.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : resources_(&sim_), app_(MakeTpcw()) {}

  Replica* NewReplica(uint64_t pool_pages = 2048) {
    PhysicalServer* server = resources_.AddServer({});
    return resources_.CreateReplica(server, pool_pages);
  }

  QueryInstance Query(QueryClassId cls) {
    QueryInstance q;
    q.app = app_.id;
    q.tmpl = app_.FindTemplate(cls);
    q.submit_time = sim_.Now();
    return q;
  }

  Simulator sim_;
  ResourceManager resources_;
  ApplicationSpec app_;
};

TEST_F(ClusterTest, ReplicaRunsQueryEndToEnd) {
  Replica* r = NewReplica();
  double latency = -1;
  r->Run(Query(kTpcwHome), [&](double l, const ExecutionCounters&) {
    latency = l;
  });
  EXPECT_EQ(r->inflight(), 1u);
  sim_.RunToCompletion();
  EXPECT_GT(latency, 0.0);
  EXPECT_EQ(r->inflight(), 0u);
  EXPECT_EQ(r->completed(), 1u);
}

TEST_F(ClusterTest, QueueingInflatesLatency) {
  Replica* r = NewReplica();
  std::vector<double> latencies;
  for (int i = 0; i < 200; ++i) {
    r->Run(Query(kTpcwSearchByTitle),
           [&](double l, const ExecutionCounters&) {
             latencies.push_back(l);
           });
  }
  sim_.RunToCompletion();
  ASSERT_EQ(latencies.size(), 200u);
  // Later completions waited behind earlier ones.
  EXPECT_GT(latencies.back(), latencies.front());
}

TEST_F(ClusterTest, SchedulerBalancesReadsAcrossReplicas) {
  Scheduler scheduler(&sim_, &app_);
  Replica* a = NewReplica();
  Replica* b = NewReplica();
  scheduler.AddReplica(a);
  scheduler.AddReplica(b);
  for (int i = 0; i < 100; ++i) {
    scheduler.Submit(Query(kTpcwHome), nullptr);
    sim_.RunUntil(sim_.Now() + 0.5);
  }
  sim_.RunToCompletion();
  EXPECT_GT(a->completed(), 20u);
  EXPECT_GT(b->completed(), 20u);
}

TEST_F(ClusterTest, WritesGoToAllReplicas) {
  Scheduler scheduler(&sim_, &app_);
  Replica* a = NewReplica();
  Replica* b = NewReplica();
  scheduler.AddReplica(a);
  scheduler.AddReplica(b);
  scheduler.Submit(Query(kTpcwBuyConfirm), nullptr);
  sim_.RunToCompletion();
  EXPECT_EQ(a->completed(), 1u);
  EXPECT_EQ(b->completed(), 1u);
  EXPECT_EQ(a->AppliedSeq(app_.id), 1u);
  EXPECT_EQ(b->AppliedSeq(app_.id), 1u);
}

TEST_F(ClusterTest, DedicatedPlacementPinsClass) {
  Scheduler scheduler(&sim_, &app_);
  Replica* a = NewReplica();
  Replica* b = NewReplica();
  scheduler.AddReplica(a);
  scheduler.AddReplica(b);
  scheduler.DedicateReplica(kTpcwBestSeller, b);

  // BestSeller goes only to b; Home (default) only to a now that b is
  // a dedicated target.
  const auto placement = scheduler.PlacementOf(kTpcwBestSeller);
  ASSERT_EQ(placement.size(), 1u);
  EXPECT_EQ(placement[0], b);
  const auto default_placement = scheduler.PlacementOf(kTpcwHome);
  ASSERT_EQ(default_placement.size(), 1u);
  EXPECT_EQ(default_placement[0], a);

  for (int i = 0; i < 20; ++i) {
    scheduler.Submit(Query(kTpcwBestSeller), nullptr);
    scheduler.Submit(Query(kTpcwHome), nullptr);
  }
  sim_.RunToCompletion();
  // All BestSellers on b; writes aside, Home stayed on a.
  EXPECT_EQ(a->completed() + b->completed(), 40u);
  EXPECT_EQ(b->completed(), 20u);
}

TEST_F(ClusterTest, ClearDedicationRestoresDefault) {
  Scheduler scheduler(&sim_, &app_);
  Replica* a = NewReplica();
  Replica* b = NewReplica();
  scheduler.AddReplica(a);
  scheduler.AddReplica(b);
  scheduler.DedicateReplica(kTpcwBestSeller, b);
  scheduler.ClearDedication(kTpcwBestSeller);
  // b remains out of the default set until re-added.
  EXPECT_EQ(scheduler.PlacementOf(kTpcwBestSeller).size(), 1u);
  scheduler.AddReplica(b, /*in_default_set=*/true);
  EXPECT_EQ(scheduler.PlacementOf(kTpcwBestSeller).size(), 2u);
}

TEST_F(ClusterTest, IntervalReportPercentilesOrdered) {
  Scheduler scheduler(&sim_, &app_);
  Replica* r = NewReplica();
  scheduler.AddReplica(r);
  for (int i = 0; i < 300; ++i) {
    scheduler.Submit(Query(kTpcwSearchByTitle), nullptr);
    sim_.RunUntil(sim_.Now() + 0.2);
  }
  sim_.RunToCompletion();
  const auto report = scheduler.EndInterval(60.0);
  ASSERT_GT(report.queries, 0u);
  EXPECT_LE(report.p95_latency, report.p99_latency + 1e-9);
  EXPECT_GT(report.p95_latency, 0.0);
}

TEST_F(ClusterTest, IntervalReportTracksSla) {
  Scheduler scheduler(&sim_, &app_);
  Replica* r = NewReplica();
  scheduler.AddReplica(r);
  scheduler.Submit(Query(kTpcwHome), nullptr);
  sim_.RunToCompletion();
  const auto report = scheduler.EndInterval(10.0);
  EXPECT_EQ(report.queries, 1u);
  EXPECT_TRUE(report.sla_met);
  EXPECT_GT(report.avg_latency, 0.0);
  // Interval resets.
  const auto empty = scheduler.EndInterval(10.0);
  EXPECT_EQ(empty.queries, 0u);
  EXPECT_TRUE(empty.sla_met);
}

TEST_F(ClusterTest, NoReplicasPenalizedNotCrashed) {
  Scheduler scheduler(&sim_, &app_);
  double latency = 0;
  scheduler.Submit(Query(kTpcwHome), [&](double l) { latency = l; });
  sim_.RunToCompletion();
  EXPECT_GT(latency, app_.sla_latency_seconds);
  const auto report = scheduler.EndInterval(10.0);
  EXPECT_FALSE(report.sla_met);
}

TEST_F(ClusterTest, ResourceManagerMemoryAccounting) {
  PhysicalServer::Options options;
  options.memory_pages = 4096;
  PhysicalServer* server = resources_.AddServer(options);
  EXPECT_EQ(resources_.FreeMemoryPages(server), 4096u);
  Replica* r1 = resources_.CreateReplica(server, 3000);
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(resources_.FreeMemoryPages(server), 1096u);
  // Does not fit.
  EXPECT_EQ(resources_.CreateReplica(server, 2000), nullptr);
  Replica* r2 = resources_.CreateReplica(server, 1000);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(resources_.ReplicasOn(server).size(), 2u);
}

TEST_F(ClusterTest, ProvisionPrefersUnusedServers) {
  PhysicalServer* s1 = resources_.AddServer({});
  resources_.AddServer({});
  Scheduler scheduler(&sim_, &app_);
  Replica* first = resources_.CreateReplica(s1, 1024);
  scheduler.AddReplica(first);
  Replica* second = resources_.ProvisionReplica(&scheduler, 1024);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(&second->server(), s1);
  EXPECT_EQ(resources_.ServersUsedBy(scheduler), 2);
  // Pool exhausted for a third (both servers host the app now).
  EXPECT_EQ(resources_.ProvisionReplica(&scheduler, 1024), nullptr);
}

TEST_F(ClusterTest, DecommissionRemovesFromScheduler) {
  Scheduler scheduler(&sim_, &app_);
  Replica* a = NewReplica();
  Replica* b = NewReplica();
  scheduler.AddReplica(a);
  scheduler.AddReplica(b);
  resources_.Decommission(&scheduler, b);
  EXPECT_EQ(scheduler.replicas().size(), 1u);
  EXPECT_EQ(resources_.AllReplicas().size(), 1u);
}

TEST_F(ClusterTest, DestroyedReplicaPublishesZeroGaugesOnce) {
  MetricsRegistry registry;
  resources_.set_metrics(&registry);
  Scheduler scheduler(&sim_, &app_);
  Replica* kept = NewReplica();
  Replica* released = NewReplica();
  scheduler.AddReplica(kept);
  scheduler.AddReplica(released);
  for (Replica* r : {kept, released}) r->Run(Query(kTpcwHome), nullptr);
  sim_.RunToCompletion();
  const std::string kept_pool = "engine." + kept->engine().name() +
                                ".bufferpool.shared.";
  const std::string gone_pool = "engine." + released->engine().name() +
                                ".bufferpool.shared.";
  resources_.PublishMetrics();
  ASSERT_GT(registry.gauge(gone_pool + "resident_pages")->value(), 0);
  const uint64_t accesses = registry.counter(gone_pool + "accesses")->value();
  ASSERT_GT(accesses, 0u);

  resources_.Decommission(&scheduler, released);
  resources_.PublishMetrics();
  EXPECT_EQ(registry.gauge(gone_pool + "resident_pages")->value(), 0);
  EXPECT_EQ(registry.gauge(gone_pool + "capacity_pages")->value(), 0);
  EXPECT_GT(registry.gauge(kept_pool + "resident_pages")->value(), 0);
  EXPECT_EQ(registry.counter(gone_pool + "accesses")->value(), accesses);
  // Once: a later publish leaves the dead engine's instruments alone.
  registry.gauge(gone_pool + "capacity_pages")->Set(7);
  resources_.PublishMetrics();
  EXPECT_EQ(registry.gauge(gone_pool + "capacity_pages")->value(), 7);
}

TEST_F(ClusterTest, SharedEngineServesTwoApps) {
  // Consolidation: TPC-W and RUBiS submitted to the same replica.
  const ApplicationSpec rubis = MakeRubis();
  Replica* shared = NewReplica(8192);
  Scheduler tpcw_sched(&sim_, &app_);
  Scheduler rubis_sched(&sim_, &rubis);
  tpcw_sched.AddReplica(shared);
  rubis_sched.AddReplica(shared);

  QueryInstance rq;
  rq.app = rubis.id;
  rq.tmpl = rubis.FindTemplate(kRubisViewItem);
  tpcw_sched.Submit(Query(kTpcwHome), nullptr);
  rubis_sched.Submit(rq, nullptr);
  sim_.RunToCompletion();
  EXPECT_EQ(shared->completed(), 2u);
  // Both apps' classes tracked in the one engine.
  const auto classes = shared->engine().stats().KnownClasses();
  bool saw_tpcw = false, saw_rubis = false;
  for (ClassKey key : classes) {
    saw_tpcw |= AppOf(key) == app_.id;
    saw_rubis |= AppOf(key) == rubis.id;
  }
  EXPECT_TRUE(saw_tpcw);
  EXPECT_TRUE(saw_rubis);
}

}  // namespace
}  // namespace fglb

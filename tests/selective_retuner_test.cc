#include "core/selective_retuner.h"

#include <gtest/gtest.h>

#include "scenarios/harness.h"
#include "scenarios/scenario.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

using ActionKind = SelectiveRetuner::ActionKind;

int CountActions(const SelectiveRetuner& retuner, ActionKind kind) {
  int count = 0;
  for (const auto& a : retuner.actions()) count += (a.kind == kind);
  return count;
}

int TotalActions(const SelectiveRetuner& retuner) {
  return static_cast<int>(retuner.actions().size());
}

TEST(SelectiveRetunerTest, ActionKindNamesAreDistinct) {
  const ActionKind kinds[] = {
      ActionKind::kCpuProvision,     ActionKind::kIoProvision,
      ActionKind::kCpuRelease,       ActionKind::kQuotaEnforced,
      ActionKind::kClassRescheduled, ActionKind::kIoEviction,
      ActionKind::kCoarseFallback,
  };
  std::set<std::string> names;
  for (ActionKind k : kinds) {
    names.insert(SelectiveRetuner::ActionKindName(k));
  }
  EXPECT_EQ(names.size(), std::size(kinds));
}

TEST(SelectiveRetunerTest, AnalyzerPerEngineIsStable) {
  ClusterHarness h;
  h.AddServers(1);
  Replica* r = h.resources().CreateReplica(h.resources().servers()[0].get(),
                                           1024);
  LogAnalyzer& a = h.retuner().AnalyzerFor(r);
  LogAnalyzer& b = h.retuner().AnalyzerFor(r);
  EXPECT_EQ(&a, &b);
}

TEST(SelectiveRetunerTest, MigratingAClassOffAnEngineDropsItsTierQuota) {
  // tier-thrash seed 1: app=2/class=4 is demoted on replica-0 (a DRAM
  // quota plus a tier-2 quota), then moved to replica-1 by an I/O
  // eviction. The source's tier must stop dedicating pages to a class
  // it no longer serves.
  RunConfig run = ScenarioRunConfig(Scenario::kTierThrash, 900);
  run.seed = 1;
  std::unique_ptr<ClusterHarness> h = MakeHarness(run, 1);
  AssembleScenario(run, h.get());
  std::string error;
  ASSERT_TRUE(ArmRun(run, h.get(), &error)) << error;
  h->Start();
  h->RunFor(400);
  int demoted = 0;
  int moved = 0;
  for (const auto& action : h->retuner().actions()) {
    if (action.description.find("app=2/class=4") == std::string::npos) {
      continue;
    }
    demoted += action.kind == ActionKind::kDemote;
    moved += action.kind == ActionKind::kIoEviction ||
             action.kind == ActionKind::kClassRescheduled;
  }
  ASSERT_GE(demoted, 1);
  ASSERT_GE(moved, 1);
  Replica* source = h->resources().FindReplica(0);
  ASSERT_NE(source, nullptr);
  ASSERT_NE(source->engine().tier2(), nullptr);
  EXPECT_EQ(source->engine().tier2()->QuotaOf(MakeClassKey(2, 4)), 0u);
}

TEST(SelectiveRetunerTest, SamplesAccumulateEachInterval) {
  ClusterHarness h;
  h.AddServers(1);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  Replica* r = h.resources().CreateReplica(h.resources().servers()[0].get(),
                                           8192);
  tpcw->AddReplica(r);
  h.AddConstantClients(tpcw, 5, 1);
  h.Start();
  h.RunFor(105);
  // interval = 10s -> 10 full ticks in 105s.
  EXPECT_EQ(h.retuner().samples().size(), 10u);
  for (const auto& sample : h.retuner().samples()) {
    ASSERT_EQ(sample.apps.size(), 1u);
    ASSERT_EQ(sample.servers.size(), 1u);
  }
}

TEST(SelectiveRetunerTest, MonitoringModeTakesNoActions) {
  SelectiveRetuner::Config config;
  config.enable_actions = false;
  ClusterHarness h(config);
  h.AddServers(3);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  Replica* r = h.resources().CreateReplica(h.resources().servers()[0].get(),
                                           8192);
  tpcw->AddReplica(r);
  // Grossly overloaded: plenty of violations to react to.
  h.AddConstantClients(tpcw, 900, 2);
  h.Start();
  h.RunFor(400);
  EXPECT_EQ(TotalActions(h.retuner()), 0);
  EXPECT_FALSE(h.retuner().samples().empty());
}

TEST(SelectiveRetunerTest, CoarseOnlyModeUsesOnlyFallback) {
  SelectiveRetuner::Config config;
  config.enable_fine_grained = false;
  ClusterHarness h(config);
  h.AddServers(3);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  Replica* r = h.resources().CreateReplica(h.resources().servers()[0].get(),
                                           8192);
  tpcw->AddReplica(r);
  h.AddConstantClients(tpcw, 900, 3);
  h.Start();
  h.RunFor(600);
  EXPECT_GE(CountActions(h.retuner(), ActionKind::kCoarseFallback), 1);
  EXPECT_EQ(CountActions(h.retuner(), ActionKind::kQuotaEnforced), 0);
  EXPECT_EQ(CountActions(h.retuner(), ActionKind::kClassRescheduled), 0);
  EXPECT_EQ(CountActions(h.retuner(), ActionKind::kIoEviction), 0);
}

TEST(SelectiveRetunerTest, CoarseFallbackRateLimited) {
  // An unattainable SLA keeps the app in chronic violation; the coarse
  // fallback must not fire every few intervals.
  SelectiveRetuner::Config config;
  config.enable_fine_grained = false;
  ClusterHarness h(config);
  h.AddServers(6);
  ApplicationSpec app = MakeTpcw();
  app.sla_latency_seconds = 1e-6;  // impossible
  Scheduler* tpcw = h.AddApplication(std::move(app));
  Replica* r = h.resources().CreateReplica(h.resources().servers()[0].get(),
                                           8192);
  tpcw->AddReplica(r);
  h.AddConstantClients(tpcw, 20, 4);
  h.Start();
  h.RunFor(2000);  // 200 intervals
  // Cooldown is 3 * kCoarseFallbackAfter (= 12) intervals; with the
  // initial streak ramp the bound is ~200/12 + 1.
  EXPECT_GE(CountActions(h.retuner(), ActionKind::kCoarseFallback), 1);
  EXPECT_LE(CountActions(h.retuner(), ActionKind::kCoarseFallback), 18);
}

TEST(SelectiveRetunerTest, WarmupSuppressesEarlyDiagnosis) {
  // A cold pool floods the disk in the first intervals; the controller
  // must not fire fine-grained memory/IO actions during warm-up.
  ClusterHarness h;
  h.AddServers(3);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  Replica* r = h.resources().CreateReplica(h.resources().servers()[0].get(),
                                           8192);
  tpcw->AddReplica(r);
  h.AddConstantClients(tpcw, 150, 5);
  h.Start();
  h.RunFor(30);  // kWarmupIntervals = 3
  for (const auto& action : h.retuner().actions()) {
    EXPECT_NE(action.kind, ActionKind::kQuotaEnforced);
    EXPECT_NE(action.kind, ActionKind::kClassRescheduled);
    EXPECT_NE(action.kind, ActionKind::kIoEviction);
    EXPECT_NE(action.kind, ActionKind::kCoarseFallback);
  }
}

TEST(SelectiveRetunerTest, BootstrapWorksEvenDuringWarmup) {
  ClusterHarness h;
  h.AddServers(1);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  h.AddConstantClients(tpcw, 5, 6);
  h.Start();
  h.RunFor(25);
  EXPECT_GE(CountActions(h.retuner(), ActionKind::kCpuProvision), 1);
  EXPECT_EQ(tpcw->replicas().size(), 1u);
}

TEST(SelectiveRetunerTest, NoActionsWhenHealthy) {
  ClusterHarness h;
  h.AddServers(2);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  Replica* r = h.resources().CreateReplica(h.resources().servers()[0].get(),
                                           8192);
  tpcw->AddReplica(r);
  h.AddConstantClients(tpcw, 20, 7);
  h.Start();
  h.RunFor(500);
  EXPECT_EQ(TotalActions(h.retuner()), 0);
}

TEST(SelectiveRetunerTest, ServersUsedTrackedInSamples) {
  ClusterHarness h;
  h.AddServers(3);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  Replica* r = h.resources().CreateReplica(h.resources().servers()[0].get(),
                                           8192);
  tpcw->AddReplica(r);
  h.AddConstantClients(tpcw, 20, 8);
  h.Start();
  h.RunFor(100);
  for (const auto& sample : h.retuner().samples()) {
    for (const auto& as : sample.apps) {
      EXPECT_EQ(as.servers_used, 1);
    }
  }
}

TEST(SelectiveRetunerTest, DiagnosesRecordedOnViolation) {
  // Force a violation after history exists; a diagnosis record with the
  // outlier report must appear even if no action results.
  SelectiveRetuner::Config config;
  config.enable_actions = false;
  ClusterHarness h(config);
  h.AddServers(2);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  Replica* r = h.resources().CreateReplica(h.resources().servers()[0].get(),
                                           8192);
  tpcw->AddReplica(r);
  h.AddClients(tpcw,
               std::make_unique<StepLoad>(
                   std::vector<std::pair<SimTime, double>>{{0, 30},
                                                           {300, 900}}),
               /*seed=*/9);
  h.Start();
  h.RunFor(600);
  EXPECT_FALSE(h.retuner().diagnoses().empty());
  for (const auto& d : h.retuner().diagnoses()) {
    EXPECT_GT(d.time, 300);
    EXPECT_EQ(d.app, tpcw->app().id);
  }
}

}  // namespace
}  // namespace fglb

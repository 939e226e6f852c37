#include "core/quota_planner.h"

#include <gtest/gtest.h>

#include "core/decision.h"

namespace fglb {
namespace {

ClassMemoryProfile Profile(QueryClassId cls, uint64_t total,
                           uint64_t acceptable, AppId app = 1) {
  ClassMemoryProfile p;
  p.key = MakeClassKey(app, cls);
  p.params.total_memory_pages = total;
  p.params.acceptable_memory_pages = acceptable;
  p.params.ideal_miss_ratio = 0.01;
  p.params.acceptable_miss_ratio = 0.03;
  return p;
}

TEST(QuotaPlannerTest, PlacementFitsWhenTotalNeedFits) {
  QuotaPlanner planner;
  const auto plan = planner.Plan(8192, {Profile(1, 2000, 1000)},
                                 {Profile(2, 3000, 1500)});
  EXPECT_TRUE(plan.placement_fits);
  EXPECT_TRUE(plan.quotas.empty());
  EXPECT_TRUE(plan.reschedule.empty());
  EXPECT_FALSE(plan.infeasible);
}

TEST(QuotaPlannerTest, QuotasWhenAcceptableFits) {
  QuotaPlanner planner;
  // Total need 6000+7000 > 8192, acceptable 3000+4000 <= 8192.
  const auto plan = planner.Plan(8192, {Profile(1, 6000, 3000)},
                                 {Profile(2, 7000, 4000)});
  EXPECT_FALSE(plan.placement_fits);
  ASSERT_EQ(plan.quotas.size(), 1u);
  EXPECT_EQ(plan.quotas.at(MakeClassKey(1, 1)), 3000u);
  EXPECT_TRUE(plan.reschedule.empty());
}

TEST(QuotaPlannerTest, ReschedulesLargestWhenQuotasDoNotFit) {
  QuotaPlanner planner;
  // Problem classes need 5000 + 2000 acceptable; others 4000.
  // 5000+2000+4000 > 8192, dropping the 5000 one fits.
  const auto plan =
      planner.Plan(8192, {Profile(1, 9000, 5000), Profile(2, 4000, 2000)},
                   {Profile(3, 8000, 4000)});
  ASSERT_EQ(plan.reschedule.size(), 1u);
  EXPECT_EQ(plan.reschedule[0], MakeClassKey(1, 1));
  ASSERT_EQ(plan.quotas.size(), 1u);
  EXPECT_EQ(plan.quotas.at(MakeClassKey(1, 2)), 2000u);
  EXPECT_FALSE(plan.infeasible);
}

TEST(QuotaPlannerTest, AllProblemsRescheduledIfNeeded) {
  QuotaPlanner planner;
  const auto plan =
      planner.Plan(4096, {Profile(1, 9000, 3000), Profile(2, 9000, 3000)},
                   {Profile(3, 6000, 3500)});
  EXPECT_EQ(plan.reschedule.size(), 2u);
  EXPECT_TRUE(plan.quotas.empty());
  EXPECT_FALSE(plan.infeasible);
}

TEST(QuotaPlannerTest, InfeasibleWhenOthersAloneExceedPool) {
  QuotaPlanner planner;
  const auto plan = planner.Plan(
      2048, {Profile(1, 9000, 3000)},
      {Profile(2, 6000, 1500), Profile(3, 6000, 1500)});
  EXPECT_TRUE(plan.infeasible);
}

TEST(QuotaPlannerTest, NoProblemClassesFitsTrivially) {
  QuotaPlanner planner;
  const auto plan = planner.Plan(8192, {}, {Profile(1, 1000, 500)});
  EXPECT_TRUE(plan.placement_fits);
}

TEST(QuotaPlannerTest, FitsOnDestinationTest) {
  EXPECT_TRUE(QuotaPlanner::FitsOn(8192, Profile(1, 9000, 7900), {}));
  EXPECT_FALSE(QuotaPlanner::FitsOn(
      8192, Profile(1, 9000, 7900), {Profile(2, 1000, 500)}));
  EXPECT_TRUE(QuotaPlanner::FitsOn(
      8192, Profile(1, 2000, 1000), {Profile(2, 9000, 7000)}));
}

TEST(IoEvictionTest, NoActionBelowTarget) {
  EXPECT_TRUE(PlanIoEviction({{MakeClassKey(1, 1), 0.2}}, 0.5, 0.6).empty());
}

TEST(IoEvictionTest, EvictsHeaviestFirst) {
  std::map<ClassKey, double> rates = {
      {MakeClassKey(1, 1), 0.05},
      {MakeClassKey(1, 2), 0.60},
      {MakeClassKey(1, 3), 0.10},
  };
  const auto evicted = PlanIoEviction(rates, 0.95, 0.60);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], MakeClassKey(1, 2));
}

TEST(IoEvictionTest, EvictsMultipleUntilTarget) {
  std::map<ClassKey, double> rates = {
      {MakeClassKey(1, 1), 0.30},
      {MakeClassKey(1, 2), 0.30},
      {MakeClassKey(1, 3), 0.30},
  };
  const auto evicted = PlanIoEviction(rates, 0.95, 0.40);
  EXPECT_EQ(evicted.size(), 2u);
}

TEST(IoEvictionTest, IgnoresZeroRateClasses) {
  std::map<ClassKey, double> rates = {
      {MakeClassKey(1, 1), 0.0},
      {MakeClassKey(1, 2), 0.0},
  };
  EXPECT_TRUE(PlanIoEviction(rates, 0.99, 0.50).empty());
}

}  // namespace
}  // namespace fglb

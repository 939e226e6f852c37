// A controller checkpoint is a value: the retuner's ControlPlane and
// admission's State. These cases pin what a restore gives back — the
// checkpointed value itself, less what each restore rule drops or
// changes.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "cluster/admission.h"
#include "cluster/stats_channel.h"
#include "core/control_state.h"
#include "scenarios/harness.h"
#include "scenarios/scenario.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"

namespace fglb {
namespace {

// A consolidation cluster with enough churn that the controller has
// real control state to checkpoint: streaks, stable baselines, feeds.
struct Fixture {
  Fixture() {
    SelectiveRetuner::Config config;
    config.max_migrations_per_interval = 2;
    harness = std::make_unique<ClusterHarness>(config);
    // fglb_sim's chaos topology on 3 servers with 40 RUBiS clients.
    RunConfig run;
    run.scenario = Scenario::kChaosReplica;
    run.servers = 3;
    run.rubis_clients = 40;
    run.seed = 7;
    AssembleScenario(run, harness.get());
    harness->Start();
    harness->RunFor(150);
  }

  SelectiveRetuner& retuner() { return harness->retuner(); }

  std::unique_ptr<ClusterHarness> harness;
};

// fglb_sim's overload run (admission on) after `seconds`. Between
// t=135 and t=140 replica-2 sheds two of its nine classes.
std::unique_ptr<ClusterHarness> OverloadCluster(double seconds) {
  const RunConfig run = ScenarioRunConfig(Scenario::kOverload, 400);
  auto h = MakeHarness(run, /*analysis_threads=*/1);
  AssembleScenario(run, h.get());
  std::string error;
  EXPECT_TRUE(ArmRun(run, h.get(), &error)) << error;
  h->Start();
  h->RunFor(seconds);
  return h;
}

TEST(ControllerCheckpointTest, RestoreIsBitExact) {
  Fixture f;
  const SelectiveRetuner::ControlPlane before = f.retuner().control_plane();
  ASSERT_FALSE(before.state.apps.empty());
  ASSERT_FALSE(before.receivers.empty());
  ASSERT_TRUE(std::any_of(before.baselines.begin(), before.baselines.end(),
                          [](const auto& entry) {
                            return !entry.second.curves.empty();
                          }));
  ASSERT_TRUE(before.state.in_flight.empty());

  // Restoring the empty value is the cold start.
  f.retuner().Restore({});
  EXPECT_EQ(f.retuner().control_plane(), SelectiveRetuner::ControlPlane{});

  f.retuner().Restore(before);
  EXPECT_EQ(f.retuner().control_plane(), before);
}

TEST(ControllerCheckpointTest, AdmissionRestoreIsBitExact) {
  auto h = OverloadCluster(137);
  AdmissionController& admission = *h->admission();
  const AdmissionController::State before = admission.state();
  const SelectiveRetuner::ControlPlane plane = h->retuner().control_plane();
  ASSERT_FALSE(before.retry.empty());
  ASSERT_FALSE(before.classes.empty());
  ASSERT_TRUE(std::any_of(before.replicas.begin(), before.replicas.end(),
                          [](const auto& entry) {
                            return !entry.second.shed_classes.empty();
                          }));

  admission.Restore({});
  h->retuner().Restore({});
  EXPECT_EQ(admission.state(), AdmissionController::State{});

  admission.Restore(before);
  h->retuner().Restore(plane);
  EXPECT_EQ(admission.state(), before);
  EXPECT_EQ(h->retuner().control_plane(), plane);
}

TEST(ControllerCheckpointTest, RestoredOverloadClusterRunsOnLikeTheOriginal) {
  // Wiping and restoring the control plane in place changes nothing the
  // cluster does afterwards: every action and every admission decision
  // stays the same.
  auto original = OverloadCluster(137);
  auto restored = OverloadCluster(137);
  const SelectiveRetuner::ControlPlane plane =
      restored->retuner().control_plane();
  const AdmissionController::State state = restored->admission()->state();
  restored->retuner().Restore({});
  restored->admission()->Restore({});
  restored->retuner().Restore(plane);
  restored->admission()->Restore(state);

  original->RunFor(150);
  restored->RunFor(150);
  EXPECT_EQ(original->retuner().actions(), restored->retuner().actions());
  const AdmissionController& a = *original->admission();
  const AdmissionController& b = *restored->admission();
  EXPECT_EQ(a.admitted(), b.admitted());
  EXPECT_EQ(a.shed(), b.shed());
  EXPECT_EQ(a.state(), b.state());
  EXPECT_EQ(original->retuner().control_plane(),
            restored->retuner().control_plane());
}

// --- one case per restore rule ---

StatsChannel::Snapshot OneClass(double value) {
  MetricVector v{};
  v.fill(value);
  return {{MakeClassKey(1, 1), v}};
}

TEST(ControllerCheckpointTest, PendingReportIsNotRestored) {
  // A report delivered but not yet collected is in flight, not control
  // state: a restore drops it, so the next collect is stale and keeps
  // the last report the controller collected.
  Simulator sim;
  StatsChannel channel(&sim, {});
  double delay = 0;
  channel.set_net_hook([&delay] {
    FaultInjector::NetDecision d;
    d.delay_seconds = delay;
    return d;
  });
  channel.Publish(1, OneClass(4), 10);
  ASSERT_TRUE(channel.Collect(1).fresh);
  delay = 1;
  channel.Publish(1, OneClass(5), 10);
  sim.RunUntil(2);  // delivered, not collected

  const std::map<int, StatsChannel::Receiver> checkpoint =
      channel.receivers();
  channel.RestoreReceivers(checkpoint);
  EXPECT_EQ(channel.receivers(), checkpoint);
  const StatsChannel::Feed feed = channel.Collect(1);
  EXPECT_FALSE(feed.fresh);
  EXPECT_EQ(feed.last_seq, 1u);
  EXPECT_EQ(feed.stale_intervals, 1u);
  EXPECT_EQ(*feed.snapshot, OneClass(4));
}

TEST(ControllerCheckpointTest, InFlightMigrationComesBackAsACooldown) {
  Fixture f;
  SelectiveRetuner::ControlPlane plane = f.retuner().control_plane();
  const ClassKey key = MakeClassKey(2, 4);
  plane.state.in_flight.insert(key);
  plane.state.placed_at.erase(key);
  f.harness->RunFor(25);  // the restart comes later than the checkpoint
  const SimTime now = f.harness->sim().Now();

  f.retuner().Restore(plane);
  ControlState expected = plane.state;
  expected.in_flight.clear();
  expected.placed_at[key] = now;
  const ControlState restored = f.retuner().control_plane().state;
  EXPECT_EQ(restored, expected);

  // The cooldown holds the move the in-flight set held.
  ControlPolicy policy;
  policy.warmup = 0;
  GateRequest move;
  move.key = key;
  EXPECT_EQ(PlacementGate(plane.state, policy, now, move), Hold::kInFlight);
  EXPECT_EQ(PlacementGate(restored, policy, now, move), Hold::kCooldown);
}

TEST(ControllerCheckpointTest, AnalyzerOfAGoneReplicaIsDropped) {
  Fixture f;
  const SelectiveRetuner::ControlPlane plane = f.retuner().control_plane();
  // Release a spare replica that has baselines in the checkpoint.
  Scheduler* owner = nullptr;
  Replica* spare = nullptr;
  for (const auto& scheduler : f.harness->schedulers()) {
    if (scheduler->replicas().size() < 2) continue;
    for (Replica* r : scheduler->replicas()) {
      if (plane.baselines.contains(r->id())) {
        owner = scheduler.get();
        spare = r;
      }
    }
  }
  ASSERT_NE(spare, nullptr);
  const int gone = spare->id();
  f.harness->resources().Decommission(owner, spare);
  f.harness->RunFor(10);
  ASSERT_EQ(f.harness->resources().FindReplica(gone), nullptr);

  f.retuner().Restore(plane);
  SelectiveRetuner::ControlPlane expected = plane;
  expected.baselines.erase(gone);
  EXPECT_EQ(f.retuner().control_plane(), expected);
}

TEST(ControllerCheckpointTest, RegisteredSlasSurviveARestore) {
  Simulator sim;
  AdmissionController admission(&sim, AdmissionConfig{});
  admission.RegisterApp(1, 0.5);
  admission.Restore({});
  const ClassKey key = MakeClassKey(1, 3);
  admission.OnComplete(key, 0, 0.25);
  // Normalized against the registered 0.5 s SLA, not the 1 s default.
  EXPECT_DOUBLE_EQ(admission.state().classes.at(key).ewma_normalized, 0.5);
}

TEST(ControllerCheckpointTest, AbsentAppRestartsWithNoRetryTokens) {
  Simulator sim;
  AdmissionController admission(&sim, AdmissionConfig{});
  admission.RegisterApp(1, 1.0);
  admission.RegisterApp(2, 1.0);
  for (int i = 0; i < 30; ++i) admission.Admit(MakeClassKey(1, 0), 0, 0);
  const AdmissionController::State checkpoint = admission.state();
  ASSERT_FALSE(checkpoint.retry.contains(2));
  for (int i = 0; i < 30; ++i) admission.Admit(MakeClassKey(2, 0), 0, 0);
  ASSERT_GE(admission.RetryTokens(2), 1.0);

  admission.Restore(checkpoint);
  EXPECT_EQ(admission.RetryTokens(2), 0.0);
  EXPECT_FALSE(admission.TryRetry(2));
  EXPECT_EQ(admission.RetryTokens(1), checkpoint.retry.at(1).tokens);
  EXPECT_TRUE(admission.TryRetry(1));
}

}  // namespace
}  // namespace fglb

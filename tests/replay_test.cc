// Deterministic replay: a capture of a live run, replayed through
// ReplayRunner, must reproduce the controller's decision trace
// byte-for-byte (the --phase=action projection), for a clean scenario,
// for one running under an injected fault schedule, for one whose
// controller provisions replicas and, at a short duration, for every
// scenario. Live runs are built by the same scenario builder fglb_sim
// uses. Plus the what-if evaluator's agreement with the live
// controller's choice.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/trace_check.h"
#include "replay/capture.h"
#include "replay/replayer.h"
#include "replay/what_if.h"
#include "run_and_capture.h"
#include "scenarios/scenario.h"

namespace fglb {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct LiveRun {
  std::vector<std::string> action_lines;
  std::vector<SelectiveRetuner::Action> actions;
};

// Runs `run` live with capture attached, returns its action-trace
// projection, and leaves the capture at `capture_path`.
LiveRun RunLive(const std::string& capture_path, const RunConfig& run) {
  std::unique_ptr<ClusterHarness> harness = RunAndCapture(run, capture_path);
  LiveRun result;
  result.actions = harness->retuner().actions();
  std::string error;
  EXPECT_TRUE(ActionLines(harness->trace().BufferedLines(),
                          &result.action_lines, &error))
      << error;
  return result;
}

// fglb_sim's defaults for `scenario`, at `seed`.
RunConfig Scenario300s(Scenario scenario, uint64_t seed) {
  RunConfig run = ScenarioRunConfig(scenario, 300);
  run.seed = seed;
  return run;
}

// Replays `capture_path` strictly and returns the replayed run's
// action-trace projection; *actions_out receives its action log.
std::vector<std::string> RunReplay(
    const std::string& capture_path,
    std::vector<SelectiveRetuner::Action>* actions_out) {
  Capture capture;
  std::string error;
  EXPECT_TRUE(ReadCapture(capture_path, &capture, &error)) << error;
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  EXPECT_TRUE(runner.Build(&error)) << error;
  runner.harness()->trace().EnableBuffering();
  EXPECT_TRUE(runner.Run(&error)) << error;
  EXPECT_EQ(runner.source()->misses(), 0u);
  EXPECT_EQ(runner.source()->remaining(), 0u);
  *actions_out = runner.harness()->retuner().actions();
  std::vector<std::string> lines;
  EXPECT_TRUE(ActionLines(runner.harness()->trace().BufferedLines(), &lines,
                          &error))
      << error;
  return lines;
}

TEST(ReplayTest, ConsolidationReplayMatchesLiveActionTrace) {
  const std::string path = TempPath("fglb_replay_consolidation.fglbcap");
  const LiveRun live =
      RunLive(path, Scenario300s(Scenario::kConsolidation, 1));
  // The run must actually exercise the controller, or byte-equality of
  // empty traces would prove nothing.
  ASSERT_GT(live.actions.size(), 0u);
  ASSERT_FALSE(live.action_lines.empty());

  std::vector<SelectiveRetuner::Action> replay_actions;
  const std::vector<std::string> replayed = RunReplay(path, &replay_actions);
  EXPECT_EQ(replay_actions, live.actions);
  ASSERT_EQ(replayed.size(), live.action_lines.size());
  for (size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i], live.action_lines[i]) << "action line " << i;
  }
  std::remove(path.c_str());
}

TEST(ReplayTest, ChaosReplayWithFaultSpecMatchesLiveActionTrace) {
  const std::string path = TempPath("fglb_replay_chaos.fglbcap");
  RunConfig run = Scenario300s(Scenario::kChaosReplica, 1);
  run.fault_spec =
      "crash@100:replica=1,restart=60;"
      "stats@150:replica=0,mode=partial,duration=60";
  run.fault_seed = 7;
  const LiveRun live = RunLive(path, run);
  ASSERT_FALSE(live.action_lines.empty());

  std::vector<SelectiveRetuner::Action> replay_actions;
  const std::vector<std::string> replayed = RunReplay(path, &replay_actions);
  EXPECT_EQ(replay_actions, live.actions);
  ASSERT_EQ(replayed.size(), live.action_lines.size());
  for (size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i], live.action_lines[i]) << "action line " << i;
  }
  std::remove(path.c_str());
}

TEST(ReplayTest, ColdStartProvisioningReplaysExactly) {
  // Cold-start provisions half-size (4096-page) replicas: the replay
  // must provision the same size, or the first provisioned replica
  // serves a different stream and the replay diverges.
  const std::string path = TempPath("fglb_replay_cold_start.fglbcap");
  RunConfig run = ScenarioRunConfig(Scenario::kColdStart, 150);
  run.tpcw_clients = 1000;
  const LiveRun live = RunLive(path, run);
  size_t provisions = 0;
  for (const SelectiveRetuner::Action& action : live.actions) {
    if (action.kind == SelectiveRetuner::ActionKind::kCpuProvision) {
      ++provisions;
    }
  }
  ASSERT_GE(provisions, 1u);

  std::vector<SelectiveRetuner::Action> replay_actions;
  const std::vector<std::string> replayed = RunReplay(path, &replay_actions);
  EXPECT_EQ(replay_actions, live.actions);
  EXPECT_EQ(replayed, live.action_lines);
  std::remove(path.c_str());
}

TEST(ReplayTest, EveryScenarioReplaysExactly) {
  // A capture holds no topology: the replayer rebuilds each scenario's
  // cluster from the RunConfig alone. Every scenario must then repeat
  // its live actions, consume every recorded execution and regenerate
  // none (RunReplay checks both counts).
  for (int i = 0; i <= static_cast<int>(Scenario::kColdStart); ++i) {
    const Scenario scenario = static_cast<Scenario>(i);
    SCOPED_TRACE(ScenarioName(scenario));
    const std::string path = TempPath("fglb_replay_every_scenario.fglbcap");
    const LiveRun live = RunLive(path, ScenarioRunConfig(scenario, 120));
    std::vector<SelectiveRetuner::Action> replay_actions;
    const std::vector<std::string> replayed = RunReplay(path, &replay_actions);
    EXPECT_EQ(replay_actions, live.actions);
    EXPECT_EQ(replayed, live.action_lines);
    std::remove(path.c_str());
  }
}

TEST(ReplayTest, ReplayedActionLogMatchesCaptureActions) {
  const std::string path = TempPath("fglb_replay_actions.fglbcap");
  RunLive(path, Scenario300s(Scenario::kConsolidation, 3));
  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  ASSERT_TRUE(runner.Run(&error)) << error;
  const auto& replayed = runner.harness()->retuner().actions();
  ASSERT_EQ(replayed.size(), capture.actions.size());
  for (size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].time, capture.actions[i].time);
    EXPECT_EQ(replayed[i].kind, capture.actions[i].kind);
    EXPECT_EQ(replayed[i].app, capture.actions[i].app);
    EXPECT_EQ(replayed[i].description, capture.actions[i].description);
  }
  std::remove(path.c_str());
}

TEST(ReplayTest, WhatIfRanksCandidatesAndAgreesWithLiveController) {
  const std::string path = TempPath("fglb_replay_whatif.fglbcap");
  RunLive(path, Scenario300s(Scenario::kConsolidation, 1));
  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;

  WhatIfRunner runner(&capture, WhatIfOptions{});
  WhatIfResult result;
  ASSERT_TRUE(runner.Run(&result, &error)) << error;

  ASSERT_EQ(result.candidates.size(), 3u);
  // Ranked best-first, no-op anchored at score 0.
  for (size_t i = 1; i < result.candidates.size(); ++i) {
    EXPECT_GE(result.candidates[i - 1].score, result.candidates[i].score);
  }
  for (const WhatIfCandidate& c : result.candidates) {
    if (c.name == "noop") {
      EXPECT_DOUBLE_EQ(c.score, 0.0);
    }
  }
  // On the consolidation interference window the re-placement must win
  // offline — and match what the live SelectiveRetuner actually did.
  EXPECT_EQ(result.candidates[0].name, "migrate");
  EXPECT_EQ(result.live_choice, "migrate");
  EXPECT_TRUE(result.agrees_with_live);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fglb

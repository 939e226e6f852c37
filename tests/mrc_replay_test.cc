// Tests for the MRC diagnosis configuration as it crosses a capture:
// live-vs-replay identity of every diagnosed curve, OPT regret
// included.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/selective_retuner.h"
#include "mrc/miss_ratio_curve.h"
#include "replay/capture.h"
#include "replay/replayer.h"
#include "run_and_capture.h"
#include "scenarios/scenario.h"

namespace fglb {
namespace {

// --- Live vs replay through FGLBCAP1 ---

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void ExpectSameDiagnoses(
    const std::vector<SelectiveRetuner::DiagnosisRecord>& live,
    const std::vector<SelectiveRetuner::DiagnosisRecord>& replayed) {
  ASSERT_EQ(live.size(), replayed.size());
  const auto same_profiles = [](const std::vector<ClassMemoryProfile>& x,
                                const std::vector<ClassMemoryProfile>& y) {
    ASSERT_EQ(x.size(), y.size());
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].key, y[i].key);
      EXPECT_EQ(x[i].params.total_memory_pages,
                y[i].params.total_memory_pages);
      EXPECT_EQ(x[i].params.acceptable_memory_pages,
                y[i].params.acceptable_memory_pages);
      EXPECT_EQ(x[i].params.ideal_miss_ratio, y[i].params.ideal_miss_ratio);
      EXPECT_EQ(x[i].params.acceptable_miss_ratio,
                y[i].params.acceptable_miss_ratio);
      EXPECT_EQ(x[i].regret_vs_opt, y[i].regret_vs_opt);
    }
  };
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i].time, replayed[i].time);
    EXPECT_EQ(live[i].app, replayed[i].app);
    EXPECT_EQ(live[i].replica_id, replayed[i].replica_id);
    same_profiles(live[i].memory.suspects, replayed[i].memory.suspects);
    same_profiles(live[i].memory.cleared, replayed[i].memory.cleared);
    EXPECT_EQ(live[i].memory.insufficient_data,
              replayed[i].memory.insufficient_data);
  }
}

TEST(MrcReplayTest, LiveAndReplayedCurvesAreIdentical) {
  const std::string path = TempPath("fglb_mrc_replay.fglbcap");
  const double duration = 300;
  const uint64_t seed = 1;

  RunConfig run = ScenarioRunConfig(Scenario::kConsolidation, duration);
  run.seed = seed;
  run.mrc_opt_regret = true;
  const std::unique_ptr<ClusterHarness> live = RunAndCapture(run, path);
  // The run must actually reach phase mrc with the oracle on, or curve
  // identity over an empty diagnosis list would prove nothing.
  const auto& diagnoses = live->retuner().diagnoses();
  ASSERT_FALSE(diagnoses.empty());
  bool regret_computed = false;
  for (const auto& record : diagnoses) {
    for (const auto& profile : record.memory.suspects) {
      regret_computed = regret_computed || profile.regret_vs_opt >= 0;
    }
    for (const auto& profile : record.memory.cleared) {
      regret_computed = regret_computed || profile.regret_vs_opt >= 0;
    }
  }
  EXPECT_TRUE(regret_computed);

  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;
  EXPECT_TRUE(capture.run.mrc_opt_regret);
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  ASSERT_TRUE(runner.Build(&error)) << error;
  EXPECT_TRUE(runner.harness()->retuner().config().mrc.opt_regret);
  ASSERT_TRUE(runner.Run(&error)) << error;

  ExpectSameDiagnoses(diagnoses, runner.harness()->retuner().diagnoses());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fglb

// Tiered capture→replay: a run whose engines carry a second-tier
// cache must replay byte-for-byte — the --phase=action projection
// (demote actions included) and the phase=mrc events with their
// per-tier fields — and the TierConfig must round-trip through the
// FGLBCAP1 info block (the run's RunConfig) so the replayed engines
// rebuild the exact same buffer hierarchy before any replica exists.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/trace_check.h"
#include "replay/capture.h"
#include "replay/replayer.h"
#include "run_and_capture.h"
#include "scenarios/scenario.h"

namespace fglb {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Erases every `"key":<number>` field from a JSON line (with whichever
// neighbouring comma keeps the rest well-formed). Used to drop the
// wall-clock fields (mono_us, dur_us) before byte-comparing trace
// lines: everything else in a phase=mrc event derives from simulated
// time and must reproduce exactly.
std::string StripNumberField(std::string line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  for (;;) {
    const size_t at = line.find(needle);
    if (at == std::string::npos) return line;
    size_t end = at + needle.size();
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    if (end < line.size() && line[end] == ',') {
      ++end;
    } else if (at > 0 && line[at - 1] == ',') {
      line.erase(at - 1, end - at + 1);
      continue;
    }
    line.erase(at, end - at);
  }
}

// The --phase=mrc projection of a buffered trace, wall-clock stripped.
std::vector<std::string> MrcLines(const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    if (line.find("\"phase\":\"mrc\"") == std::string::npos) continue;
    out.push_back(
        StripNumberField(StripNumberField(line, "mono_us"), "dur_us"));
  }
  return out;
}

struct LiveTieredRun {
  std::vector<std::string> action_lines;
  std::vector<std::string> mrc_lines;
  size_t action_count = 0;
};

// Runs `run` live with capture attached, returns its action and mrc
// trace projections, and leaves the capture at `capture_path`.
LiveTieredRun RunLive(const std::string& capture_path, const RunConfig& run) {
  std::unique_ptr<ClusterHarness> harness = RunAndCapture(run, capture_path);
  LiveTieredRun result;
  result.action_count = harness->retuner().actions().size();
  std::string error;
  EXPECT_TRUE(ActionLines(harness->trace().BufferedLines(),
                          &result.action_lines, &error))
      << error;
  result.mrc_lines = MrcLines(harness->trace().BufferedLines());
  return result;
}

// Replays `capture_path` strictly and returns the same projections.
LiveTieredRun RunReplay(const std::string& capture_path) {
  Capture capture;
  std::string error;
  EXPECT_TRUE(ReadCapture(capture_path, &capture, &error)) << error;
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  EXPECT_TRUE(runner.Build(&error)) << error;
  runner.harness()->trace().EnableBuffering();
  EXPECT_TRUE(runner.Run(&error)) << error;
  EXPECT_EQ(runner.source()->misses(), 0u);

  LiveTieredRun result;
  result.action_count = runner.harness()->retuner().actions().size();
  EXPECT_TRUE(ActionLines(runner.harness()->trace().BufferedLines(),
                          &result.action_lines, &error))
      << error;
  result.mrc_lines = MrcLines(runner.harness()->trace().BufferedLines());
  return result;
}

bool AnyContains(const std::vector<std::string>& lines,
                 const std::string& needle) {
  for (const std::string& line : lines) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(TieredReplayTest, TierThrashReplayMatchesLiveActionAndMrcTraces) {
  const std::string path = TempPath("fglb_tiered_replay_thrash.fglbcap");
  // fglb_sim --scenario=tier-thrash --duration=450: the consolidation
  // squeeze on engines with a 16384-page second tier.
  const LiveTieredRun live =
      RunLive(path, ScenarioRunConfig(Scenario::kTierThrash, 450));
  // The run must take the new rung, or byte-equality proves nothing
  // about it.
  ASSERT_GT(live.action_count, 0u);
  ASSERT_TRUE(AnyContains(live.action_lines, "[demote]"));
  // Tiered engines stamp their tier state on every mrc diagnosis.
  ASSERT_FALSE(live.mrc_lines.empty());
  ASSERT_TRUE(AnyContains(live.mrc_lines, "\"tier2_pages\""));

  const LiveTieredRun replayed = RunReplay(path);
  EXPECT_EQ(replayed.action_count, live.action_count);
  ASSERT_EQ(replayed.action_lines.size(), live.action_lines.size());
  for (size_t i = 0; i < replayed.action_lines.size(); ++i) {
    EXPECT_EQ(replayed.action_lines[i], live.action_lines[i])
        << "action line " << i;
  }
  ASSERT_EQ(replayed.mrc_lines.size(), live.mrc_lines.size());
  for (size_t i = 0; i < replayed.mrc_lines.size(); ++i) {
    EXPECT_EQ(replayed.mrc_lines[i], live.mrc_lines[i]) << "mrc line " << i;
  }
  std::remove(path.c_str());
}

TEST(TieredReplayTest, TierFailReplayMatchesLiveActionTrace) {
  const std::string path = TempPath("fglb_tiered_replay_fail.fglbcap");
  // fglb_sim's default tier-fail schedule for a 450s run: the SSD dies
  // cold mid-run, recovers, then later merely degrades.
  RunConfig run = ScenarioRunConfig(Scenario::kTierFail, 450);
  run.fault_seed = 7;
  ASSERT_EQ(run.fault_spec,
            "tier@150:replica=0,mode=fail,duration=75;"
            "tier@300:replica=0,mode=degrade,factor=10,duration=75");
  const LiveTieredRun live = RunLive(path, run);
  ASSERT_FALSE(live.action_lines.empty());

  const LiveTieredRun replayed = RunReplay(path);
  EXPECT_EQ(replayed.action_count, live.action_count);
  ASSERT_EQ(replayed.action_lines.size(), live.action_lines.size());
  for (size_t i = 0; i < replayed.action_lines.size(); ++i) {
    EXPECT_EQ(replayed.action_lines[i], live.action_lines[i])
        << "action line " << i;
  }
  ASSERT_EQ(replayed.mrc_lines.size(), live.mrc_lines.size());
  for (size_t i = 0; i < replayed.mrc_lines.size(); ++i) {
    EXPECT_EQ(replayed.mrc_lines[i], live.mrc_lines[i]) << "mrc line " << i;
  }
  std::remove(path.c_str());
}

TEST(TieredReplayTest, TierConfigRoundTripsThroughCaptureInfoBlock) {
  const std::string path = TempPath("fglb_tiered_replay_info.fglbcap");
  RunConfig run = ScenarioRunConfig(Scenario::kTierThrash, 60);
  run.seed = 3;
  run.tier2_pages = 8192;
  run.tier2_read_us = 250;
  run.replacement = ReplacementPolicy::kArc;
  RunLive(path, run);

  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;
  EXPECT_EQ(capture.run.tier2_pages, 8192u);
  EXPECT_EQ(capture.run.tier2_read_us, 250);
  EXPECT_TRUE(capture.run.tier2_demote);
  EXPECT_EQ(capture.run.replacement, ReplacementPolicy::kArc);

  // Building the replay installs both as engine defaults before any
  // replica exists, so the rebuilt engines carry the same hierarchy.
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  ASSERT_TRUE(runner.Build(&error)) << error;
  const TierConfig& rebuilt = runner.harness()->resources().engine_tier();
  EXPECT_EQ(rebuilt.pages, 8192u);
  EXPECT_DOUBLE_EQ(rebuilt.read_us, 250);
  EXPECT_TRUE(rebuilt.demote);
  EXPECT_EQ(runner.harness()->resources().engine_replacement(),
            ReplacementPolicy::kArc);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fglb

// Byte-identical replay at scale: a live overload run at 10x the
// default client population, driven by the batched-cohort client
// emulator, captured and replayed through ReplayRunner. The replayed
// run's action and admission trace projections must match the live
// run byte for byte — the cohort fast path and the calendar-queue
// kernel change how events are produced, not what the cluster does,
// and the capture/replay contract has to survive both.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/trace_check.h"
#include "replay/capture.h"
#include "replay/replayer.h"
#include "run_and_capture.h"
#include "scenarios/scenario.h"

namespace fglb {
namespace {

constexpr double kDurationSeconds = 240;
constexpr uint64_t kSeed = 11;

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// The run-to-run comparable projection of one phase's events: the raw
// trace lines minus the wall-clock header field (mono_us differs
// across runs by construction; everything else must not).
std::vector<std::string> PhaseLines(const std::vector<std::string>& lines,
                                    const std::string& phase) {
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    if (line.empty()) continue;
    JsonValue event;
    std::string error;
    EXPECT_TRUE(JsonValue::Parse(line, &event, &error)) << error;
    if (event.StringOr("phase", "") != phase) continue;
    event.object.erase("mono_us");
    out.push_back(event.Dump());
  }
  return out;
}

struct RunTraces {
  std::vector<std::string> action;
  std::vector<std::string> admission;
};

RunTraces TracesOf(const std::vector<std::string>& lines) {
  RunTraces traces;
  std::string error;
  EXPECT_TRUE(CheckTraceLines(lines, &error)) << error;
  EXPECT_TRUE(ActionLines(lines, &traces.action, &error)) << error;
  traces.admission = PhaseLines(lines, "admission");
  return traces;
}

TEST(ScaleReplayTest, CohortOverloadAt10xReplaysByteIdentically) {
  const std::string path = TempPath("fglb_scale_replay_overload.fglbcap");

  // --- live: overload topology at 10x, cohorts on, capture attached.
  RunTraces live;
  uint64_t live_completed = 0;
  {
    // fglb_sim --scenario=overload --clients-scale=10 --cohorts=on:
    // 7.5 x 1200 TPC-W clients on one replica, admission on. The
    // 9000 clients sit under the 10k auto-cohort threshold, so cohorts
    // are forced on.
    RunConfig run = ScenarioRunConfig(Scenario::kOverload, kDurationSeconds);
    run.seed = kSeed;
    run.tpcw_clients = 120 * 10;
    run.cohorts = "on";
    const std::unique_ptr<ClusterHarness> harness = RunAndCapture(run, path);
    live_completed = harness->schedulers()[0]->total_completed();
    live = TracesOf(harness->trace().BufferedLines());
  }
  // The run must actually overload the replica and trip admission, or
  // byte-equality of empty projections would prove nothing.
  ASSERT_GT(live_completed, 0u);
  ASSERT_FALSE(live.admission.empty());

  // --- replay: strict mode, zero generated fallbacks allowed.
  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  ASSERT_TRUE(runner.Build(&error)) << error;
  runner.harness()->trace().EnableBuffering();
  ASSERT_TRUE(runner.Run(&error)) << error;
  EXPECT_EQ(runner.source()->misses(), 0u);
  EXPECT_EQ(runner.source()->remaining(), 0u);
  const RunTraces replayed =
      TracesOf(runner.harness()->trace().BufferedLines());

  EXPECT_EQ(replayed.action, live.action);
  EXPECT_EQ(replayed.admission, live.admission);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace fglb

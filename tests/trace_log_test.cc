#include "common/trace_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/trace_check.h"
#include "scenarios/scenario.h"
#include "text_mutator.h"

namespace fglb {
namespace {

JsonValue MustParse(const std::string& line) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(JsonValue::Parse(line, &value, &error))
      << error << " in: " << line;
  return value;
}

TEST(TraceLogTest, DisabledByDefaultAndEmitIsNoOp) {
  TraceLog log;
  EXPECT_FALSE(log.enabled());
  log.Emit(TraceEvent("sla"));
  EXPECT_EQ(log.events_emitted(), 0u);
  EXPECT_TRUE(log.BufferedLines().empty());
}

TEST(TraceLogTest, BufferedEventsCarryHeaderAndSequence) {
  TraceLog log;
  log.EnableBuffering();
  ASSERT_TRUE(log.enabled());
  log.Emit(TraceEvent("sla").Num("t", 30));
  log.Emit(TraceEvent("action").Str("kind", "none"));
  EXPECT_EQ(log.events_emitted(), 2u);

  const std::vector<std::string> lines = log.BufferedLines();
  ASSERT_EQ(lines.size(), 2u);
  for (size_t i = 0; i < lines.size(); ++i) {
    const JsonValue event = MustParse(lines[i]);
    EXPECT_DOUBLE_EQ(event.NumberOr("v", -1), TraceLog::kSchemaVersion);
    EXPECT_DOUBLE_EQ(event.NumberOr("seq", -1),
                     static_cast<double>(i));
    EXPECT_NE(event.Find("mono_us"), nullptr);
    EXPECT_GE(event.NumberOr("mono_us", -1), 0);
  }
  EXPECT_EQ(MustParse(lines[0]).StringOr("phase", ""), "sla");
  EXPECT_EQ(MustParse(lines[1]).StringOr("phase", ""), "action");
}

TEST(TraceLogTest, AllFieldTypesRoundTrip) {
  TraceLog log;
  log.EnableBuffering();
  log.Emit(TraceEvent("iqr")
               .Str("name", "metric \"latency\"\nline2\t\\end")
               .Num("ratio", 1.53125)
               .Int("delta", -42)
               .Uint("big", 12345678901234567890ull)
               .Bool("high", true)
               .Bool("low", false)
               .Raw("fences", "[{\"q1\":1,\"q3\":3}]"));
  const std::vector<std::string> lines = log.BufferedLines();
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue event = MustParse(lines[0]);
  EXPECT_EQ(event.StringOr("name", ""), "metric \"latency\"\nline2\t\\end");
  EXPECT_DOUBLE_EQ(event.NumberOr("ratio", 0), 1.53125);
  EXPECT_DOUBLE_EQ(event.NumberOr("delta", 0), -42);
  // %.17g-free path: Uint is emitted as an integer literal; the parsed
  // double is the nearest representable value.
  EXPECT_NEAR(event.NumberOr("big", 0), 12345678901234567890.0, 1e4);
  EXPECT_TRUE(event.BoolOr("high", false));
  EXPECT_FALSE(event.BoolOr("low", true));
  const JsonValue* fences = event.Find("fences");
  ASSERT_NE(fences, nullptr);
  ASSERT_TRUE(fences->is_array());
  ASSERT_EQ(fences->array.size(), 1u);
  EXPECT_DOUBLE_EQ(fences->array[0].NumberOr("q1", 0), 1);
  EXPECT_DOUBLE_EQ(fences->array[0].NumberOr("q3", 0), 3);
}

TEST(TraceLogTest, CloseDisablesFileModeEmission) {
  const std::string path = ::testing::TempDir() + "/fglb_trace_close.jsonl";
  TraceLog log;
  std::string error;
  ASSERT_TRUE(log.OpenFile(path, &error)) << error;
  log.Emit(TraceEvent("sla"));
  log.Close();
  EXPECT_FALSE(log.enabled());
  log.Emit(TraceEvent("sla"));
  EXPECT_EQ(log.events_emitted(), 1u);
  std::remove(path.c_str());
}

TEST(TraceLogTest, FileModeWritesOneJsonObjectPerLine) {
  const std::string path = ::testing::TempDir() + "/fglb_trace_test.jsonl";
  {
    TraceLog log;
    std::string error;
    ASSERT_TRUE(log.OpenFile(path, &error)) << error;
    log.Emit(TraceEvent("sla").Num("t", 30).Bool("sla_met", false));
    log.Emit(TraceEvent("mrc").Num("dur_us", 12.5));
    log.Close();
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::vector<std::string> lines;
  std::string current;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(static_cast<char>(c));
    }
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(current.empty());  // file ends with a newline
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue first = MustParse(lines[0]);
  EXPECT_EQ(first.StringOr("phase", ""), "sla");
  EXPECT_FALSE(first.BoolOr("sla_met", true));
  const JsonValue second = MustParse(lines[1]);
  EXPECT_EQ(second.StringOr("phase", ""), "mrc");
  EXPECT_DOUBLE_EQ(second.NumberOr("dur_us", 0), 12.5);
  EXPECT_DOUBLE_EQ(second.NumberOr("seq", -1), 1);
}

TEST(TraceLogTest, OpenFileFailureReportsError) {
  TraceLog log;
  std::string error;
  EXPECT_FALSE(log.OpenFile("/nonexistent-dir/zzz/trace.jsonl", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(log.enabled());
}

// --- the decision-chain rule of CheckTraceLines ---

TraceEvent Sla(double t, int app = 1) {
  return TraceEvent("sla").Num("t", t).Int("app", app);
}

TraceEvent Measured(const char* phase, int replica, double t = 10,
                    int app = 1) {
  return TraceEvent(phase).Num("t", t).Int("app", app).Int("replica", replica);
}

TraceEvent Skipped(const char* phase, double t = 10, int app = 1) {
  return TraceEvent(phase).Num("t", t).Int("app", app).Bool("skipped", true);
}

TraceEvent Act(double t = 10, int app = 1) {
  return TraceEvent("action").Num("t", t).Int("app", app).Str("kind", "none");
}

// CheckTraceLines' message for `events` written as one trace; empty
// when the trace passes.
std::string ChainError(const std::vector<TraceEvent>& events) {
  TraceLog log;
  log.EnableBuffering();
  for (const TraceEvent& event : events) log.Emit(event);
  std::string error;
  return CheckTraceLines(log.BufferedLines(), &error) ? "" : error;
}

TEST(TraceCheckTest, CompleteChainsAndLooseActionsPass) {
  EXPECT_EQ(ChainError({Sla(10), Measured("impact", 0), Measured("iqr", 0),
                        Measured("mrc", 0), Measured("impact", 2),
                        Measured("iqr", 2), Act(10), Act(10, 2),
                        TraceEvent("migration").Num("t", 12), Act(12),
                        Sla(20), Skipped("impact", 20), Skipped("iqr", 20),
                        Skipped("mrc", 20), Act(20), Act(30)}),
            "");
  // Measured impact and iqr, the mrc back-filled; a new chain closes
  // one that acted.
  EXPECT_EQ(ChainError({Sla(10), Measured("impact", 1), Measured("iqr", 1),
                        Skipped("mrc"), Act(10), Sla(10, 2),
                        Skipped("impact", 10, 2), Skipped("iqr", 10, 2),
                        Skipped("mrc", 10, 2), Act(10, 2)}),
            "");
}

TEST(TraceCheckTest, OnlyItsPhasesMayComeBeforeTheChainsAction) {
  EXPECT_EQ(ChainError({Sla(10), TraceEvent("migration").Num("t", 10)}),
            "line 2: migration before the action of the sla at line 1");
  EXPECT_EQ(ChainError({Sla(10), Measured("impact", 0, 10, 2)}),
            "line 2: impact of another app or t than its sla");
  EXPECT_EQ(ChainError({Sla(10), Measured("impact", 0), Measured("iqr", 0),
                        Skipped("mrc"), Act(10), Measured("impact", 0)}),
            "line 6: impact outside a decision chain");
}

TEST(TraceCheckTest, MeasuredImpactIsFollowedAtOnceByItsIqr) {
  EXPECT_EQ(ChainError({Sla(10), Measured("impact", 0), Measured("mrc", 0)}),
            "line 3: mrc between an impact and its iqr");
  EXPECT_EQ(ChainError({Sla(10), Measured("impact", 0), Measured("iqr", 1)}),
            "line 3: iqr between an impact and its iqr");
  EXPECT_EQ(ChainError({Sla(10), Measured("iqr", 0)}),
            "line 2: iqr without its impact");
}

TEST(TraceCheckTest, MeasuredMrcFollowsItsReplicasIqrOnce) {
  EXPECT_EQ(ChainError({Sla(10), Measured("impact", 0), Measured("iqr", 0),
                        Measured("mrc", 1)}),
            "line 4: mrc before the iqr of its replica");
  EXPECT_EQ(ChainError({Sla(10), Measured("impact", 0), Measured("iqr", 0),
                        Measured("mrc", 0), Measured("mrc", 0)}),
            "line 5: mrc twice for one replica");
}

TEST(TraceCheckTest, BackFillsComeLastOnceEachAndOnlyForPhasesThatNeverRan) {
  EXPECT_EQ(ChainError({Sla(10), Skipped("mrc"), Measured("impact", 0)}),
            "line 3: impact measured after a back-fill");
  EXPECT_EQ(ChainError({Sla(10), Skipped("impact"), Skipped("impact")}),
            "line 3: impact back-filled twice");
  EXPECT_EQ(ChainError({Sla(10), Measured("impact", 0), Measured("iqr", 0),
                        Skipped("iqr")}),
            "line 4: iqr back-filled after it ran");
}

TEST(TraceCheckTest, TheChainEndsInActionsAtItsT) {
  EXPECT_EQ(ChainError({Sla(10), Act(10)}),
            "line 2: action before its impact, iqr and mrc");
  EXPECT_EQ(ChainError({Sla(10), Skipped("impact"), Skipped("iqr"),
                        Skipped("mrc"), Act(20)}),
            "line 5: action at another t than its sla");
  EXPECT_EQ(ChainError({Sla(10), Measured("impact", 0), Act(10)}),
            "line 3: action before the iqr of its impact");
}

TEST(TraceCheckTest, AChainMustActBeforeItCloses) {
  EXPECT_EQ(ChainError({Sla(10), Skipped("impact"), Sla(20)}),
            "line 3: sla before the action of the sla at line 1");
  EXPECT_EQ(ChainError({Act(5), Sla(10), Skipped("impact")}),
            "line 2: sla chain ends without an action");
}

TEST(TraceCheckTest, MutatedLinesOfAChaosCtlTraceNeverBreakTheReaders) {
  // The buffered trace of a short chaos-ctl run (a lossy window, a
  // controller crash and its restore), one line mutated per trial,
  // 2,000 trials with a fixed seed. JsonValue::Parse must return and
  // leave a message and *out untouched when it rejects the line;
  // CheckTraceLines must return, and a rejection names one of the
  // trace's lines as "line N: ".
  const RunConfig run = ScenarioRunConfig(Scenario::kChaosCtl, 120);
  auto h = MakeHarness(run, /*analysis_threads=*/1);
  h->trace().EnableBuffering();
  AssembleScenario(run, h.get());
  std::string error;
  ASSERT_TRUE(ArmRun(run, h.get(), &error)) << error;
  h->Start();
  h->RunFor(run.duration_seconds);
  std::vector<std::string> lines = h->trace().BufferedLines();
  ASSERT_TRUE(CheckTraceLines(lines, &error)) << error;
  ASSERT_GT(lines.size(), 10u);

  const JsonValue sentinel = MustParse(R"({"sentinel":true})");
  std::mt19937_64 rng(2512);
  int rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    const size_t at = rng() % lines.size();
    const std::string original = lines[at];
    lines[at] = MutateText(original, rng);
    SCOPED_TRACE(testing::Message() << "mutant " << i << " of line "
                                    << at + 1 << ": " << lines[at]);
    JsonValue value = sentinel;
    error.clear();
    if (!JsonValue::Parse(lines[at], &value, &error)) {
      EXPECT_FALSE(error.empty());
      EXPECT_EQ(value.Dump(), sentinel.Dump());
    }
    error.clear();
    if (!CheckTraceLines(lines, &error)) {
      ++rejected;
      size_t named = 0;
      EXPECT_EQ(std::sscanf(error.c_str(), "line %zu: ", &named), 1) << error;
      EXPECT_GE(named, 1u) << error;
      EXPECT_LE(named, lines.size()) << error;
    }
    lines[at] = original;
  }
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace fglb

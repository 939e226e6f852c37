// Span tracer invariants: the recorded segments of every sampled query
// partition its measured end-to-end latency (residual < 1%), sampling
// is deterministic (two identical runs export byte-identical span
// JSON, and a replayed capture reproduces the live run's span file),
// and the whole layer is a null-check no-op when not enabled.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/span_tracer.h"
#include "replay/capture.h"
#include "replay/replayer.h"
#include "run_and_capture.h"
#include "scenarios/scenario.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// fglb_sim's consolidation scenario (TPC-W steady, RUBiS stepping in)
// so spans cover the full pipeline: disk waits, CPU waits, lock waits,
// and — under pressure — shed/penalty fast-fails.
RunConfig Consolidation(double duration, uint64_t seed) {
  RunConfig run = ScenarioRunConfig(Scenario::kConsolidation, duration);
  run.seed = seed;
  return run;
}

void AssembleConsolidation(ClusterHarness* harness, double duration,
                           uint64_t seed) {
  AssembleScenario(Consolidation(duration, seed), harness);
}

TEST(SpanTracerTest, SegmentsPartitionMeasuredLatency) {
  // Sample every query; every finished span's segment sum must equal
  // its measured end-to-end latency to within 1% (the acceptance bound;
  // the construction is exact up to FP rounding).
  SpanConfig config;
  config.sample_every = 1;
  ClusterHarness harness;
  AssembleConsolidation(&harness, 200, /*seed=*/1);
  SpanTracer* spans = harness.EnableSpanTracing(config);
  ASSERT_NE(spans, nullptr);

  uint64_t observed = 0;
  double worst_residual_share = 0;
  spans->SetFinishObserver(
      [&](const QuerySpan& span, double end_to_end) {
        ++observed;
        const double residual = std::abs(span.SegmentSum() - end_to_end);
        const double share =
            end_to_end > 0 ? residual / end_to_end : residual;
        if (share > worst_residual_share) worst_residual_share = share;
      });
  harness.Start();
  harness.RunFor(200);

  EXPECT_GT(observed, 1000u);
  EXPECT_EQ(observed, spans->finished());
  EXPECT_EQ(spans->sampled(), spans->sequence());
  EXPECT_LT(worst_residual_share, 0.01);
}

TEST(SpanTracerTest, WaitProfileAggregatesIntoRegistry) {
  SpanConfig config;
  config.sample_every = 8;
  ClusterHarness harness;
  AssembleConsolidation(&harness, 150, /*seed=*/2);
  SpanTracer* spans = harness.EnableSpanTracing(config);
  harness.Start();
  harness.RunFor(150);

  ASSERT_GT(spans->finished(), 0u);
  // 1-in-8 deterministic sampling by submit sequence.
  EXPECT_EQ(spans->sampled(), (spans->sequence() + 7) / 8);

  // The aggregate histograms live in the harness registry under the
  // span.* namespace.
  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(harness.metrics().ToJson(), &root, &error))
      << error;
  const JsonValue* histograms = root.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  // Every class registers its full segment family eagerly (so the
  // profile shape is stable); only exercised segments accumulate.
  bool span_series = false;
  double span_samples = 0;
  for (const auto& [name, value] : histograms->object) {
    if (name.rfind("span.", 0) != 0) continue;
    span_series = true;
    span_samples += value.NumberOr("count", 0);
    EXPECT_GE(value.NumberOr("sum_us", -1), 0) << name;
    EXPECT_NE(value.Find("p99_us"), nullptr) << name;
  }
  EXPECT_TRUE(span_series);
  EXPECT_GT(span_samples, 0);

  // The per-app wait profile is valid JSON with per-class breakdowns.
  JsonValue profile;
  ASSERT_TRUE(JsonValue::Parse(spans->WaitProfileJson(1), &profile, &error))
      << error;
  ASSERT_TRUE(profile.is_array());
  ASSERT_FALSE(profile.array.empty());
  for (const JsonValue& cls : profile.array) {
    EXPECT_DOUBLE_EQ(cls.NumberOr("app", -1), 1);
    EXPECT_GT(cls.NumberOr("sampled", 0), 0);
    EXPECT_NE(cls.Find("end_to_end"), nullptr);
    const JsonValue* segments = cls.Find("segments");
    ASSERT_NE(segments, nullptr);
    EXPECT_TRUE(segments->is_array());
  }
}

// Cohort mode exercises the batched client emulator — sampling is by
// the scheduler's global submit sequence, so it must stay 1-in-N and
// byte-deterministic no matter how arrivals are generated.
std::string RunBufferedSpans(uint64_t seed) {
  SpanConfig config;
  config.sample_every = 32;
  ClusterHarness harness;
  harness.AddServers(4);
  PhysicalServer* first = harness.resources().servers()[0].get();
  Scheduler* tpcw = harness.AddApplication(MakeTpcw());
  Replica* replica = harness.resources().CreateReplica(first, 8192);
  tpcw->AddReplica(replica);
  ClientEmulator::Options cohort;
  cohort.cohort = true;
  harness.AddConstantClients(tpcw, 120, seed, cohort);
  SpanTracer* spans = harness.EnableSpanTracing(config);
  spans->EnableBuffering();
  harness.Start();
  harness.RunFor(150);
  spans->Close();
  return spans->BufferedJson();
}

TEST(SpanTracerTest, ExportIsDeterministicAcrossIdenticalCohortRuns) {
  const std::string first = RunBufferedSpans(5);
  const std::string second = RunBufferedSpans(5);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  // And the export is valid Chrome trace_event JSON: one array of
  // objects whose "X" slices carry ts/dur.
  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(first, &root, &error)) << error;
  ASSERT_TRUE(root.is_array());
  ASSERT_FALSE(root.array.empty());
  uint64_t slices = 0;
  for (const JsonValue& event : root.array) {
    ASSERT_TRUE(event.is_object());
    const std::string ph = event.StringOr("ph", "");
    EXPECT_FALSE(ph.empty());
    if (ph == "X") {
      ++slices;
      EXPECT_GE(event.NumberOr("ts", -1), 0);
      EXPECT_GE(event.NumberOr("dur", -1), 0);
    }
  }
  EXPECT_GT(slices, 0u);
}

TEST(SpanTracerTest, CaptureReplayReproducesSpanOutputByteForByte) {
  const std::string path = TempPath("fglb_span_tracer_replay.fglbcap");
  const double duration = 200;
  std::string live_spans;
  {
    RunConfig run = Consolidation(duration, /*seed=*/1);
    run.span_sample = 16;
    const std::unique_ptr<ClusterHarness> harness = RunAndCapture(run, path);
    SpanTracer* spans = harness->span_tracer();
    ASSERT_NE(spans, nullptr);
    spans->Close();
    live_spans = spans->BufferedJson();
    ASSERT_GT(spans->finished(), 0u);
  }

  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;
  EXPECT_EQ(capture.run.span_sample, 16u);
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  ASSERT_TRUE(runner.Build(&error)) << error;
  SpanTracer* replay_spans = runner.harness()->span_tracer();
  // The span config traveled in the capture, so the replayed harness
  // already has an identically-configured tracer.
  ASSERT_NE(replay_spans, nullptr);
  EXPECT_EQ(replay_spans->config().sample_every, 16u);
  replay_spans->EnableBuffering();
  ASSERT_TRUE(runner.Run(&error)) << error;
  replay_spans->Close();

  EXPECT_EQ(replay_spans->BufferedJson(), live_spans);
  std::remove(path.c_str());
}

TEST(SpanTracerTest, DisabledLayerIsANoOp) {
  // No EnableSpanTracing: queries flow normally, no span instrument
  // ever reaches the registry, and no tracer exists to consult.
  ClusterHarness harness;
  AssembleConsolidation(&harness, 120, /*seed=*/3);
  harness.Start();
  harness.RunFor(120);

  EXPECT_EQ(harness.span_tracer(), nullptr);
  EXPECT_GT(harness.schedulers()[0]->total_completed(), 0u);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(harness.metrics().ToJson(), &root, &error))
      << error;
  const JsonValue* histograms = root.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  for (const auto& [name, value] : histograms->object) {
    EXPECT_NE(name.rfind("span.", 0), 0u) << "unexpected " << name;
  }
}

TEST(SpanTracerTest, TracedRunStaysDeterministicVsUntraced) {
  // Span tracing must not perturb the simulation: the same scenario
  // with and without a tracer completes the same queries and takes the
  // same controller actions.
  auto run = [](bool traced) {
    ClusterHarness harness;
    AssembleConsolidation(&harness, 150, /*seed=*/7);
    if (traced) {
      SpanConfig config;
      config.sample_every = 4;
      harness.EnableSpanTracing(config);
    }
    harness.Start();
    harness.RunFor(150);
    return std::make_tuple(harness.schedulers()[0]->total_completed(),
                           harness.schedulers()[1]->total_completed(),
                           harness.retuner().actions().size(),
                           harness.retuner().samples().size());
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace fglb

// Tests for the streaming MRC engine: differential agreement with the
// recompute path at every curve point across trace shapes and sample
// rates, the documented sliding-window error bound, determinism, the
// LogAnalyzer streaming diagnosis path, and live-vs-replay curve
// identity through a FGLBCAP1 capture.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/log_analyzer.h"
#include "core/selective_retuner.h"
#include "engine/database_engine.h"
#include "mrc/miss_ratio_curve.h"
#include "mrc/streaming_mrc.h"
#include "replay/capture.h"
#include "replay/replayer.h"
#include "scenarios/harness.h"
#include "storage/disk_model.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

std::vector<PageId> MakeZipfTrace(uint64_t pages, double theta, size_t n,
                                  uint64_t seed) {
  Rng rng(seed);
  ZipfGenerator zipf(pages, theta);
  std::vector<PageId> trace;
  trace.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    trace.push_back(MakePageId(1, ScrambleToDomain(zipf.Sample(rng), pages)));
  }
  return trace;
}

std::vector<PageId> MakeScanTrace(uint64_t region, int repetitions) {
  std::vector<PageId> trace;
  trace.reserve(region * repetitions);
  for (int r = 0; r < repetitions; ++r) {
    for (uint64_t i = 0; i < region; ++i) trace.push_back(MakePageId(2, i));
  }
  return trace;
}

std::vector<PageId> MakeLoopingTrace(uint64_t hot, uint64_t wide, size_t n,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<PageId> trace;
  trace.reserve(n);
  uint64_t sweep_pos = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i % 8 == 0) {
      trace.push_back(MakePageId(3, hot + (sweep_pos++ % wide)));
    } else {
      trace.push_back(MakePageId(3, rng.NextUint64(hot)));
    }
  }
  return trace;
}

double MaxCurveDivergence(const MissRatioCurve& a, const MissRatioCurve& b) {
  const uint64_t max_pages = std::max(a.max_pages(), b.max_pages());
  double worst = 0;
  for (uint64_t cache = 0; cache <= max_pages; ++cache) {
    worst = std::max(worst,
                     std::fabs(a.MissRatioAt(cache) - b.MissRatioAt(cache)));
  }
  return worst;
}

// --- Differential: streaming vs window recompute, no expiry ---

// With the window at least as long as the trace, the estimator is a
// pure incremental Mattson computation over the same sampled
// references as the recompute path (shared page hash, shared
// adjusted-mass policy), so the curves must agree exactly at every
// cache size — not merely within a tolerance.
//
// Each case prints as its name, so the ctest name (which CMake builds
// from the printed parameter) is the same in every build; the raw
// bytes gtest would print otherwise include a function pointer.
struct DifferentialCase {
  const char* name;
  std::vector<PageId> (*make)();
  double sample_rate;
};

void PrintTo(const DifferentialCase& c, std::ostream* os) { *os << c.name; }

std::vector<PageId> SkewedTrace() { return MakeZipfTrace(2000, 0.9, 40000, 7); }
std::vector<PageId> SequentialTrace() { return MakeScanTrace(1500, 24); }
std::vector<PageId> LoopTrace() {
  return MakeLoopingTrace(1000, 3000, 40000, 11);
}

class StreamingDifferentialTest
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(StreamingDifferentialTest, MatchesRecomputeAtEveryCacheSize) {
  const DifferentialCase& param = GetParam();
  const std::vector<PageId> trace = param.make();

  StreamingMrcEstimator::Options options;
  options.sample_rate = param.sample_rate;
  options.window_accesses = trace.size();  // no expiry
  StreamingMrcEstimator estimator(options);
  for (PageId p : trace) estimator.Record(p);
  const MissRatioCurve streaming = estimator.Curve();

  MrcConfig config;
  config.sample_rate = param.sample_rate;
  const MissRatioCurve recompute = MissRatioCurve::FromTrace(
      SpanPair<PageId>(std::span<const PageId>(trace)), config);

  ASSERT_EQ(streaming.total_accesses(), recompute.total_accesses());
  const uint64_t max_pages =
      std::max(streaming.max_pages(), recompute.max_pages());
  for (uint64_t cache = 0; cache <= max_pages; ++cache) {
    ASSERT_DOUBLE_EQ(streaming.MissRatioAt(cache),
                     recompute.MissRatioAt(cache))
        << param.name << " at cache size " << cache;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Traces, StreamingDifferentialTest,
    ::testing::Values(DifferentialCase{"zipf_exact", &SkewedTrace, 1.0},
                      DifferentialCase{"zipf_8th", &SkewedTrace, 1.0 / 8},
                      DifferentialCase{"zipf_4th", &SkewedTrace, 1.0 / 4},
                      DifferentialCase{"scan_exact", &SequentialTrace, 1.0},
                      DifferentialCase{"scan_8th", &SequentialTrace, 1.0 / 8},
                      DifferentialCase{"loop_exact", &LoopTrace, 1.0},
                      DifferentialCase{"loop_8th", &LoopTrace, 1.0 / 8}));

// --- Sliding-window error bound ---

// Once the window slides, the streaming curve may differ from a
// from-scratch recomputation of the final window only through
// references whose previous use straddles the window start — at most
// one per distinct page, so the divergence is bounded by
// distinct/window (the error model documented on the class).
TEST(StreamingWindowTest, ExpiryDivergenceWithinDocumentedBound) {
  const size_t kWindow = 8000;
  const std::vector<PageId> trace = MakeZipfTrace(1000, 0.8, 24000, 17);

  StreamingMrcEstimator::Options options;
  options.sample_rate = 1.0;  // no sampling noise: isolate windowing
  options.window_accesses = kWindow;
  StreamingMrcEstimator estimator(options);
  for (PageId p : trace) estimator.Record(p);
  EXPECT_EQ(estimator.in_window_accesses(), kWindow);

  const std::vector<PageId> window(trace.end() - kWindow, trace.end());
  const std::unordered_set<PageId> distinct(window.begin(), window.end());
  const MissRatioCurve recompute =
      MissRatioCurve::FromTrace(std::span<const PageId>(window));

  const double bound =
      static_cast<double>(distinct.size()) / static_cast<double>(kWindow);
  EXPECT_LE(MaxCurveDivergence(estimator.Curve(), recompute), bound);
}

TEST(StreamingWindowTest, SampledLiveStaysBoundedByWindow) {
  StreamingMrcEstimator::Options options;
  options.sample_rate = 1.0 / 8;
  options.window_accesses = 4000;
  StreamingMrcEstimator estimator(options);
  const std::vector<PageId> trace = MakeZipfTrace(3000, 0.5, 50000, 19);
  for (PageId p : trace) estimator.Record(p);
  // Only window-resident sampled references may be retained.
  EXPECT_LE(estimator.sampled_live(), options.window_accesses);
  // And the hash really thins the stream (generous envelope).
  EXPECT_LT(estimator.sampled_live(), options.window_accesses / 4);
  EXPECT_EQ(estimator.total_accesses(), trace.size());
}

// --- Determinism ---

TEST(StreamingDeterminismTest, SameInputYieldsIdenticalCurve) {
  const std::vector<PageId> trace = MakeZipfTrace(1200, 0.7, 30000, 23);
  StreamingMrcEstimator::Options options;
  options.sample_rate = 1.0 / 8;
  options.window_accesses = 10000;
  StreamingMrcEstimator a(options);
  StreamingMrcEstimator b(options);
  for (PageId p : trace) {
    a.Record(p);
    b.Record(p);
  }
  const MissRatioCurve ca = a.Curve();
  const MissRatioCurve cb = b.Curve();
  ASSERT_EQ(ca.max_pages(), cb.max_pages());
  ASSERT_EQ(ca.total_accesses(), cb.total_accesses());
  for (uint64_t cache = 0; cache <= ca.max_pages(); ++cache) {
    ASSERT_EQ(ca.MissRatioAt(cache), cb.MissRatioAt(cache))
        << "cache size " << cache;
  }
}

TEST(StreamingDeterminismTest, ResetMatchesFreshInstance) {
  const std::vector<PageId> first = MakeZipfTrace(500, 0.9, 12000, 29);
  const std::vector<PageId> second = MakeZipfTrace(900, 0.4, 12000, 31);
  StreamingMrcEstimator::Options options;
  options.sample_rate = 1.0 / 4;
  options.window_accesses = 6000;
  StreamingMrcEstimator reused(options);
  for (PageId p : first) reused.Record(p);
  reused.Reset();
  EXPECT_EQ(reused.total_accesses(), 0u);
  EXPECT_EQ(reused.sampled_live(), 0u);
  for (PageId p : second) reused.Record(p);
  StreamingMrcEstimator fresh(options);
  for (PageId p : second) fresh.Record(p);
  const MissRatioCurve cr = reused.Curve();
  const MissRatioCurve cf = fresh.Curve();
  ASSERT_EQ(cr.max_pages(), cf.max_pages());
  for (uint64_t cache = 0; cache <= cr.max_pages(); ++cache) {
    ASSERT_EQ(cr.MissRatioAt(cache), cf.MissRatioAt(cache))
        << "cache size " << cache;
  }
}

// --- LogAnalyzer streaming path ---

TEST(StreamingDiagnosisTest, StreamingModeDiagnosesWithoutWindowReplay) {
  DiskModel disk;
  DatabaseEngine::Options engine_options;
  engine_options.access_window_capacity = 8000;
  DatabaseEngine engine("stream", engine_options, &disk);
  StreamingMrcEstimator::Options streaming_options;
  streaming_options.sample_rate = 1.0;
  streaming_options.window_accesses = 8000;
  engine.EnableStreamingMrc(streaming_options);

  const ClassKey key = MakeClassKey(1, 1);
  StatsCollector::AccessRecorder recorder = engine.stats().RecorderFor(key);
  for (PageId p : MakeZipfTrace(800, 0.8, 8000, 37)) recorder.Record(p);
  ASSERT_NE(engine.stats().StreamingFor(key), nullptr);
  ASSERT_EQ(engine.stats().StreamingFor(key)->in_window_accesses(), 8000u);

  MrcConfig streaming_config;
  streaming_config.analysis_threads = 1;
  streaming_config.mode = MrcMode::kStreaming;
  LogAnalyzer streaming_analyzer(&engine, OutlierConfig{}, streaming_config);
  const auto streaming_diag = streaming_analyzer.DiagnoseMemory({key});
  ASSERT_EQ(streaming_diag.suspects.size(), 1u);

  // With the estimator unsampled and the window unwrapped, the
  // streaming diagnosis must reproduce the recompute parameters.
  MrcConfig recompute_config;
  recompute_config.analysis_threads = 1;
  LogAnalyzer recompute_analyzer(&engine, OutlierConfig{}, recompute_config);
  const auto recompute_diag = recompute_analyzer.DiagnoseMemory({key});
  ASSERT_EQ(recompute_diag.suspects.size(), 1u);
  EXPECT_EQ(streaming_diag.suspects[0].params.total_memory_pages,
            recompute_diag.suspects[0].params.total_memory_pages);
  EXPECT_EQ(streaming_diag.suspects[0].params.acceptable_memory_pages,
            recompute_diag.suspects[0].params.acceptable_memory_pages);
}

TEST(StreamingDiagnosisTest, ColdEstimatorFallsBackToInsufficientData) {
  DiskModel disk;
  DatabaseEngine::Options engine_options;
  DatabaseEngine engine("cold", engine_options, &disk);
  engine.EnableStreamingMrc(StreamingMrcEstimator::Options{});
  const ClassKey key = MakeClassKey(1, 5);
  for (int i = 0; i < 50; ++i) {
    engine.stats().RecordPageAccess(key, MakePageId(1, i));
  }
  MrcConfig config;
  config.analysis_threads = 1;
  config.mode = MrcMode::kStreaming;
  LogAnalyzer analyzer(&engine, OutlierConfig{}, config);
  const auto diagnosis = analyzer.DiagnoseMemory({key});
  EXPECT_TRUE(diagnosis.suspects.empty());
  EXPECT_TRUE(diagnosis.cleared.empty());
  EXPECT_EQ(diagnosis.insufficient_data, std::vector<ClassKey>{key});
}

// --- Config spec round-trip ---

TEST(MrcSpecTest, RoundTripsThroughSpecString) {
  MrcConfig config;
  EXPECT_EQ(MrcSpecString(config), "");  // defaults stay capture-compatible

  config.mode = MrcMode::kStreaming;
  config.opt_regret = true;
  const std::string spec = MrcSpecString(config);
  EXPECT_FALSE(spec.empty());
  MrcConfig parsed;
  std::string error;
  ASSERT_TRUE(ParseMrcSpec(spec, &parsed, &error)) << error;
  EXPECT_EQ(parsed.mode, MrcMode::kStreaming);
  EXPECT_TRUE(parsed.opt_regret);

  MrcConfig bad;
  EXPECT_FALSE(ParseMrcSpec("mode=bogus", &bad, &error));
  EXPECT_FALSE(error.empty());
}

// --- Live vs replay through FGLBCAP1 ---

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Mirrors fglb_sim's consolidation scenario (as replay_test does), with
// the controller in streaming-MRC mode.
void AssembleConsolidation(ClusterHarness* harness, double duration,
                           uint64_t seed) {
  harness->AddServers(4);
  PhysicalServer* first = harness->resources().servers()[0].get();
  Scheduler* tpcw = harness->AddApplication(MakeTpcw());
  RubisOptions rubis_options;
  rubis_options.app_id = 2;
  Scheduler* rubis = harness->AddApplication(MakeRubis(rubis_options));
  Replica* shared = harness->resources().CreateReplica(first, 8192);
  tpcw->AddReplica(shared);
  rubis->AddReplica(shared);
  harness->AddConstantClients(tpcw, 120, seed);
  harness->AddClients(
      rubis,
      std::make_unique<StepLoad>(
          std::vector<std::pair<SimTime, double>>{{duration / 3, 45}}),
      seed + 1);
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

TEST(StreamingReplayTest, LiveAndReplayedStreamingCurvesAreIdentical) {
  const std::string path = TempPath("fglb_streaming_mrc.fglbcap");
  const double duration = 300;
  const uint64_t seed = 1;

  SelectiveRetuner::Config config;
  config.mrc.mode = MrcMode::kStreaming;
  config.mrc.opt_regret = true;
  ClusterHarness harness(config);
  AssembleConsolidation(&harness, duration, seed);

  CaptureWriter writer(&harness.sim());
  CaptureInfo info;
  info.seed = seed;
  info.scenario = "consolidation";
  info.duration_seconds = duration;
  info.interval_seconds = harness.retuner().config().interval_seconds;
  info.mrc_sample_rate = harness.retuner().config().mrc.sample_rate;
  info.mrc_spec = MrcSpecString(harness.retuner().config().mrc);
  std::string error;
  ASSERT_TRUE(writer.Open(path, info, SnapshotTopology(harness), &error))
      << error;
  harness.AttachRecorders(&writer, &writer);
  harness.Start();
  harness.RunFor(duration);
  ASSERT_TRUE(writer.Finalize(harness.retuner().actions(),
                              harness.retuner().samples()));
  // The run must actually reach phase mrc, or curve identity over an
  // empty diagnosis list would prove nothing.
  ASSERT_FALSE(harness.retuner().diagnoses().empty());

  Capture capture;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;
  EXPECT_EQ(capture.info.mrc_spec, info.mrc_spec);
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  ASSERT_TRUE(runner.Build(&error)) << error;
  EXPECT_EQ(runner.harness()->retuner().config().mrc.mode,
            MrcMode::kStreaming);
  EXPECT_TRUE(runner.harness()->retuner().config().mrc.opt_regret);
  ASSERT_TRUE(runner.Run(&error)) << error;

  ExpectSameDiagnoses(harness.retuner().diagnoses(),
                      runner.harness()->retuner().diagnoses());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fglb

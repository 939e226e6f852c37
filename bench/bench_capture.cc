// Capture & replay subsystem benchmark: what recording a full workload
// costs the live run, how fast the capture replays relative to living
// through the same simulated seconds, and how far the varint+delta
// capture encoding compresses below the legacy v1 fixed-width trace
// layout (24 bytes per page access). Emits BENCH_capture.json; the
// headline acceptance number is compression_ratio_vs_v1 >= 3.
//
//   ./build/bench/bench_capture [output.json]

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "replay/capture.h"
#include "replay/replayer.h"
#include "scenarios/scenario.h"

namespace {

using namespace fglb;

constexpr double kDurationSeconds = 300;
constexpr uint64_t kSeed = 1;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// One live run; when `capture_path` is non-empty the capture writer is
// attached and its stream counters are returned through *writer_out.
// The run is fglb_sim's consolidation scenario (TPC-W steady + RUBiS
// stepping in at duration/3 on a shared replica): the densest access
// stream of the canned scenarios and the one the replay tests assert
// determinism on.
double RunLive(const std::string& capture_path,
               std::unique_ptr<CaptureWriter>* writer_out) {
  RunConfig run =
      ScenarioRunConfig(Scenario::kConsolidation, kDurationSeconds);
  run.seed = kSeed;
  std::unique_ptr<ClusterHarness> live = MakeHarness(run, 0);
  ClusterHarness& harness = *live;
  AssembleScenario(run, &harness);
  std::string error;
  if (!ArmRun(run, &harness, &error)) {
    std::fprintf(stderr, "bench: %s\n", error.c_str());
    std::exit(1);
  }
  std::unique_ptr<CaptureWriter> writer;
  if (!capture_path.empty()) {
    writer = std::make_unique<CaptureWriter>(&harness.sim());
    if (!writer->Open(capture_path, run, &error)) {
      std::fprintf(stderr, "bench: %s\n", error.c_str());
      std::exit(1);
    }
    harness.AttachRecorders(writer.get(), writer.get());
  }
  const auto start = std::chrono::steady_clock::now();
  harness.Start();
  harness.RunFor(kDurationSeconds);
  const double ms = MsSince(start);
  if (writer != nullptr &&
      !writer->Finalize(harness.retuner().actions(),
                        harness.retuner().samples())) {
    std::fprintf(stderr, "bench: finalize failed\n");
    std::exit(1);
  }
  if (writer_out != nullptr) *writer_out = std::move(writer);
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_capture.json";
  bench::PrintHeader("Workload capture & deterministic replay");
  std::printf("consolidation scenario, %.0f simulated seconds\n",
              kDurationSeconds);

  const std::string capture_path =
      (std::filesystem::temp_directory_path() / "bench_capture.fglbcap")
          .string();
  bench::BenchJsonWriter json;

  // 1. Live baseline, no recording.
  const double live_ms = RunLive("", nullptr);
  std::printf("\nlive run, no capture:        %8.1f ms\n", live_ms);

  // 2. Live run with the capture writer attached.
  std::unique_ptr<CaptureWriter> writer;
  const double capture_ms = RunLive(capture_path, &writer);
  const double accesses = static_cast<double>(writer->accesses_recorded());
  const double capture_bytes = static_cast<double>(writer->bytes_written());
  json.Add("live_no_capture", live_ms, accesses);
  json.Add("live_with_capture", capture_ms, accesses);
  std::printf("live run, capture attached:  %8.1f ms  (%.1f%% overhead)\n",
              capture_ms, 100.0 * (capture_ms - live_ms) / live_ms);
  std::printf("  recorded %llu arrivals, %llu executions, %.0f accesses, "
              "%.0f bytes\n",
              static_cast<unsigned long long>(writer->arrivals_recorded()),
              static_cast<unsigned long long>(writer->executions_recorded()),
              accesses, capture_bytes);

  // 3. Deterministic replay of the capture.
  Capture capture;
  std::string error;
  if (!ReadCapture(capture_path, &capture, &error)) {
    std::fprintf(stderr, "bench: %s\n", error.c_str());
    return 1;
  }
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  if (!runner.Build(&error)) {
    std::fprintf(stderr, "bench: %s\n", error.c_str());
    return 1;
  }
  const auto replay_start = std::chrono::steady_clock::now();
  if (!runner.Run(&error)) {
    std::fprintf(stderr, "bench: replay diverged: %s\n", error.c_str());
    return 1;
  }
  const double replay_ms = MsSince(replay_start);
  json.Add("replay", replay_ms, accesses);
  std::printf("deterministic replay:        %8.1f ms  (%.2fx live)\n",
              replay_ms, replay_ms / live_ms);

  // 4. Compression vs the retired v1 fixed-width trace layout: 8-byte
  // magic + 8-byte count + 24 bytes per access (u64 class_key, u64
  // page, u8 flags, 7 pad) for the same access stream.
  const double v1_bytes = 16.0 + 24.0 * accesses;
  const double ratio = v1_bytes / capture_bytes;
  const double bytes_per_access = capture_bytes / accesses;
  std::printf("\ncapture size:                %8.0f bytes "
              "(%.2f bytes/access)\n",
              capture_bytes, bytes_per_access);
  std::printf("v1 fixed-width equivalent:   %8.0f bytes\n", v1_bytes);
  std::printf("compression ratio vs v1:     %8.2fx\n", ratio);

  json.AddField("capture_bytes", capture_bytes);
  json.AddField("v1_equivalent_bytes", v1_bytes);
  json.AddField("compression_ratio_vs_v1", ratio);
  json.AddField("bytes_per_access", bytes_per_access);
  json.AddField("capture_overhead_pct",
                100.0 * (capture_ms - live_ms) / live_ms);
  json.AddField("replay_vs_live_ratio", replay_ms / live_ms);
  json.WriteTo(json_path);

  std::remove(capture_path.c_str());
  const bool compresses = ratio >= 3.0;
  std::printf("\ncompression >= 3x vs v1: %s\n", compresses ? "yes" : "NO");
  std::printf("shape %s\n", compresses ? "HOLDS" : "VIOLATED");
  return compresses ? 0 : 1;
}

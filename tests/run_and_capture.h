#ifndef FGLB_TESTS_RUN_AND_CAPTURE_H_
#define FGLB_TESTS_RUN_AND_CAPTURE_H_

#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/varint.h"
#include "replay/capture.h"
#include "scenarios/scenario.h"

namespace fglb {

// The live half of a capture/replay test: builds `run` through the
// scenario builder exactly as fglb_sim does, records it to
// `capture_path` and runs it to the end. The trace is buffered, and so
// are the spans when the run traces them; the returned harness holds
// both for comparison with the replay. Its capture writer is finalized
// and gone, so the harness must not run again.
inline std::unique_ptr<ClusterHarness> RunAndCapture(
    const RunConfig& run, const std::string& capture_path) {
  std::unique_ptr<ClusterHarness> harness = MakeHarness(run, 0);
  harness->trace().EnableBuffering();
  AssembleScenario(run, harness.get());
  std::string error;
  EXPECT_TRUE(ArmRun(run, harness.get(), &error)) << error;
  if (harness->span_tracer() != nullptr) {
    harness->span_tracer()->EnableBuffering();
  }
  CaptureWriter writer(&harness->sim());
  EXPECT_TRUE(writer.Open(capture_path, run, &error)) << error;
  harness->AttachRecorders(&writer, &writer);
  harness->Start();
  harness->RunFor(run.duration_seconds);
  EXPECT_TRUE(writer.Finalize(harness->retuner().actions(),
                              harness->retuner().samples()));
  return harness;
}

inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

inline void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// An FGLBCAP1 file image as its blocks (type, payload), and sealed back
// with fresh lengths and CRCs: a test that alters a payload and
// re-seals it reaches the block decoders instead of the checksum.
using CaptureBlocks = std::vector<std::pair<uint8_t, std::string>>;

inline CaptureBlocks SplitCapture(const std::string& image) {
  CaptureBlocks blocks;
  const auto* p = reinterpret_cast<const uint8_t*>(image.data());
  size_t at = 8;  // the magic
  uint32_t size = 0;
  while (at + 9 <= image.size() &&
         GetFixed32(p + at + 1, p + image.size(), &size) &&
         at + 9 + size <= image.size()) {
    blocks.emplace_back(p[at], image.substr(at + 9, size));
    at += 9 + size;
  }
  return blocks;
}

inline std::string SealCapture(const CaptureBlocks& blocks) {
  std::string image = "FGLBCAP1";
  for (const auto& [type, payload] : blocks) {
    image.push_back(static_cast<char>(type));
    PutFixed32(&image, static_cast<uint32_t>(payload.size()));
    PutFixed32(&image, Crc32(payload.data(), payload.size()));
    image += payload;
  }
  return image;
}

}  // namespace fglb

#endif  // FGLB_TESTS_RUN_AND_CAPTURE_H_

#ifndef FGLB_TESTS_RUN_AND_CAPTURE_H_
#define FGLB_TESTS_RUN_AND_CAPTURE_H_

#include <memory>
#include <string>

#include <gtest/gtest.h>

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

}  // namespace fglb

#endif  // FGLB_TESTS_RUN_AND_CAPTURE_H_

#ifndef FGLB_REPLAY_CAPTURE_H_
#define FGLB_REPLAY_CAPTURE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/selective_retuner.h"
#include "scenarios/run_config.h"
#include "sim/simulator.h"
#include "storage/page.h"
#include "workload/capture_hooks.h"
#include "workload/query_class.h"

namespace fglb {

// Workload capture: a versioned, compact binary recording of one full
// cluster run — its run config, every query arrival, every
// execution's concrete page-access string, plus the controller's
// action log and interval series — from which the replay subsystem can
// re-drive the engine/scheduler/controller deterministically and
// evaluate what-if actions offline.
//
// File layout (magic "FGLBCAP1", then a sequence of blocks):
//
//   block   := type:u8  payload_len:fixed32  crc32:fixed32  payload
//   types      1 info, 3 events (repeats), 4 actions, 5 samples, 6 end
//
// The info payload is the run's RunConfig::ToString() text: everything
// that decides the run, which the replayer rebuilds through the same
// MakeHarness/AssembleCluster/ArmRun calls the live run used, so the
// capture is sufficient with the build that wrote it. Other payload
// scalars are varints; signed deltas are zigzag varints;
// doubles travel as fixed64 IEEE bit patterns, except event timestamps
// which are zigzag-varint deltas of consecutive bit patterns (the
// stream is time-ordered, so consecutive patterns are close and the
// encoding stays bit-exact — replay must re-submit at the *identical*
// double time). Page ids are zigzag-varint deltas within an execution.
// Every block's payload is CRC-32 guarded; a reader rejects truncated
// files (no end block), trailing garbage, unknown block types and any
// checksum mismatch.

// One recorded query arrival at a scheduler.
struct CaptureArrival {
  double t = 0;
  AppId app = 0;
  QueryClassId cls = 0;
  uint64_t client_id = 0;
};

// One recorded execution: `access_count` entries of Capture::accesses
// starting at `access_begin` (flat pool, avoids per-execution
// allocations).
struct CaptureExecution {
  double t = 0;
  int replica = 0;
  ClassKey key = 0;
  uint64_t access_begin = 0;
  uint32_t access_count = 0;
};

// A fully loaded capture.
struct Capture {
  RunConfig run;
  std::vector<CaptureArrival> arrivals;
  std::vector<CaptureExecution> executions;
  std::vector<PageAccess> accesses;  // flat pool for executions
  // The live controller's action log and interval series (stored so
  // summaries and what-if window selection need no re-simulation).
  std::vector<SelectiveRetuner::Action> actions;
  std::vector<SelectiveRetuner::IntervalSample> samples;
};

// Streaming capture writer. Hook it into a live run via
// ClusterHarness::AttachRecorders(); events are buffered and flushed
// as CRC-guarded blocks once the buffer passes a threshold, so capture
// cost stays O(bytes) with no per-event I/O.
class CaptureWriter : public ArrivalRecorder, public ExecutionRecorder {
 public:
  explicit CaptureWriter(Simulator* sim);
  ~CaptureWriter() override;
  CaptureWriter(const CaptureWriter&) = delete;
  CaptureWriter& operator=(const CaptureWriter&) = delete;

  // Opens `path` and writes the info block (`run`). Returns false with
  // a message in *error on I/O failure.
  bool Open(const std::string& path, const RunConfig& run,
            std::string* error);

  // Recorder hooks (stamped with the simulator's current time).
  void OnArrival(const QueryInstance& query) override;
  void OnExecution(int replica_id, ClassKey key,
                   const std::vector<PageAccess>& accesses) override;

  // Writes the actions/samples/end blocks and closes the file. Returns
  // false on I/O failure. The writer must not be reused afterwards.
  bool Finalize(const std::vector<SelectiveRetuner::Action>& actions,
                const std::vector<SelectiveRetuner::IntervalSample>& samples);

  uint64_t arrivals_recorded() const { return arrivals_; }
  uint64_t executions_recorded() const { return executions_; }
  uint64_t accesses_recorded() const { return accesses_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  void PutTime(double t);
  bool FlushEvents(bool force);
  bool WriteBlock(uint8_t type, const std::string& payload);

  Simulator* sim_;
  std::FILE* file_ = nullptr;
  std::string events_;  // pending events-block payload
  uint64_t prev_time_bits_ = 0;
  uint64_t arrivals_ = 0;
  uint64_t executions_ = 0;
  uint64_t accesses_ = 0;
  uint64_t bytes_written_ = 0;
  bool failed_ = false;
};

// The samples block's payload for `samples`: every double as its
// IEEE-754 bits, so equal encodings mean bit-identical series.
std::string EncodeSamples(
    const std::vector<SelectiveRetuner::IntervalSample>& samples);

// Loads a capture file written by CaptureWriter. Returns false with a
// one-line message in *error on I/O error, version mismatch,
// truncation, checksum mismatch or trailing garbage; *out is left in
// an unspecified state on failure.
bool ReadCapture(const std::string& path, Capture* out, std::string* error);

}  // namespace fglb

#endif  // FGLB_REPLAY_CAPTURE_H_

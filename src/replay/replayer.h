#ifndef FGLB_REPLAY_REPLAYER_H_
#define FGLB_REPLAY_REPLAYER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "replay/capture.h"
#include "scenarios/harness.h"

namespace fglb {

// Re-drives a captured run deterministically: the cluster is rebuilt
// from the capture's RunConfig (fault schedule and seed included),
// recorded arrivals are re-submitted open-loop at their bit-exact
// times, and every engine consumes the recorded per-class page-access
// strings instead of generating fresh ones. Since the simulator itself
// is deterministic (events ordered by time then scheduling sequence),
// the controller then sees identical inputs and produces an identical
// action trace — the replay tests and ci.sh assert byte equality of
// the ActionLines projection against the live run.

struct ReplayBuildOptions {
  // MRC analysis threads for the replayed controller (results are
  // thread-count invariant; this only changes wall-clock speed).
  int mrc_threads = 1;
  // Lenient replay tolerates access-string exhaustion (engines fall
  // back to generation) instead of failing the run. What-if evaluation
  // always runs lenient: changed routing shifts consumption.
  bool lenient = false;
};

// Feeds recorded access strings to engines, per-class FIFO. Keyed by
// class (not replica) so a what-if re-placement — which reroutes a
// class to a different replica — still consumes that class's recorded
// stream.
class CaptureAccessSource : public AccessReplaySource {
 public:
  explicit CaptureAccessSource(const Capture* capture);

  bool NextAccesses(ClassKey key, std::vector<PageAccess>* out) override;

  uint64_t served() const { return served_; }
  // Requests for a class whose recorded stream was already drained
  // (the engine regenerated instead) — nonzero means divergence.
  uint64_t misses() const { return misses_; }
  // Recorded executions never consumed.
  uint64_t remaining() const { return remaining_; }

 private:
  const Capture* capture_;
  std::map<ClassKey, std::deque<uint64_t>> queues_;  // execution indices
  uint64_t served_ = 0;
  uint64_t misses_ = 0;
  uint64_t remaining_ = 0;
};

// Rebuilds a harness from a capture through the live run's own
// builder: MakeHarness(capture.run), AssembleCluster(capture.run) —
// the same servers, applications, replicas (engine seeds included) and
// scheduler placements, with no client populations — then `source`,
// then ArmRun(capture.run) (admission, spans, stats channel,
// checkpointing, the identical fault schedule). `source`, if non-null,
// is wired into every engine, including replicas the replayed
// controller provisions mid-run. Returns null with *error set when the
// fault spec does not parse.
std::unique_ptr<ClusterHarness> BuildClusterFromCapture(
    const Capture& capture, const ReplayBuildOptions& options,
    CaptureAccessSource* source, std::string* error);

// Re-submits capture->arrivals[index...] open-loop at their recorded
// times. Each arrival's event schedules the next, so equal-time
// arrivals keep their recorded order. Arrivals whose app or class is
// unknown are skipped; `fed`, if non-null, counts the rest. Every
// pointer must outlive the simulation run.
void FeedArrivals(const Capture* capture, Simulator* sim,
                  const std::map<AppId, Scheduler*>* schedulers,
                  uint64_t* fed, size_t index = 0);

class ReplayRunner {
 public:
  explicit ReplayRunner(const Capture* capture,
                        ReplayBuildOptions options = {});

  // Rebuilds the cluster (idempotent). Exposed separately so callers
  // can enable tracing on harness().trace() before Run() starts the
  // controller.
  bool Build(std::string* error);

  // Feeds every recorded arrival and runs to the captured duration.
  // In strict (non-lenient) mode, fails if any engine had to fall back
  // to generated accesses or recorded executions went unconsumed —
  // either means the replay diverged from the live run.
  bool Run(std::string* error);

  ClusterHarness* harness() { return harness_.get(); }
  const CaptureAccessSource* source() const { return source_.get(); }
  uint64_t arrivals_fed() const { return arrivals_fed_; }

 private:
  const Capture* capture_;
  ReplayBuildOptions options_;
  // Engines hold raw pointers into source_; harness_ is declared after
  // it so teardown destroys the engines first.
  std::unique_ptr<CaptureAccessSource> source_;
  std::unique_ptr<ClusterHarness> harness_;
  std::map<AppId, Scheduler*> schedulers_;
  uint64_t arrivals_fed_ = 0;
  bool built_ = false;
  bool ran_ = false;
};

}  // namespace fglb

#endif  // FGLB_REPLAY_REPLAYER_H_

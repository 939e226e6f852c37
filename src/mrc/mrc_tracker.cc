#include "mrc/mrc_tracker.h"

namespace fglb {

MattsonStack& MrcTracker::ScratchStack(size_t expected_accesses) const {
  if (!scratch_) {
    scratch_ = MissRatioCurve::MakeReplayStack(config_, expected_accesses);
  }
  return *scratch_;
}

void MrcTracker::SetStableFromTrace(SpanPair<PageId> trace) {
  stable_curve_ = MissRatioCurve::Replay(trace, ScratchStack(trace.size()));
  stable_ = stable_curve_.ComputeParameters(config_);
  stable_trace_length_ = trace.size();
}

MrcTracker::Recomputation MrcTracker::Recompute(
    SpanPair<PageId> trace) const {
  if (stable_.has_value() && stable_trace_length_ > 0 &&
      trace.size() > stable_trace_length_) {
    trace = trace.Suffix(stable_trace_length_);
  }
  Recomputation result;
  result.curve = MissRatioCurve::Replay(trace, ScratchStack(trace.size()));
  result.params = result.curve.ComputeParameters(config_);
  result.suspect =
      !stable_.has_value() ||
      MissRatioCurve::SignificantChange(*stable_, result.params);
  return result;
}

void MrcTracker::AdoptAsStable(const Recomputation& recomputation) {
  stable_curve_ = recomputation.curve;
  stable_ = recomputation.params;
  if (stable_trace_length_ == 0) {
    stable_trace_length_ = recomputation.curve.total_accesses();
  }
}

}  // namespace fglb

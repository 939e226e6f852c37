#include "cluster/stats_channel.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <utility>

namespace fglb {

namespace {

// With the guard on, confidence is multiplied by kDecay per missed
// interval and raised by kRecover per fresh report (clamped to 1). The
// asymmetric recovery is the flap damping: alternating lost/fresh
// intervals oscillate confidence in [kDecay, kDecay + kRecover] —
// strictly below the placement gate's 0.9 act threshold — so a
// flapping link can never ping-pong actions. Even a fully dark feed
// keeps a sliver of confidence so FenceScale stays finite and a resync
// can climb back.
constexpr double kDecay = 0.5;
constexpr double kRecover = 0.25;
constexpr double kMinConfidence = 1.0 / 1024;
constexpr double kMaxFenceScale = 8.0;

}  // namespace

StatsChannel::StatsChannel(Simulator* sim, StatsChannelConfig config)
    : sim_(sim), config_(config) {
  assert(sim_ != nullptr);
}

void StatsChannel::BindObservability(MetricsRegistry* metrics,
                                     TraceLog* trace) {
  metrics_ = metrics;
  trace_ = trace;
  if (metrics_ == nullptr) {
    published_ = delivered_ = dropped_ = corrupt_rejected_ = nullptr;
    late_rejected_ = duplicate_ignored_ = stale_collects_ = resyncs_ = nullptr;
    return;
  }
  published_ = metrics_->counter("stats_channel.published");
  delivered_ = metrics_->counter("stats_channel.delivered");
  dropped_ = metrics_->counter("stats_channel.dropped");
  corrupt_rejected_ = metrics_->counter("stats_channel.corrupt_rejected");
  late_rejected_ = metrics_->counter("stats_channel.late_rejected");
  duplicate_ignored_ = metrics_->counter("stats_channel.duplicate_ignored");
  stale_collects_ = metrics_->counter("stats_channel.stale_collects");
  resyncs_ = metrics_->counter("stats_channel.resyncs");
}

double StatsChannel::FenceScale(double confidence) const {
  if (!config_.guard) return 1.0;
  const double conf = std::max(confidence, kMinConfidence);
  return std::min(1.0 / conf, kMaxFenceScale);
}

void StatsChannel::Publish(int replica_id, Snapshot snapshot,
                           double interval_seconds) {
  const uint64_t seq = ++publish_seq_[replica_id];
  if (published_ != nullptr) published_->Increment();

  FaultInjector::NetDecision decision;
  if (net_hook_) decision = net_hook_(replica_id, seq);
  if (decision.drop) {
    if (dropped_ != nullptr) dropped_->Increment();
    return;
  }
  Report report{seq, replica_id, std::move(snapshot), decision.corrupt};
  // A reordered report is pushed behind its successor: 1.5 intervals
  // guarantees it arrives after the next on-time publish.
  double delay = decision.delay_seconds;
  if (decision.reorder) delay += 1.5 * interval_seconds;
  const auto send = [this, delay](Report sent) {
    if (delay > 0) {
      sim_->ScheduleAfter(delay, [this, sent = std::move(sent)]() mutable {
        Deliver(std::move(sent));
      });
    } else {
      Deliver(std::move(sent));
    }
  };
  if (decision.duplicate) send(report);
  send(std::move(report));
}

void StatsChannel::Deliver(Report report) {
  if (report.corrupt) {
    if (corrupt_rejected_ != nullptr) corrupt_rejected_->Increment();
    return;
  }
  const Receiver& rs = receivers_[report.replica_id];
  const auto pending = pending_.find(report.replica_id);
  // A duplicate carries an already-consumed seq; a reordered straggler
  // carries a seq behind a newer pending/consumed report. Both are
  // discarded — freshest-seq-wins keeps the feed monotone.
  const uint64_t newest =
      pending != pending_.end() ? pending->second.seq : rs.last_seq;
  if (report.seq <= newest) {
    if (report.seq == rs.last_seq || report.seq == newest) {
      if (duplicate_ignored_ != nullptr) duplicate_ignored_->Increment();
    } else {
      if (late_rejected_ != nullptr) late_rejected_->Increment();
    }
    return;
  }
  if (delivered_ != nullptr) delivered_->Increment();
  const int replica_id = report.replica_id;
  pending_[replica_id] = std::move(report);
}

StatsChannel::Feed StatsChannel::Collect(int replica_id) {
  Receiver& rs = receivers_[replica_id];
  Feed feed;
  const auto pending = pending_.find(replica_id);
  if (pending != pending_.end()) {
    const uint64_t was_stale = rs.stale_intervals;
    rs.last_seq = pending->second.seq;
    rs.last_known_good = std::move(pending->second.snapshot);
    pending_.erase(pending);
    rs.stale_intervals = 0;
    rs.confidence = config_.guard
                        ? std::min(1.0, rs.confidence + kRecover)
                        : 1.0;
    if (was_stale > 0) {
      if (resyncs_ != nullptr) resyncs_->Increment();
      EmitRecovery("stats_resync", replica_id, rs.last_seq, was_stale,
                   rs.confidence);
    }
    feed.fresh = true;
  } else {
    ++rs.stale_intervals;
    rs.confidence = config_.guard
                        ? std::max(rs.confidence * kDecay,
                                   kMinConfidence)
                        : 1.0;
    if (stale_collects_ != nullptr) stale_collects_->Increment();
    EmitRecovery("report_lost", replica_id, rs.last_seq, rs.stale_intervals,
                 rs.confidence);
    feed.fresh = false;
  }
  feed.snapshot = &rs.last_known_good;
  feed.stale_intervals = rs.stale_intervals;
  feed.confidence = rs.confidence;
  feed.last_seq = rs.last_seq;
  return feed;
}

void StatsChannel::Retain(const std::vector<int>& live_replica_ids) {
  const std::set<int> live(live_replica_ids.begin(), live_replica_ids.end());
  const auto dead = [&live](const auto& entry) {
    return !live.contains(entry.first);
  };
  std::erase_if(receivers_, dead);
  std::erase_if(pending_, dead);
}

void StatsChannel::RestoreReceivers(std::map<int, Receiver> receivers) {
  receivers_ = std::move(receivers);
  pending_.clear();
}

void StatsChannel::EmitRecovery(const char* why, int replica_id, uint64_t seq,
                                uint64_t stale_intervals, double confidence) {
  if (trace_ == nullptr || !trace_->enabled()) return;
  TraceEvent event("recovery");
  event.Num("t", sim_->Now())
      .Str("why", why)
      .Int("replica", replica_id)
      .Uint("seq", seq)
      .Uint("stale_intervals", stale_intervals)
      .Num("conf", confidence);
  trace_->Emit(event);
}

}  // namespace fglb

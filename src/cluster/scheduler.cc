#include "cluster/scheduler.h"

#include <algorithm>
#include <cassert>

#include "common/span_tracer.h"

namespace fglb {

namespace {

// Client-observed latency of a fast-failed (shed) read: the error
// round-trip, not a service time. Small and fixed so shed queries
// cost the cluster nothing while closed-loop clients still cycle.
constexpr double kShedLatencySeconds = 0.005;

}  // namespace

Scheduler::Scheduler(Simulator* sim, const ApplicationSpec* app)
    : sim_(sim), app_(app) {
  assert(sim_ && app_);
}

void Scheduler::AddReplica(Replica* replica, bool in_default_set) {
  assert(replica != nullptr);
  if (std::find(replicas_.begin(), replicas_.end(), replica) ==
      replicas_.end()) {
    replicas_.push_back(replica);
  }
  if (in_default_set) {
    dedicated_targets_.erase(replica);
  } else {
    dedicated_targets_.insert(replica);
  }
}

void Scheduler::RemoveReplica(Replica* replica) {
  replicas_.erase(std::remove(replicas_.begin(), replicas_.end(), replica),
                  replicas_.end());
  dedicated_targets_.erase(replica);
  for (auto it = dedicated_placement_.begin();
       it != dedicated_placement_.end();) {
    if (it->second == replica) {
      it = dedicated_placement_.erase(it);
    } else {
      ++it;
    }
  }
}

void Scheduler::DedicateReplica(QueryClassId cls, Replica* replica) {
  assert(replica != nullptr);
  AddReplica(replica, /*in_default_set=*/false);
  dedicated_placement_[cls] = replica;
  dedicated_targets_.insert(replica);
}

void Scheduler::ClearDedication(QueryClassId cls) {
  dedicated_placement_.erase(cls);
}

std::vector<Replica*> Scheduler::DefaultSet() const {
  std::vector<Replica*> result;
  for (Replica* r : replicas_) {
    if (!dedicated_targets_.contains(r)) result.push_back(r);
  }
  return result;
}

std::vector<Replica*> Scheduler::PlacementOf(QueryClassId cls) const {
  auto it = dedicated_placement_.find(cls);
  if (it != dedicated_placement_.end()) return {it->second};
  return DefaultSet();
}

Replica* Scheduler::PickReplica(const QueryInstance& query) {
  std::vector<Replica*> candidates = PlacementOf(query.tmpl->id);
  if (candidates.empty()) candidates = replicas_;
  if (candidates.empty()) return nullptr;
  if (admission_ != nullptr) {
    std::vector<Replica*> allowed;
    allowed.reserve(candidates.size());
    const ClassKey key = query.class_key();
    for (Replica* r : candidates) {
      if (admission_->RouteAllowed(key, r->id())) allowed.push_back(r);
    }
    if (allowed.empty()) {
      // Every candidate's breaker is open: route least-loaded anyway
      // rather than failing the class outright.
      admission_->NoteNoReplicaAvailable();
    } else {
      candidates = std::move(allowed);
    }
  }
  // Freshness first (read-one/write-all: a replica must have applied
  // all committed writes before serving reads), then least loaded.
  const uint64_t need = next_write_seq_;
  Replica* best = nullptr;
  bool best_fresh = false;
  for (size_t i = 0; i < candidates.size(); ++i) {
    Replica* r = candidates[(round_robin_ + i) % candidates.size()];
    const bool fresh = r->AppliedSeq(app_->id) >= need;
    if (best == nullptr || (fresh && !best_fresh) ||
        (fresh == best_fresh && r->inflight() < best->inflight())) {
      best = r;
      best_fresh = fresh;
    }
  }
  ++round_robin_;
  return best;
}

Replica* Scheduler::RetryTarget(const QueryInstance& query,
                                const Replica* exclude) {
  const ClassKey key = query.class_key();
  std::vector<Replica*> candidates = PlacementOf(query.tmpl->id);
  if (candidates.empty()) candidates = replicas_;
  Replica* best = nullptr;
  for (Replica* r : candidates) {
    if (r == exclude) continue;
    if (admission_ != nullptr && !admission_->RouteAllowed(key, r->id())) {
      continue;
    }
    if (best == nullptr || r->inflight() < best->inflight()) best = r;
  }
  return best;
}

void Scheduler::Account(QueryClassId cls, double latency) {
  ++interval_queries_;
  ++total_completed_;
  interval_latency_sum_ += latency;
  interval_latencies_.Add(latency);
  ClassStats& stats = class_stats_[cls];
  ++stats.completed;
  stats.latency_sum += latency;
  if (latency <= app_->sla_latency_seconds) {
    ++stats.sla_ok;
    ++total_sla_ok_;
  }
}

void Scheduler::RunRead(Replica* replica, const QueryInstance& query,
                        CompletionCallback on_complete) {
  const ClassKey key = query.class_key();
  const QueryClassId cls = query.tmpl->id;
  const int replica_id = replica->id();
  replica->Run(query, [this, key, cls, replica_id,
                       on_complete = std::move(on_complete)](
                          double latency, const ExecutionCounters&) mutable {
    if (admission_ != nullptr) {
      admission_->OnComplete(key, replica_id, latency);
    }
    Account(cls, latency);
    if (on_complete) on_complete(latency);
  });
}

void Scheduler::Submit(const QueryInstance& query,
                       CompletionCallback on_complete) {
  assert(query.tmpl != nullptr);
  if (arrival_recorder_ != nullptr) arrival_recorder_->OnArrival(query);
  // Every submit bumps the tracer's sequence (sampling is a pure
  // function of arrival order, so a replayed capture samples the same
  // queries); the sampled 1-in-N get a span threaded to the replica.
  const QueryInstance* routed = &query;
  QueryInstance sampled;
  if (spans_ != nullptr) {
    QuerySpan* span = spans_->Begin(query.app, query.tmpl->id, sim_->Now());
    if (span != nullptr) {
      sampled = query;
      sampled.span = span;
      routed = &sampled;
    }
  }
  if (replicas_.empty()) {
    // No capacity at all: fail the query with a large penalty latency
    // so the SLA check trips and provisioning reacts.
    const double penalty = app_->sla_latency_seconds * 10;
    if (routed->span != nullptr) {
      spans_->EndImmediate(routed->span, SpanSegment::kPenalty, penalty);
    }
    sim_->ScheduleAfter(penalty, [this, penalty, cls = query.tmpl->id,
                                  on_complete = std::move(on_complete)]() mutable {
      Account(cls, penalty);
      if (on_complete) on_complete(penalty);
    });
    return;
  }

  if (query.tmpl->is_update) {
    // Write-all: every replica applies the write; the client sees the
    // latency of the (least loaded) replica chosen to answer it, the
    // rest apply asynchronously. Writes bypass admission control —
    // shedding one would silently fork replica state.
    const uint64_t seq = ++next_write_seq_;
    Replica* primary = nullptr;
    for (Replica* r : replicas_) {
      if (primary == nullptr || r->inflight() < primary->inflight()) {
        primary = r;
      }
    }
    // Replicas run in set order (event ordering is part of the
    // deterministic-replay contract); only the primary's completion
    // carries the client callback, which is move-only.
    const AppId app_id = app_->id;
    for (Replica* r : replicas_) {
      if (r == primary) {
        // Only the primary's run carries the span: the client-observed
        // latency is the primary's, the async applies are background.
        r->Run(*routed, [this, r, seq, app_id, cls = query.tmpl->id,
                       on_complete = std::move(on_complete)](
                          double latency, const ExecutionCounters&) mutable {
          r->SetAppliedSeq(app_id, seq);
          Account(cls, latency);
          if (on_complete) on_complete(latency);
        });
      } else {
        r->Run(query, [r, seq, app_id](double, const ExecutionCounters&) {
          r->SetAppliedSeq(app_id, seq);
        });
      }
    }
    return;
  }

  Replica* replica = PickReplica(*routed);
  assert(replica != nullptr);
  if (admission_ != nullptr) {
    const ClassKey key = query.class_key();
    AdmissionController::Verdict verdict =
        admission_->Admit(key, replica->id(), replica->inflight());
    if (verdict.decision == AdmissionController::Decision::kShed) {
      // One bounded retry on another replica, if the app's token
      // bucket still holds a whole token and an alternative admits.
      Replica* alternative = nullptr;
      if (replicas_.size() > 1 && admission_->TryRetry(app_->id)) {
        alternative = RetryTarget(query, replica);
        if (alternative != nullptr) {
          const AdmissionController::Verdict retried = admission_->Admit(
              key, alternative->id(), alternative->inflight());
          if (retried.decision == AdmissionController::Decision::kShed) {
            alternative = nullptr;
          }
        }
      }
      if (alternative == nullptr) {
        // Fast-fail: the client gets an error round-trip, not a slot
        // in a collapsed queue. Not counted in the latency stats —
        // the shed share travels separately in the interval report.
        ++interval_shed_;
        ++total_shed_;
        if (routed->span != nullptr) {
          spans_->EndImmediate(routed->span, SpanSegment::kShed,
                               kShedLatencySeconds);
        }
        sim_->ScheduleAfter(kShedLatencySeconds,
                            [on_complete = std::move(on_complete)]() mutable {
                              if (on_complete) on_complete(kShedLatencySeconds);
                            });
        return;
      }
      replica = alternative;
    }
  }
  RunRead(replica, *routed, std::move(on_complete));
}

Scheduler::IntervalReport Scheduler::EndInterval(double interval_seconds) {
  assert(interval_seconds > 0);
  IntervalReport report;
  report.queries = interval_queries_;
  report.avg_latency = interval_queries_ > 0
                           ? interval_latency_sum_ / interval_queries_
                           : 0.0;
  report.p95_latency = interval_latencies_.Percentile(95);
  report.p99_latency = interval_latencies_.Percentile(99);
  report.throughput = static_cast<double>(interval_queries_) /
                      interval_seconds;
  report.sla_met = interval_queries_ == 0 ||
                   report.avg_latency <= app_->sla_latency_seconds;
  report.shed = interval_shed_;
  interval_queries_ = 0;
  interval_shed_ = 0;
  interval_latency_sum_ = 0;
  interval_latencies_.Reset();
  return report;
}

}  // namespace fglb

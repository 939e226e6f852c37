#include "cluster/admission.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

namespace fglb {

AdmissionController::AdmissionController(Simulator* sim,
                                         const AdmissionConfig& config)
    : sim_(sim), config_(config) {
  assert(sim_ != nullptr);
}

void AdmissionController::BindObservability(MetricsRegistry* metrics,
                                            TraceLog* trace) {
  metrics_ = metrics;
  trace_ = trace;
  if (metrics_ == nullptr) {
    admitted_counter_ = shed_codel_counter_ = shed_queue_counter_ = nullptr;
    probes_counter_ = trips_counter_ = half_opens_counter_ = nullptr;
    closes_counter_ = reopens_counter_ = nullptr;
    retry_granted_counter_ = retry_denied_counter_ = nullptr;
    no_replica_counter_ = nullptr;
    completion_us_ = nullptr;
    return;
  }
  admitted_counter_ = metrics_->counter("admission.admitted");
  shed_codel_counter_ = metrics_->counter("admission.shed.codel");
  shed_queue_counter_ = metrics_->counter("admission.shed.queue_full");
  probes_counter_ = metrics_->counter("admission.probes");
  trips_counter_ = metrics_->counter("admission.breaker.trips");
  half_opens_counter_ = metrics_->counter("admission.breaker.half_opens");
  closes_counter_ = metrics_->counter("admission.breaker.closes");
  reopens_counter_ = metrics_->counter("admission.breaker.reopens");
  retry_granted_counter_ = metrics_->counter("admission.retry.granted");
  retry_denied_counter_ = metrics_->counter("admission.retry.denied");
  no_replica_counter_ = metrics_->counter("admission.no_replica_available");
  completion_us_ = metrics_->histogram("admission.completion_us");
}

void AdmissionController::RegisterApp(AppId app, double sla_latency_seconds) {
  slas_[app] = sla_latency_seconds > 0 ? sla_latency_seconds : 1.0;
}

double AdmissionController::SlaOf(AppId app) const {
  auto it = slas_.find(app);
  return it != slas_.end() ? it->second : 1.0;
}

AdmissionController::ReplicaState& AdmissionController::StateOf(
    int replica_id) {
  return state_.replicas[replica_id];
}

int AdmissionController::EffectiveKeep(const ReplicaState& rs) const {
  const int total = static_cast<int>(state_.classes.size());
  return std::min(rs.keep_count, std::max(total, 1));
}

void AdmissionController::RecomputeShedSet(ReplicaState& rs) {
  rs.shed_classes.clear();
  const int total = static_cast<int>(state_.classes.size());
  const int keep = EffectiveKeep(rs);
  if (keep >= total) return;
  // Rank by smoothed normalized latency, worst first; classes with no
  // estimate yet rank best (they have claimed no capacity to triage
  // away). Ties break on the key for determinism.
  std::vector<std::pair<double, ClassKey>> ranked;
  ranked.reserve(state_.classes.size());
  for (const auto& [key, cs] : state_.classes) {
    ranked.emplace_back(cs.has_estimate ? cs.ewma_normalized : 0.0, key);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (int i = 0; i < total - keep; ++i) {
    rs.shed_classes.insert(ranked[static_cast<size_t>(i)].second);
  }
}

void AdmissionController::SetKeepCount(int replica_id, ReplicaState& rs,
                                       int keep, const char* reason) {
  const int before = EffectiveKeep(rs);
  rs.keep_count = keep;
  const int after = EffectiveKeep(rs);
  RecomputeShedSet(rs);
  if (after == before) return;
  if (Tracing()) {
    TraceEvent event("admission");
    event.Num("t", sim_->Now())
        .Str("kind", "shed_level")
        .Int("replica", replica_id)
        .Int("keep", after)
        .Int("classes", static_cast<int64_t>(state_.classes.size()))
        .Num("window_min", rs.window_count > 0 ? rs.window_min : 0)
        .Str("why", reason);
    trace_->Emit(event);
  }
}

void AdmissionController::RollWindows(int replica_id, ReplicaState& rs) {
  const SimTime now = sim_->Now();
  if (rs.window_end == 0) {
    rs.window_end = now + config_.codel_interval_seconds;
    rs.window_min = std::numeric_limits<double>::infinity();
    rs.window_count = 0;
    return;
  }
  while (now >= rs.window_end) {
    if (rs.window_count > 0 && rs.window_min > config_.target_delay) {
      // Standing delay: even the best completion of the window sat
      // above the target. Shed one more class.
      SetKeepCount(replica_id, rs, std::max(1, EffectiveKeep(rs) - 1),
                   "overload");
    } else if (EffectiveKeep(rs) < static_cast<int>(state_.classes.size())) {
      // Back under target (or idle): restore one class.
      SetKeepCount(replica_id, rs, EffectiveKeep(rs) + 1, "recovery");
    }
    rs.window_min = std::numeric_limits<double>::infinity();
    rs.window_count = 0;
    rs.window_end += config_.codel_interval_seconds;
  }
}

bool AdmissionController::RouteAllowed(ClassKey key, int replica_id) {
  ReplicaState& rs = StateOf(replica_id);
  auto it = rs.breakers.find(key);
  if (it == rs.breakers.end()) return true;
  Breaker& b = it->second;
  switch (b.state) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (sim_->Now() - b.opened_at < config_.breaker_open_seconds) {
        return false;
      }
      HalfOpenBreaker(key, replica_id, b);
      return true;
    case BreakerState::kHalfOpen:
      return b.probes_issued < config_.breaker_half_open_probes;
  }
  return true;
}

AdmissionController::Verdict AdmissionController::Admit(ClassKey key,
                                                        int replica_id,
                                                        uint64_t queue_depth) {
  state_.classes.try_emplace(key);  // ranked from first sight
  ReplicaState& rs = StateOf(replica_id);
  RollWindows(replica_id, rs);

  bool probe = false;
  auto breaker_it = rs.breakers.find(key);
  if (breaker_it != rs.breakers.end()) {
    Breaker& b = breaker_it->second;
    if (b.state == BreakerState::kOpen &&
        sim_->Now() - b.opened_at >= config_.breaker_open_seconds) {
      HalfOpenBreaker(key, replica_id, b);
    }
    if (b.state == BreakerState::kHalfOpen &&
        b.probes_issued < config_.breaker_half_open_probes) {
      ++b.probes_issued;
      probe = true;
      if (probes_counter_ != nullptr) probes_counter_->Increment();
      EmitBreakerEvent("probe", key, replica_id, b);
    }
  }

  Verdict verdict;
  if (!probe && queue_depth >= config_.max_queue_depth) {
    verdict.decision = Decision::kShed;
    verdict.reason = "queue_full";
    ++shed_total_;
    if (shed_queue_counter_ != nullptr) shed_queue_counter_->Increment();
    return verdict;
  }
  if (!probe && rs.shed_classes.contains(key)) {
    verdict.decision = Decision::kShed;
    verdict.reason = "codel";
    ++shed_total_;
    if (shed_codel_counter_ != nullptr) shed_codel_counter_->Increment();
    return verdict;
  }

  ++admitted_total_;
  if (admitted_counter_ != nullptr) admitted_counter_->Increment();
  RetryBucket& bucket = state_.retry[AppOf(key)];
  bucket.tokens = std::min(config_.retry_burst,
                           bucket.tokens + config_.retry_budget_ratio);
  if (bucket.exhaustion_noted && bucket.tokens >= 1) {
    bucket.exhaustion_noted = false;
  }
  verdict.decision = probe ? Decision::kProbe : Decision::kAdmit;
  return verdict;
}

void AdmissionController::OnComplete(ClassKey key, int replica_id,
                                     double latency_seconds) {
  const double sla = SlaOf(AppOf(key));
  const double normalized = latency_seconds / sla;

  ClassState& cs = state_.classes[key];
  if (!cs.has_estimate) {
    cs.has_estimate = true;
    cs.ewma_normalized = normalized;
  } else {
    cs.ewma_normalized = config_.ewma_alpha * normalized +
                         (1 - config_.ewma_alpha) * cs.ewma_normalized;
  }

  ReplicaState& rs = StateOf(replica_id);
  RollWindows(replica_id, rs);
  rs.window_min = std::min(rs.window_min, normalized);
  ++rs.window_count;
  if (completion_us_ != nullptr) {
    completion_us_->Record(latency_seconds * 1e6);
  }

  const bool failure = latency_seconds > config_.timeout_factor * sla;
  Breaker& b = rs.breakers[key];
  switch (b.state) {
    case BreakerState::kClosed:
      if (failure) {
        if (++b.consecutive_failures >= config_.breaker_failure_threshold) {
          TripBreaker(key, replica_id, b, /*reopen=*/false);
        }
      } else {
        b.consecutive_failures = 0;
      }
      break;
    case BreakerState::kHalfOpen:
      if (failure) {
        TripBreaker(key, replica_id, b, /*reopen=*/true);
      } else if (++b.probe_successes >= config_.breaker_half_open_probes) {
        CloseBreaker(key, replica_id, b);
      }
      break;
    case BreakerState::kOpen:
      // A straggler admitted before the trip; the open window already
      // judged this (class, replica).
      break;
  }
}

bool AdmissionController::TryRetry(AppId app) {
  RetryBucket& bucket = state_.retry[app];
  if (bucket.tokens >= 1) {
    bucket.tokens -= 1;
    if (retry_granted_counter_ != nullptr) retry_granted_counter_->Increment();
    return true;
  }
  if (retry_denied_counter_ != nullptr) retry_denied_counter_->Increment();
  if (!bucket.exhaustion_noted) {
    bucket.exhaustion_noted = true;
    if (Tracing()) {
      TraceEvent event("admission");
      event.Num("t", sim_->Now())
          .Str("kind", "retry_exhausted")
          .Uint("app", app)
          .Num("tokens", bucket.tokens);
      trace_->Emit(event);
    }
  }
  return false;
}

bool AdmissionController::BreakerOpen(int replica_id) const {
  auto it = state_.replicas.find(replica_id);
  if (it == state_.replicas.end()) return false;
  const SimTime now = sim_->Now();
  for (const auto& [key, b] : it->second.breakers) {
    if (b.state == BreakerState::kOpen &&
        now - b.opened_at < config_.breaker_open_seconds) {
      return true;
    }
  }
  return false;
}

void AdmissionController::NoteNoReplicaAvailable() {
  if (no_replica_counter_ != nullptr) no_replica_counter_->Increment();
}

int AdmissionController::KeepCount(int replica_id) const {
  auto it = state_.replicas.find(replica_id);
  const int total = std::max(static_cast<int>(state_.classes.size()), 1);
  if (it == state_.replicas.end()) return total;
  return std::min(it->second.keep_count, total);
}

bool AdmissionController::IsShed(ClassKey key, int replica_id) const {
  auto it = state_.replicas.find(replica_id);
  return it != state_.replicas.end() && it->second.shed_classes.contains(key);
}

double AdmissionController::RetryTokens(AppId app) const {
  auto it = state_.retry.find(app);
  return it != state_.retry.end() ? it->second.tokens : 0;
}

void AdmissionController::TripBreaker(ClassKey key, int replica_id,
                                      Breaker& b, bool reopen) {
  b.state = BreakerState::kOpen;
  b.opened_at = sim_->Now();
  b.probes_issued = 0;
  b.probe_successes = 0;
  if (reopen) {
    if (reopens_counter_ != nullptr) reopens_counter_->Increment();
    EmitBreakerEvent("reopen", key, replica_id, b);
  } else {
    if (trips_counter_ != nullptr) trips_counter_->Increment();
    EmitBreakerEvent("trip", key, replica_id, b);
  }
}

void AdmissionController::HalfOpenBreaker(ClassKey key, int replica_id,
                                          Breaker& b) {
  b.state = BreakerState::kHalfOpen;
  b.probes_issued = 0;
  b.probe_successes = 0;
  if (half_opens_counter_ != nullptr) half_opens_counter_->Increment();
  EmitBreakerEvent("half_open", key, replica_id, b);
}

void AdmissionController::CloseBreaker(ClassKey key, int replica_id,
                                       Breaker& b) {
  b.state = BreakerState::kClosed;
  b.consecutive_failures = 0;
  b.probes_issued = 0;
  b.probe_successes = 0;
  if (closes_counter_ != nullptr) closes_counter_->Increment();
  EmitBreakerEvent("close", key, replica_id, b);
}

void AdmissionController::EmitBreakerEvent(const char* kind, ClassKey key,
                                           int replica_id, const Breaker& b) {
  if (!Tracing()) return;
  TraceEvent event("admission");
  event.Num("t", sim_->Now())
      .Str("kind", kind)
      .Uint("app", AppOf(key))
      .Uint("cls", ClassOf(key))
      .Int("replica", replica_id)
      .Int("failures", b.consecutive_failures)
      .Int("probes", b.probes_issued)
      .Int("probe_successes", b.probe_successes);
  trace_->Emit(event);
}

}  // namespace fglb

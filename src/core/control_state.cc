#include "core/control_state.h"

namespace fglb {

namespace {

// Whether a window `length` seconds long opened at `since` is still
// open at `now` (never, for kNever).
bool Open(SimTime since, SimTime now, SimTime length) {
  return now - since < length;
}

}  // namespace

Verdict JudgeInterval(const ControlPolicy& policy, SimTime now,
                      const IntervalView& view, ControlState::App* app) {
  const bool warming = Open(app->topology_changed_at, now, policy.warmup);
  // Sustained shedding outranks the SLA check: admission control
  // fast-fails enough load to keep the *served* latency inside the
  // SLA, so waiting for a latency violation would never provision.
  if (policy.shed_escalation && policy.act &&
      view.shed_share() >= policy.overload_shed_share && !warming) {
    app->calm_streak = 0;
    ++app->violation_streak;
    return Verdict::kOverloadShed;
  }
  if (view.queries == 0 || view.sla_met) {
    app->violation_streak = 0;
    ++app->calm_streak;
    return Verdict::kCalm;
  }
  app->calm_streak = 0;
  if (policy.act && !view.has_replicas) return Verdict::kBootstrap;
  if (warming) return Verdict::kWarmup;
  ++app->violation_streak;
  return Verdict::kViolation;
}

Hold PlacementGate(const ControlState& state, const ControlPolicy& policy,
                   SimTime now, const GateRequest& request) {
  const bool move = request.ask == GateRequest::kMove;
  if (request.ask != GateRequest::kEvidence) {
    // Cross-application actions respect the owner app's warmup.
    const auto app = state.apps.find(AppOf(request.key));
    if (app != state.apps.end() &&
        Open(app->second.topology_changed_at, now, policy.warmup)) {
      return Hold::kWarmup;
    }
  }
  if (move) {
    const auto placed = state.placed_at.find(request.key);
    if (placed != state.placed_at.end() &&
        Open(placed->second, now, policy.cooldown)) {
      return Hold::kCooldown;
    }
  }
  if (policy.guard && !(request.confidence >= policy.act_threshold)) {
    return Hold::kLowConfidence;
  }
  if (move && state.in_flight.contains(request.key)) return Hold::kInFlight;
  if (move && policy.move_budget > 0 &&
      request.moves_started >= policy.move_budget) {
    return Hold::kBudget;
  }
  return Hold::kNone;
}

}  // namespace fglb

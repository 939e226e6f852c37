#include "core/control_state.h"

#include <cmath>

namespace fglb {

namespace {

// Whether a window `length` seconds long opened at `since` is still
// open at `now` (never, for kNever).
bool Open(SimTime since, SimTime now, SimTime length) {
  return now - since < length;
}

}  // namespace

void ControlState::Encode(std::string* out) const {
  auto clock = [out](SimTime t) { PutFixed64(out, DoubleToBits(t)); };
  PutVarint64(out, apps.size());
  for (const auto& [id, app] : apps) {
    PutVarint64(out, id);
    PutVarint64(out, ZigZagEncode(app.violation_streak));
    PutVarint64(out, ZigZagEncode(app.calm_streak));
    clock(app.topology_changed_at);
    PutVarint64(out, app.replicas_seen + 1);  // kUnseen wraps to 0
    clock(app.coarse_fallback_at);
  }
  PutVarint64(out, placed_at.size());
  for (const auto& [key, t] : placed_at) {
    PutVarint64(out, key);
    clock(t);
  }
  PutVarint64(out, in_flight.size());
  for (ClassKey key : in_flight) PutVarint64(out, key);
}

bool ControlState::Decode(Reader& r, ControlState* out) {
  // Reads a count, then that many entries whose keys ascend strictly,
  // each at least `min_bytes` long; `entry` decodes the rest of one.
  auto entries = [&r](size_t min_bytes, uint64_t max_key, auto&& entry) {
    const uint64_t n = r.U64();
    if (!r.PlausibleCount(n, min_bytes)) return false;
    uint64_t prev = 0;
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t key = r.U64();
      if (key > max_key || (i > 0 && key <= prev) || !entry(key)) {
        return false;
      }
      prev = key;
    }
    return r.ok;
  };
  auto clock = [&r](SimTime* t) {
    *t = r.F64();
    return std::isfinite(*t) || *t == kNever;
  };
  auto streak = [&r](int* value) {
    const int64_t v = r.S64();
    *value = static_cast<int>(v);
    return v == *value;
  };
  constexpr uint64_t kMaxKey = std::numeric_limits<ClassKey>::max();
  ControlState s;
  const bool ok =
      entries(20, std::numeric_limits<AppId>::max(),
              [&](uint64_t id) {
                App& app = s.apps[static_cast<AppId>(id)];
                if (!streak(&app.violation_streak) ||
                    !streak(&app.calm_streak) ||
                    !clock(&app.topology_changed_at)) {
                  return false;
                }
                app.replicas_seen = r.U64() - 1;  // 0 decodes to kUnseen
                return clock(&app.coarse_fallback_at);
              }) &&
      entries(9, kMaxKey,
              [&](uint64_t key) { return clock(&s.placed_at[key]); }) &&
      entries(1, kMaxKey, [&](uint64_t key) {
        s.in_flight.insert(key);
        return true;
      });
  if (!ok) return false;
  *out = std::move(s);
  return true;
}

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

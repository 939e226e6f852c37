#ifndef FGLB_CORE_CONTROL_STATE_H_
#define FGLB_CORE_CONTROL_STATE_H_

#include <cstdint>
#include <limits>
#include <map>
#include <set>

#include "sim/simulator.h"
#include "workload/query_class.h"

namespace fglb {

// The selective retuner's damping memory (§3.2) as one value: the
// streaks, clocks and in-flight set a controller crash loses, and part
// of the retuner's checkpoint (SelectiveRetuner::ControlPlane).
// JudgeInterval and PlacementGate read and advance it without a
// Simulator, ResourceManager or TraceLog.
struct ControlState {
  // "Never" for a clock: no window measured from it is ever open.
  static constexpr SimTime kNever = -std::numeric_limits<SimTime>::infinity();
  // "Never" for replicas_seen: the app has not been through a tick.
  static constexpr uint64_t kUnseen = std::numeric_limits<uint64_t>::max();

  struct App {
    int violation_streak = 0;
    int calm_streak = 0;
    // Last replica-set change (bootstrap, provisioning, isolation,
    // quota): opens the warmup window.
    SimTime topology_changed_at = kNever;
    uint64_t replicas_seen = kUnseen;  // replica count at the last tick
    SimTime coarse_fallback_at = kNever;
    bool operator==(const App&) const = default;
  };

  std::map<AppId, App> apps;
  // Last re-placement (or abandoned move) per class: opens its cooldown.
  std::map<ClassKey, SimTime> placed_at;
  std::set<ClassKey> in_flight;  // classes with a migration in flight

  bool operator==(const ControlState&) const = default;
};

// The knobs the verdict and the gate read, resolved from the retuner's
// Config and its stats channel.
struct ControlPolicy {
  bool act = true;               // false: monitoring only
  bool shed_escalation = false;  // admission coupled: shedding escalates
  double overload_shed_share = 0.25;
  SimTime warmup = 30;    // seconds a topology change holds diagnosis
  SimTime cooldown = 90;  // seconds a re-placed class stays put
  int move_budget = 0;    // moves started per interval; 0 = no cap
  bool guard = true;      // gate placement on feed confidence
  double act_threshold = 0.9;  // the confidence a guarded gate needs
};

// The application-level numbers of one measurement interval.
struct IntervalView {
  uint64_t queries = 0;
  uint64_t shed = 0;  // reads admission control fast-failed
  bool sla_met = true;
  bool has_replicas = true;

  double shed_share() const {
    const uint64_t offered = queries + shed;
    return offered > 0 ? static_cast<double>(shed) / offered : 0.0;
  }
};

// What one interval means for an application, in check order.
enum class Verdict { kOverloadShed, kBootstrap, kWarmup, kViolation, kCalm };

// The interval verdict and its streak update: overload and violation
// extend the violation streak, bootstrap and warmup leave it alone;
// every verdict but calm ends the calm streak, and calm ends the
// violation streak.
Verdict JudgeInterval(const ControlPolicy& policy, SimTime now,
                      const IntervalView& view, ControlState::App* app);

// Why the placement gate withholds an action, in check order.
enum class Hold {
  kNone, kWarmup, kCooldown, kLowConfidence, kInFlight, kBudget
};

struct GateRequest {
  // kEvidence: may one replica's diagnosis drive placement at all
  // (confidence only)? kQuota adds the owner app's warmup for a quota
  // or demote. kMove adds the class's cooldown, in-flight migration and
  // the interval's budget for a reschedule or I/O eviction, asked
  // before the target search so a blocked move provisions nothing.
  enum Ask { kEvidence, kQuota, kMove };
  Ask ask = kMove;
  ClassKey key = 0;
  double confidence = 1;  // of the feed the evidence came from
  int moves_started = 0;  // re-placements started this interval
};

// The one placement gate every quota, demote, reschedule and I/O
// eviction passes.
Hold PlacementGate(const ControlState& state, const ControlPolicy& policy,
                   SimTime now, const GateRequest& request);

}  // namespace fglb

#endif  // FGLB_CORE_CONTROL_STATE_H_

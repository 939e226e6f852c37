#ifndef FGLB_CORE_DECISION_H_
#define FGLB_CORE_DECISION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/trace_log.h"
#include "core/control_state.h"
#include "core/log_analyzer.h"
#include "core/outlier_detector.h"
#include "core/quota_planner.h"
#include "engine/metrics.h"

namespace fglb {

// The selective retuner's decision core (§3.2): each rung's choice as a
// pure function of the evidence the retuner gathers, and the `Decision`
// one violating interval records — what its sla event prints, each
// diagnosed engine, each gated proposal with the placement gate's hold,
// and the actions taken. The interval's trace is rendered from it, so
// the sla -> impact -> iqr -> mrc -> action order is a property of the
// data, not of call order.

enum class ActionKind {
  kCpuProvision,
  kIoProvision,
  kCpuRelease,
  kQuotaEnforced,
  kClassRescheduled,
  kIoEviction,
  kCoarseFallback,
  // Cheapest memory rung on tiered engines: cap the class's DRAM quota
  // and give its working-set overflow a tier-2 quota instead of
  // migrating it. Appended last — captures persist the kind as a small
  // integer.
  kDemote,
};

const char* ActionKindName(ActionKind kind);

struct Action {
  SimTime time = 0;
  ActionKind kind = ActionKind::kCpuProvision;
  AppId app = 0;
  std::string description;
  bool operator==(const Action&) const = default;
};

using ClassSnapshot = std::map<ClassKey, MetricVector>;

// Steps 4a–4c: the classes one engine's memory diagnosis recomputes —
// the report's memory problem contexts and new classes or, when there
// are none, `app`'s top three classes by buffer misses (misses > 0);
// plus every other app's class in `snapshot` without a baseline (one
// that just arrived, §5.4).
std::set<ClassKey> MemoryCandidates(
    AppId app, const OutlierReport& report, const ClassSnapshot& snapshot,
    const std::function<bool(ClassKey)>& has_baseline);

// One action a rung proposes, with the placement gate's answer.
struct Proposal {
  enum Kind {
    kProvision,    // CPU or unskewed I/O saturation: one more replica
    kContainment,  // the plan fits, but a scan pollutes the pool (§5.3)
    kQuota,        // a plan's DRAM quota; with tier2_pages, a demote
    kReschedule,   // a plan's class no quota can keep
    kEviction,     // skewed I/O: move the class off the server
  };
  Kind kind = kProvision;
  ClassKey key = 0;
  uint64_t pages = 0;
  std::optional<uint64_t> tier2_pages{};
  Hold hold = Hold::kNone;
  bool committed = false;  // applied or, for a move, started
  bool operator==(const Proposal&) const = default;
};

// Step 4e: what one engine's diagnosis and plan propose, in commit
// order. A fitting plan: a containment quota of max(acceptable,
// min_quota_pages) per suspect with at least 10 read-aheads. Otherwise
// the plan's quotas in key order, each paired with its tier-2 quota
// where the plan has one, then its reschedules that are suspects.
std::vector<Proposal> ProposeMemory(
    const LogAnalyzer::MemoryDiagnosis& diagnosis, const QuotaPlan& plan,
    const ClassSnapshot& snapshot, uint64_t min_quota_pages);

// The paper's §3.3.3 heuristic for I/O interference on a server:
// "remove query contexts from the physical server where I/O
// interference occurs in decreasing order of their I/O rate until the
// perceived problem on that server is normalized." `io_rate_by_class`
// is each class's I/O-busy seconds per second (summing to the channel
// utilization queries contribute). Returns the classes to move off,
// heaviest first, until `current_utilization` would reach
// `target_utilization`; empty if it already has.
std::vector<ClassKey> PlanIoEviction(
    const std::map<ClassKey, double>& io_rate_by_class,
    double current_utilization, double target_utilization);

// What a saturated I/O channel gets, from each class's block requests
// on the server and the channel's utilization: nothing unless at least
// two classes carry over 10% of it; a replica when the heaviest carries
// under 40%; otherwise PlanIoEviction's order down to 60%.
struct IoChoice {
  bool replica = false;
  std::vector<ClassKey> evict;
  bool operator==(const IoChoice&) const = default;
};
IoChoice ChooseIo(const std::map<ClassKey, double>& requests, double io_util);

struct TierView {
  uint64_t pages = 0;
  uint64_t resident = 0;
  double read_us = 0;
};

// One engine's memory diagnosis, as it stood when it ran.
struct EngineDiagnosis {
  SimTime time = 0;
  AppId app = 0;
  int replica_id = -1;
  OutlierReport outliers{};
  std::string wait_profile{};  // measured span waits (JSON); empty if none
  size_t candidates = 0;  // MRCs recomputed; 0 = the mrc phase never ran
  double mrc_us = 0;
  LogAnalyzer::MemoryDiagnosis memory{};
  std::map<ClassKey, MrcParameters> stable{};  // baselines before adoption
  std::optional<TierView> tier2{};             // a tiered engine's tier
  Hold evidence = Hold::kNone;                 // the evidence gate's answer
};

// One application's violating interval.
struct Decision {
  SimTime t = 0;
  AppId app = 0;
  Verdict verdict = Verdict::kViolation;
  bool monitoring = false;   // actions off: diagnose for the record
  bool coarse_only = false;  // fine-grained rungs off
  bool no_stats = false;     // no per-class statistics for the app
  // What the sla event prints, read before the cascade.
  uint64_t queries = 0;
  double avg_latency = 0;
  double p95_latency = 0;
  double throughput = 0;
  bool sla_met = true;
  int streak = 0;
  int servers_used = 0;
  double end_interval_us = 0;
  double stats_conf = 1.0;  // lowest feed confidence of the replica set
  int stale_replicas = 0;
  std::vector<EngineDiagnosis> engines{};
  std::vector<Proposal> proposals{};  // in commit order
  std::vector<Action> actions{};

  bool Acted() const;  // a proposal was committed
};

// The interval's reason when it held fire or acted on nothing: the
// verdict (overload_shed, bootstrap, warmup), then monitoring,
// coarse_only; no_action after an action; no_stats; low_confidence when
// a gate held stale evidence; otherwise no_action.
const char* Why(const Decision& decision);

TraceEvent ActionEvent(const Action& action);

// The interval's events: sla; each engine's impact and iqr, and its mrc
// when it recomputed; skipped:true events carrying Why() for the phases
// no engine reached; then its actions, or one kind:"none" action.
std::vector<TraceEvent> RenderDecision(const Decision& decision);

}  // namespace fglb

#endif  // FGLB_CORE_DECISION_H_

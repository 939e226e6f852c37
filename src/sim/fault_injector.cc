#include "sim/fault_injector.h"

#include <algorithm>
#include <cassert>
#include <initializer_list>
#include <iterator>

#include "common/kv_spec.h"

namespace fglb {

namespace {

// How a param's value parses, prints and is drawn.
enum class Grammar {
  kId,       // a digit string; drawn from [0, the profile's id count)
  kMode,     // one of the kind's two mode words, stored as 1 or 2
  kFactor,   // a finite number > 0
  kRate,     // a finite number in [0, 1]
  kSeconds,  // a finite number >= 0
};

struct Param {
  const char* key;
  Grammar grammar;
  int FaultEvent::*id = nullptr;          // kId, kMode
  double FaultEvent::*number = nullptr;   // kFactor, kRate, kSeconds
  bool required = false;
  // Nonzero: the param goes with this mode only. It is parsed, printed
  // and drawn with it, and refused with the other; the mode comes
  // earlier in the row.
  int only_mode = 0;
  int RandomFaultProfile::*ids = nullptr;  // kId's draw range
  double lo = 0;                           // a number's draw range
  double hi = 0;
};

struct KindRow {
  const char* name;
  const char* modes[2];             // for a row with a kMode param
  int RandomFaultProfile::*count;   // events a random schedule draws
  std::initializer_list<Param> params;  // in print and draw order
};

constexpr bool kRequired = true;
constexpr bool kOptional = false;

constexpr Param Id(const char* key, int FaultEvent::*field,
                   int RandomFaultProfile::*ids) {
  return {.key = key, .grammar = Grammar::kId, .id = field,
          .required = kRequired, .ids = ids};
}

constexpr Param Number(const char* key, Grammar grammar,
                       double FaultEvent::*field, bool required, double lo,
                       double hi, int only_mode = 0) {
  return {.key = key, .grammar = grammar, .number = field,
          .required = required, .only_mode = only_mode, .lo = lo, .hi = hi};
}

constexpr Param kReplicaParam =
    Id("replica", &FaultEvent::replica, &RandomFaultProfile::replicas);
constexpr Param kModeParam = {.key = "mode", .grammar = Grammar::kMode,
                              .id = &FaultEvent::mode, .required = kRequired};

// The fault grammar: one row per FaultKind, in enum order, which is
// also the order a random schedule draws kinds in. A new kind goes
// last, with a profile count that defaults to 0, so every existing
// seed keeps expanding to the schedule it always did.
constexpr KindRow kKinds[] = {
    {"crash", {}, &RandomFaultProfile::crashes,
     {kReplicaParam,
      Number("restart", Grammar::kSeconds, &FaultEvent::restart_after,
             kOptional, 20, 60)}},
    {"disk", {}, &RandomFaultProfile::disk_spikes,
     {Id("server", &FaultEvent::server, &RandomFaultProfile::servers),
      Number("factor", Grammar::kFactor, &FaultEvent::factor, kRequired, 2,
             10),
      Number("duration", Grammar::kSeconds, &FaultEvent::duration,
             kOptional, 30, 120)}},
    {"slow", {}, &RandomFaultProfile::slowdowns,
     {kReplicaParam,
      Number("factor", Grammar::kFactor, &FaultEvent::factor, kRequired, 1.5,
             4),
      Number("duration", Grammar::kSeconds, &FaultEvent::duration,
             kOptional, 30, 120)}},
    {"stats", {"drop", "partial"}, &RandomFaultProfile::stats_dropouts,
     {kReplicaParam, kModeParam,
      Number("duration", Grammar::kSeconds, &FaultEvent::duration,
             kOptional, 20, 80)}},
    {"migration", {}, &RandomFaultProfile::migration_windows,
     {Number("delay", Grammar::kSeconds, &FaultEvent::delay_seconds,
             kRequired, 1, 8),
      Number("fail", Grammar::kRate, &FaultEvent::fail_rate, kRequired, 0,
             0.6),
      Number("duration", Grammar::kSeconds, &FaultEvent::duration,
             kOptional, 60, 240)}},
    {"tier", {"fail", "degrade"}, &RandomFaultProfile::tier_faults,
     {kReplicaParam, kModeParam,
      Number("factor", Grammar::kFactor, &FaultEvent::factor, kRequired, 2,
             10, kTierDegrade),
      Number("duration", Grammar::kSeconds, &FaultEvent::duration,
             kOptional, 30, 120)}},
    // A net window must do something: see NetWindowDoesNothing.
    {"net", {}, &RandomFaultProfile::net_windows,
     {Number("drop", Grammar::kRate, &FaultEvent::drop_rate, kOptional,
             0.05, 0.3),
      Number("dup", Grammar::kRate, &FaultEvent::dup_rate, kOptional, 0,
             0.15),
      Number("corrupt", Grammar::kRate, &FaultEvent::corrupt_rate,
             kOptional, 0, 0.1),
      Number("reorder", Grammar::kRate, &FaultEvent::reorder_rate,
             kOptional, 0, 0.2),
      Number("delay", Grammar::kSeconds, &FaultEvent::delay_seconds,
             kOptional, 0, 4),
      Number("duration", Grammar::kSeconds, &FaultEvent::duration,
             kOptional, 60, 240)}},
    {"ctl", {}, &RandomFaultProfile::ctl_crashes,
     {Number("restart", Grammar::kSeconds, &FaultEvent::restart_after,
             kOptional, 10, 40)}},
};
static_assert(std::size(kKinds) == static_cast<size_t>(FaultKind::kCtl) + 1,
              "one grammar row per FaultKind");

const KindRow& RowOf(FaultKind kind) {
  return kKinds[static_cast<size_t>(kind)];
}

bool Applies(const Param& param, const FaultEvent& event) {
  return param.only_mode == 0 || event.mode == param.only_mode;
}

bool ParseValue(const KindRow& row, const Param& param,
                const std::string& value, FaultEvent* event) {
  switch (param.grammar) {
    case Grammar::kId:
      return ParseKvCount(value, &(event->*param.id));
    case Grammar::kMode:
      for (int m = 0; m < 2; ++m) {
        if (value == row.modes[m]) {
          event->*param.id = m + 1;
          return true;
        }
      }
      return false;
    default:
      break;
  }
  double number = 0;
  if (!ParseKvNumber(value, &number) || number < 0 ||
      (param.grammar == Grammar::kFactor && number == 0) ||
      (param.grammar == Grammar::kRate && number > 1)) {
    return false;
  }
  event->*param.number = number;
  return true;
}

std::string FormatValue(const KindRow& row, const Param& param,
                        const FaultEvent& event) {
  switch (param.grammar) {
    case Grammar::kId:
      return std::to_string(event.*param.id);
    case Grammar::kMode:
      return row.modes[event.*param.id == 2 ? 1 : 0];
    default:
      return FormatKvNumber(event.*param.number);
  }
}

bool IsDefault(const Param& param, const FaultEvent& event) {
  static const FaultEvent kDefaults;
  return param.number != nullptr
             ? event.*param.number == kDefaults.*param.number
             : event.*param.id == kDefaults.*param.id;
}

bool NetWindowDoesNothing(const FaultEvent& e) {
  return e.kind == FaultKind::kNet &&
         e.drop_rate + e.dup_rate + e.corrupt_rate + e.reorder_rate +
                 e.delay_seconds <=
             0;
}

std::vector<const FaultEvent*> SortedByTime(
    const std::vector<FaultEvent>& events) {
  std::vector<const FaultEvent*> sorted;
  sorted.reserve(events.size());
  for (const FaultEvent& e : events) sorted.push_back(&e);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent* a, const FaultEvent* b) {
                     return a->time < b->time;
                   });
  return sorted;
}

// Closes the latest open window equal to `event`; a window that opened
// first may still be open after one armed later has closed.
void CloseWindow(const FaultEvent& event, std::vector<FaultEvent>* open) {
  const auto it = std::find(open->rbegin(), open->rend(), event);
  if (it != open->rend()) open->erase(std::next(it).base());
}

}  // namespace

std::string FaultSpec::ToString() const {
  std::string out;
  for (const FaultEvent* e : SortedByTime(events)) {
    const KindRow& row = RowOf(e->kind);
    if (!out.empty()) out += ';';
    out += std::string(row.name) + '@' + FormatKvNumber(e->time) + ':';
    const size_t params_begin = out.size();
    for (const Param& param : row.params) {
      if (!Applies(param, *e) || (!param.required && IsDefault(param, *e))) {
        continue;
      }
      if (out.size() > params_begin) out += ',';
      out += std::string(param.key) + '=' + FormatValue(row, param, *e);
    }
  }
  return out;
}

bool FaultSpec::Parse(const std::string& text, FaultSpec* out,
                      std::string* error) {
  FaultSpec spec;
  for (size_t begin = 0; !text.empty() && begin <= text.size();) {
    const size_t end = std::min(text.find(';', begin), text.size());
    const std::string entry = text.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) return KvError(error, "empty fault entry in: " + text);
    const size_t at = entry.find('@');
    const size_t colon = entry.find(':', at == std::string::npos ? 0 : at);
    if (at == std::string::npos || colon == std::string::npos) {
      return KvError(error,
                     "fault entry needs kind@time:params, got: " + entry);
    }
    const std::string name = entry.substr(0, at);
    const KindRow* row =
        std::find_if(std::begin(kKinds), std::end(kKinds),
                     [&name](const KindRow& r) { return name == r.name; });
    if (row == std::end(kKinds)) {
      return KvError(error, "unknown fault kind: " + name);
    }
    FaultEvent event;
    event.kind = static_cast<FaultKind>(row - std::begin(kKinds));
    if (!ParseKvNumber(entry.substr(at + 1, colon - at - 1), &event.time) ||
        event.time < 0) {
      return KvError(error, "bad fault time in: " + entry);
    }
    // An empty param list is zero pairs ("ctl@400:").
    KvItems params;
    if (!SplitKvSpec(entry.substr(colon + 1), ',', "fault param", &params,
                     error)) {
      return false;
    }
    std::vector<bool> given(row->params.size());
    for (const auto& [key, value] : params) {
      const Param* param =
          std::find_if(row->params.begin(), row->params.end(),
                       [&key](const Param& p) { return key == p.key; });
      if (param == row->params.end()) {
        return KvError(error, name + " fault takes no param " + key +
                                  " in: " + entry);
      }
      if (!ParseValue(*row, *param, value, &event)) {
        return KvError(error,
                       "bad value for fault param " + key + ": " + value);
      }
      given[param - row->params.begin()] = true;
    }
    for (size_t i = 0; i < given.size(); ++i) {
      const Param& param = row->params.begin()[i];
      if (!Applies(param, event) && given[i]) {
        return KvError(error, name + " fault takes no " + param.key +
                                  " with mode=" +
                                  FormatValue(*row, kModeParam, event) +
                                  " in: " + entry);
      }
      if (Applies(param, event) && param.required && !given[i]) {
        return KvError(error, std::string("fault entry missing ") +
                                  param.key + ": " + entry);
      }
    }
    if (NetWindowDoesNothing(event)) {
      return KvError(error,
                     "net fault needs a nonzero drop, dup, corrupt, reorder "
                     "or delay in: " + entry);
    }
    spec.events.push_back(event);
  }
  *out = std::move(spec);
  return true;
}

FaultSpec MakeRandomFaultSpec(uint64_t seed, double duration,
                              const RandomFaultProfile& profile) {
  assert(duration > 0);
  Rng rng(seed);
  FaultSpec spec;
  for (const KindRow& row : kKinds) {
    for (int i = 0; i < profile.*row.count; ++i) {
      FaultEvent e;
      e.kind = static_cast<FaultKind>(&row - kKinds);
      e.time = rng.UniformDouble(profile.min_time_fraction * duration,
                                 profile.max_time_fraction * duration);
      for (const Param& param : row.params) {
        if (!Applies(param, e)) continue;
        switch (param.grammar) {
          case Grammar::kId: {
            const int n = profile.*param.ids;
            e.*param.id = n > 0 ? static_cast<int>(rng.NextUint64(
                                      static_cast<uint64_t>(n)))
                                : 0;
            break;
          }
          case Grammar::kMode:
            e.*param.id = rng.Bernoulli(0.5) ? 1 : 2;
            break;
          default:
            e.*param.number = rng.UniformDouble(param.lo, param.hi);
        }
      }
      spec.events.push_back(e);
    }
  }
  return spec;
}

FaultInjector::FaultInjector(Simulator* sim, FaultBackend* backend,
                             FaultSpec spec, uint64_t seed)
    : sim_(sim),
      backend_(backend),
      spec_(std::move(spec)),
      // Decorrelate decision draws from any schedule generated with the
      // same seed.
      rng_(seed ^ 0xFA17BEEFULL) {
  assert(sim_ != nullptr && backend_ != nullptr);
}

void FaultInjector::BindObservability(MetricsRegistry* metrics,
                                      TraceLog* trace) {
  metrics_ = metrics;
  trace_ = trace;
}

void FaultInjector::Arm() {
  if (armed_) return;
  armed_ = true;
  const SimTime now = sim_->Now();
  for (const FaultEvent& event : spec_.events) {
    const FaultEvent copy = event;
    sim_->ScheduleAt(std::max(now, event.time), [this, copy] { Fire(copy); });
  }
}

void FaultInjector::Note(const char* kind, int target, double factor,
                         bool applied, bool revert) {
  if (applied) {
    ++injected_;
  } else {
    ++noops_;
  }
  if (metrics_ != nullptr) {
    metrics_
        ->counter(applied ? std::string("fault.") + kind
                          : std::string("fault.noop"))
        ->Increment();
  }
  if (trace_ != nullptr && trace_->enabled()) {
    TraceEvent event("fault");
    event.Num("t", sim_->Now())
        .Str("kind", kind)
        .Int("target", target)
        .Num("factor", factor)
        .Bool("applied", applied)
        .Bool("revert", revert);
    trace_->Emit(event);
  }
}

void FaultInjector::Fire(const FaultEvent& event) {
  bool ok = true;
  switch (event.kind) {
    case FaultKind::kCrash:
      ok = backend_->CrashReplica(event.replica);
      Note("crash", event.replica, 0, ok, false);
      if (ok && event.restart_after >= 0) {
        const int replica = event.replica;
        sim_->ScheduleAfter(event.restart_after, [this, replica] {
          Note("restart", replica, 0, backend_->RestartReplica(replica),
               false);
        });
      }
      break;
    case FaultKind::kDisk:
      ok = backend_->SetDiskLatencyFactor(event.server, event.factor);
      Note("disk", event.server, event.factor, ok, false);
      break;
    case FaultKind::kSlow:
      ok = backend_->SetReplicaSlowdown(event.replica, event.factor);
      Note("slow", event.replica, event.factor, ok, false);
      break;
    case FaultKind::kStats:
      ok = backend_->SetStatsDropout(event.replica, event.mode);
      Note("stats", event.replica, event.mode, ok, false);
      break;
    case FaultKind::kMigration:
      migration_windows_.push_back(event);
      Note("migration_window", -1, event.fail_rate, true, false);
      break;
    case FaultKind::kTier:
      ok = backend_->SetTierFault(event.replica, event.mode, event.factor);
      Note("tier", event.replica,
           event.mode == kTierDegrade ? event.factor : 0, ok, false);
      break;
    case FaultKind::kNet:
      net_windows_.push_back(event);
      Note("net_window", -1, event.drop_rate, true, false);
      break;
    case FaultKind::kCtl:
      ok = backend_->CrashController();
      Note("ctl_crash", -1, 0, ok, false);
      if (ok && event.restart_after >= 0) {
        sim_->ScheduleAfter(event.restart_after, [this] {
          Note("ctl_restart", -1, 0, backend_->RestartController(), false);
        });
      }
      break;
  }
  if (ok && event.duration > 0) {
    sim_->ScheduleAfter(event.duration, [this, event] { Revert(event); });
  }
}

void FaultInjector::Revert(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kCrash:
    case FaultKind::kCtl:
      break;  // no duration; a restart is a separate sub-event
    case FaultKind::kDisk:
      Note("disk", event.server, 1.0,
           backend_->SetDiskLatencyFactor(event.server, 1.0), true);
      break;
    case FaultKind::kSlow:
      Note("slow", event.replica, 1.0,
           backend_->SetReplicaSlowdown(event.replica, 1.0), true);
      break;
    case FaultKind::kStats:
      Note("stats", event.replica, 0,
           backend_->SetStatsDropout(event.replica, 0), true);
      break;
    case FaultKind::kMigration:
      CloseWindow(event, &migration_windows_);
      Note("migration_window", -1, 0, true, true);
      break;
    case FaultKind::kTier:
      Note("tier", event.replica, 1.0,
           backend_->SetTierFault(event.replica, 0, 1.0), true);
      break;
    case FaultKind::kNet:
      CloseWindow(event, &net_windows_);
      Note("net_window", -1, 0, true, true);
      break;
  }
}

bool FaultInjector::Draw(double rate, const char* counter) {
  if (!(rate > 0 && rng_.Bernoulli(rate))) return false;
  if (metrics_ != nullptr) metrics_->counter(counter)->Increment();
  return true;
}

FaultInjector::MigrationDecision FaultInjector::OnMigrationAttempt() {
  if (migration_windows_.empty()) return {};
  const FaultEvent& window = migration_windows_.back();
  MigrationDecision decision;
  decision.fail = Draw(window.fail_rate, "fault.migration.failed");
  decision.delay_seconds = decision.fail ? 0 : window.delay_seconds;
  if (decision.delay_seconds > 0 && metrics_ != nullptr) {
    metrics_->counter("fault.migration.delayed")->Increment();
  }
  return decision;
}

FaultInjector::NetDecision FaultInjector::OnStatsReport() {
  if (net_windows_.empty()) return {};
  const FaultEvent& window = net_windows_.back();
  NetDecision decision;
  decision.drop = Draw(window.drop_rate, "fault.net.dropped");
  if (decision.drop) return decision;
  decision.delay_seconds = window.delay_seconds;
  decision.duplicate = Draw(window.dup_rate, "fault.net.duplicated");
  decision.corrupt = Draw(window.corrupt_rate, "fault.net.corrupted");
  decision.reorder = Draw(window.reorder_rate, "fault.net.reordered");
  return decision;
}

}  // namespace fglb

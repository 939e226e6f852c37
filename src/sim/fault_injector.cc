#include "sim/fault_injector.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/kv_spec.h"

namespace fglb {

namespace {

bool ParseKind(const std::string& name, FaultKind* out) {
  if (name == "crash") *out = FaultKind::kCrash;
  else if (name == "disk") *out = FaultKind::kDisk;
  else if (name == "slow") *out = FaultKind::kSlow;
  else if (name == "stats") *out = FaultKind::kStats;
  else if (name == "migration") *out = FaultKind::kMigration;
  else if (name == "tier") *out = FaultKind::kTier;
  else if (name == "net") *out = FaultKind::kNet;
  else if (name == "ctl") *out = FaultKind::kCtl;
  else return false;
  return true;
}

// The params a kind takes, comma-separated: its row of the grammar
// table in README.
const char* ParamsOf(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "replica,restart";
    case FaultKind::kDisk:
      return "server,factor,duration";
    case FaultKind::kSlow:
      return "replica,factor,duration";
    case FaultKind::kStats:
      return "replica,mode,duration";
    case FaultKind::kMigration:
      return "delay,fail,duration";
    case FaultKind::kTier:
      return "replica,mode,factor,duration";
    case FaultKind::kNet:
      return "drop,dup,corrupt,reorder,delay,duration";
    case FaultKind::kCtl:
      return "restart";
  }
  return "";
}

bool Takes(FaultKind kind, const std::string& key) {
  const std::string params = std::string(",") + ParamsOf(kind) + ",";
  return params.find("," + key + ",") != std::string::npos;
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

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kDisk:
      return "disk";
    case FaultKind::kSlow:
      return "slow";
    case FaultKind::kStats:
      return "stats";
    case FaultKind::kMigration:
      return "migration";
    case FaultKind::kTier:
      return "tier";
    case FaultKind::kNet:
      return "net";
    case FaultKind::kCtl:
      return "ctl";
  }
  return "unknown";
}

std::string FaultSpec::ToString() const {
  std::string out;
  for (const FaultEvent* e : SortedByTime(events)) {
    if (!out.empty()) out += ';';
    out += FaultKindName(e->kind);
    out += '@' + FormatKvNumber(e->time) + ':';
    switch (e->kind) {
      case FaultKind::kCrash:
        out += "replica=" + std::to_string(e->replica);
        if (e->restart_after >= 0) {
          out += ",restart=" + FormatKvNumber(e->restart_after);
        }
        break;
      case FaultKind::kDisk:
        out += "server=" + std::to_string(e->server) +
               ",factor=" + FormatKvNumber(e->factor);
        if (e->duration > 0) out += ",duration=" + FormatKvNumber(e->duration);
        break;
      case FaultKind::kSlow:
        out += "replica=" + std::to_string(e->replica) +
               ",factor=" + FormatKvNumber(e->factor);
        if (e->duration > 0) out += ",duration=" + FormatKvNumber(e->duration);
        break;
      case FaultKind::kStats:
        out += "replica=" + std::to_string(e->replica) + ",mode=" +
               (e->stats_mode == kStatsPartial ? "partial" : "drop");
        if (e->duration > 0) out += ",duration=" + FormatKvNumber(e->duration);
        break;
      case FaultKind::kMigration:
        out += "delay=" + FormatKvNumber(e->delay_seconds) +
               ",fail=" + FormatKvNumber(e->fail_rate);
        if (e->duration > 0) out += ",duration=" + FormatKvNumber(e->duration);
        break;
      case FaultKind::kTier:
        out += "replica=" + std::to_string(e->replica) + ",mode=" +
               (e->tier_mode == kTierDegrade ? "degrade" : "fail");
        if (e->tier_mode == kTierDegrade) {
          out += ",factor=" + FormatKvNumber(e->factor);
        }
        if (e->duration > 0) out += ",duration=" + FormatKvNumber(e->duration);
        break;
      case FaultKind::kNet: {
        // Zero-valued effects are omitted; the canonical form carries
        // only what the window actually does.
        std::string fields;
        auto add = [&fields](const char* key, double v) {
          if (v <= 0) return;
          if (!fields.empty()) fields += ',';
          fields += std::string(key) + "=" + FormatKvNumber(v);
        };
        add("drop", e->drop_rate);
        add("dup", e->dup_rate);
        add("corrupt", e->corrupt_rate);
        add("reorder", e->reorder_rate);
        add("delay", e->delay_seconds);
        add("duration", e->duration);
        out += fields;
        break;
      }
      case FaultKind::kCtl:
        if (e->restart_after >= 0) {
          out += "restart=" + FormatKvNumber(e->restart_after);
        }
        break;
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
    FaultEvent event;
    // The grammar requires an explicit factor where one matters (the
    // struct default 1.0 would make a forgotten factor a silent no-op).
    event.factor = 0;
    if (!ParseKind(entry.substr(0, at), &event.kind)) {
      return KvError(error, "unknown fault kind: " + entry.substr(0, at));
    }
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
    bool has_factor = false;
    for (const auto& [key, value] : params) {
      bool ok = true;
      has_factor |= key == "factor";
      if (key == "replica") ok = ParseKvCount(value, &event.replica);
      else if (key == "server") ok = ParseKvCount(value, &event.server);
      else if (key == "factor") ok = ParseKvNumber(value, &event.factor);
      else if (key == "duration") ok = ParseKvNumber(value, &event.duration);
      else if (key == "restart")
        ok = ParseKvNumber(value, &event.restart_after);
      else if (key == "delay") ok = ParseKvNumber(value, &event.delay_seconds);
      else if (key == "fail") ok = ParseKvNumber(value, &event.fail_rate);
      else if (key == "drop") ok = ParseKvNumber(value, &event.drop_rate);
      else if (key == "dup") ok = ParseKvNumber(value, &event.dup_rate);
      else if (key == "corrupt") ok = ParseKvNumber(value, &event.corrupt_rate);
      else if (key == "reorder") ok = ParseKvNumber(value, &event.reorder_rate);
      else if (key == "mode") {
        const bool stats = event.kind == FaultKind::kStats;
        const bool tier = event.kind == FaultKind::kTier;
        if (stats && value == "drop") event.stats_mode = kStatsDropAll;
        else if (stats && value == "partial") event.stats_mode = kStatsPartial;
        else if (tier && value == "fail") event.tier_mode = kTierFail;
        else if (tier && value == "degrade") event.tier_mode = kTierDegrade;
        else ok = false;
      } else {
        return KvError(error, "unknown fault param: " + key);
      }
      if (!Takes(event.kind, key)) {
        return KvError(error, std::string(FaultKindName(event.kind)) +
                                  " fault takes no param " + key +
                                  " in: " + entry);
      }
      if (!ok) {
        return KvError(error,
                       "bad value for fault param " + key + ": " + value);
      }
    }
    // Kind-specific required fields.
    const char* missing = nullptr;
    switch (event.kind) {
      case FaultKind::kCrash:
        if (event.replica < 0) missing = "replica";
        break;
      case FaultKind::kDisk:
        if (event.server < 0) missing = "server";
        else if (event.factor <= 0) missing = "factor";
        break;
      case FaultKind::kSlow:
        if (event.replica < 0) missing = "replica";
        else if (event.factor <= 0) missing = "factor";
        break;
      case FaultKind::kStats:
        if (event.replica < 0) missing = "replica";
        break;
      case FaultKind::kMigration:
        if (event.fail_rate < 0 || event.fail_rate > 1) missing = "fail";
        break;
      case FaultKind::kTier:
        if (event.replica < 0) missing = "replica";
        else if (event.tier_mode == 0) missing = "mode";
        else if (event.tier_mode == kTierDegrade && event.factor <= 0)
          missing = "factor";
        else if (event.tier_mode == kTierFail && has_factor)
          return KvError(error,
                         "tier fault takes no factor with mode=fail in: " +
                             entry);
        break;
      case FaultKind::kNet:
        if (event.drop_rate < 0 || event.drop_rate > 1) missing = "drop";
        else if (event.dup_rate < 0 || event.dup_rate > 1) missing = "dup";
        else if (event.corrupt_rate < 0 || event.corrupt_rate > 1)
          missing = "corrupt";
        else if (event.reorder_rate < 0 || event.reorder_rate > 1)
          missing = "reorder";
        else if (event.delay_seconds < 0) missing = "delay";
        else if (event.drop_rate + event.dup_rate + event.corrupt_rate +
                     event.reorder_rate + event.delay_seconds <=
                 0)
          missing = "drop";  // a window must do *something*
        break;
      case FaultKind::kCtl:
        break;  // restart is optional; absent = controller stays down
    }
    if (missing != nullptr) {
      return KvError(error, std::string("fault entry missing/invalid ") +
                                missing + ": " + entry);
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
  auto when = [&rng, &profile, duration] {
    return rng.UniformDouble(profile.min_time_fraction * duration,
                             profile.max_time_fraction * duration);
  };
  auto pick = [&rng](int n) {
    return n > 0 ? static_cast<int>(rng.NextUint64(
                       static_cast<uint64_t>(n)))
                 : 0;
  };
  for (int i = 0; i < profile.crashes; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kCrash;
    e.time = when();
    e.replica = pick(profile.replicas);
    e.restart_after = rng.UniformDouble(20, 60);
    spec.events.push_back(e);
  }
  for (int i = 0; i < profile.disk_spikes; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kDisk;
    e.time = when();
    e.server = pick(profile.servers);
    e.factor = rng.UniformDouble(2, 10);
    e.duration = rng.UniformDouble(30, 120);
    spec.events.push_back(e);
  }
  for (int i = 0; i < profile.slowdowns; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kSlow;
    e.time = when();
    e.replica = pick(profile.replicas);
    e.factor = rng.UniformDouble(1.5, 4);
    e.duration = rng.UniformDouble(30, 120);
    spec.events.push_back(e);
  }
  for (int i = 0; i < profile.stats_dropouts; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kStats;
    e.time = when();
    e.replica = pick(profile.replicas);
    e.stats_mode = rng.Bernoulli(0.5) ? kStatsDropAll : kStatsPartial;
    e.duration = rng.UniformDouble(20, 80);
    spec.events.push_back(e);
  }
  for (int i = 0; i < profile.migration_windows; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kMigration;
    e.time = when();
    e.delay_seconds = rng.UniformDouble(1, 8);
    e.fail_rate = rng.UniformDouble(0, 0.6);
    e.duration = rng.UniformDouble(60, 240);
    spec.events.push_back(e);
  }
  // Drawn last so existing seeds (tier_faults defaults to 0) keep
  // expanding to their historical schedules byte-for-byte.
  for (int i = 0; i < profile.tier_faults; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kTier;
    e.time = when();
    e.replica = pick(profile.replicas);
    e.tier_mode = rng.Bernoulli(0.5) ? kTierFail : kTierDegrade;
    e.factor =
        e.tier_mode == kTierDegrade ? rng.UniformDouble(2, 10) : 0;
    e.duration = rng.UniformDouble(30, 120);
    spec.events.push_back(e);
  }
  // And net/ctl after tier, for the same seed-stability reason.
  for (int i = 0; i < profile.net_windows; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kNet;
    e.time = when();
    e.drop_rate = rng.UniformDouble(0.05, 0.3);
    e.dup_rate = rng.UniformDouble(0, 0.15);
    e.corrupt_rate = rng.UniformDouble(0, 0.1);
    e.reorder_rate = rng.UniformDouble(0, 0.2);
    e.delay_seconds = rng.UniformDouble(0, 4);
    e.duration = rng.UniformDouble(60, 240);
    spec.events.push_back(e);
  }
  for (int i = 0; i < profile.ctl_crashes; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kCtl;
    e.time = when();
    e.restart_after = rng.UniformDouble(10, 40);
    spec.events.push_back(e);
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
  switch (event.kind) {
    case FaultKind::kCrash: {
      const bool ok = backend_->CrashReplica(event.replica);
      Note("crash", event.replica, 0, ok, false);
      if (ok && event.restart_after >= 0) {
        const int replica = event.replica;
        sim_->ScheduleAfter(event.restart_after, [this, replica] {
          const bool restarted = backend_->RestartReplica(replica);
          Note("restart", replica, 0, restarted, false);
        });
      }
      break;
    }
    case FaultKind::kDisk: {
      const bool ok = backend_->SetDiskLatencyFactor(event.server,
                                                     event.factor);
      Note("disk", event.server, event.factor, ok, false);
      if (ok && event.duration > 0) {
        const FaultEvent copy = event;
        sim_->ScheduleAfter(event.duration, [this, copy] { Revert(copy); });
      }
      break;
    }
    case FaultKind::kSlow: {
      const bool ok = backend_->SetReplicaSlowdown(event.replica,
                                                   event.factor);
      Note("slow", event.replica, event.factor, ok, false);
      if (ok && event.duration > 0) {
        const FaultEvent copy = event;
        sim_->ScheduleAfter(event.duration, [this, copy] { Revert(copy); });
      }
      break;
    }
    case FaultKind::kStats: {
      const bool ok = backend_->SetStatsDropout(event.replica,
                                                event.stats_mode);
      Note("stats", event.replica, event.stats_mode, ok, false);
      if (ok && event.duration > 0) {
        const FaultEvent copy = event;
        sim_->ScheduleAfter(event.duration, [this, copy] { Revert(copy); });
      }
      break;
    }
    case FaultKind::kMigration: {
      ++migration_windows_;
      migration_delay_ = event.delay_seconds;
      migration_fail_rate_ = event.fail_rate;
      Note("migration_window", -1, event.fail_rate, true, false);
      if (event.duration > 0) {
        const FaultEvent copy = event;
        sim_->ScheduleAfter(event.duration, [this, copy] { Revert(copy); });
      }
      break;
    }
    case FaultKind::kTier: {
      const bool ok = backend_->SetTierFault(event.replica, event.tier_mode,
                                             event.factor);
      Note("tier", event.replica,
           event.tier_mode == kTierDegrade ? event.factor : 0, ok, false);
      if (ok && event.duration > 0) {
        const FaultEvent copy = event;
        sim_->ScheduleAfter(event.duration, [this, copy] { Revert(copy); });
      }
      break;
    }
    case FaultKind::kNet: {
      ++net_windows_;
      net_drop_rate_ = event.drop_rate;
      net_dup_rate_ = event.dup_rate;
      net_corrupt_rate_ = event.corrupt_rate;
      net_reorder_rate_ = event.reorder_rate;
      net_delay_ = event.delay_seconds;
      Note("net_window", -1, event.drop_rate, true, false);
      if (event.duration > 0) {
        const FaultEvent copy = event;
        sim_->ScheduleAfter(event.duration, [this, copy] { Revert(copy); });
      }
      break;
    }
    case FaultKind::kCtl: {
      const bool ok = backend_->CrashController();
      Note("ctl_crash", -1, 0, ok, false);
      if (ok && event.restart_after >= 0) {
        sim_->ScheduleAfter(event.restart_after, [this] {
          const bool restarted = backend_->RestartController();
          Note("ctl_restart", -1, 0, restarted, false);
        });
      }
      break;
    }
  }
}

void FaultInjector::Revert(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kCrash:
      break;  // crashes do not revert (restart is a separate sub-event)
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
      migration_windows_ = std::max(0, migration_windows_ - 1);
      Note("migration_window", -1, 0, true, true);
      break;
    case FaultKind::kTier:
      Note("tier", event.replica, 1.0,
           backend_->SetTierFault(event.replica, 0, 1.0), true);
      break;
    case FaultKind::kNet:
      net_windows_ = std::max(0, net_windows_ - 1);
      Note("net_window", -1, 0, true, true);
      break;
    case FaultKind::kCtl:
      break;  // restarts are separate sub-events, like replica crashes
  }
}

FaultInjector::MigrationDecision FaultInjector::OnMigrationAttempt(
    uint64_t /*class_key*/, int /*attempt*/) {
  if (migration_windows_ <= 0) return {};
  MigrationDecision decision;
  decision.fail =
      migration_fail_rate_ > 0 && rng_.Bernoulli(migration_fail_rate_);
  decision.delay_seconds = decision.fail ? 0 : migration_delay_;
  if (metrics_ != nullptr) {
    if (decision.fail) {
      metrics_->counter("fault.migration.failed")->Increment();
    } else if (decision.delay_seconds > 0) {
      metrics_->counter("fault.migration.delayed")->Increment();
    }
  }
  return decision;
}

FaultInjector::NetDecision FaultInjector::OnStatsReport(int /*replica_id*/,
                                                        uint64_t /*seq*/) {
  if (net_windows_ <= 0) return {};
  NetDecision decision;
  if (net_drop_rate_ > 0 && rng_.Bernoulli(net_drop_rate_)) {
    decision.drop = true;
    if (metrics_ != nullptr) {
      metrics_->counter("fault.net.dropped")->Increment();
    }
    return decision;
  }
  decision.delay_seconds = net_delay_;
  if (net_dup_rate_ > 0 && rng_.Bernoulli(net_dup_rate_)) {
    decision.duplicate = true;
    if (metrics_ != nullptr) {
      metrics_->counter("fault.net.duplicated")->Increment();
    }
  }
  if (net_corrupt_rate_ > 0 && rng_.Bernoulli(net_corrupt_rate_)) {
    decision.corrupt = true;
    if (metrics_ != nullptr) {
      metrics_->counter("fault.net.corrupted")->Increment();
    }
  }
  if (net_reorder_rate_ > 0 && rng_.Bernoulli(net_reorder_rate_)) {
    decision.reorder = true;
    if (metrics_ != nullptr) {
      metrics_->counter("fault.net.reordered")->Increment();
    }
  }
  return decision;
}

}  // namespace fglb

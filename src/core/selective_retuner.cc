#include "core/selective_retuner.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "cluster/stats_channel.h"
#include "common/json.h"
#include "common/span_tracer.h"
#include "common/varint.h"
#include "core/io_interference.h"

namespace fglb {

namespace {

// Saturation thresholds, as a fraction of a server's CPU / I/O
// capacity.
constexpr double kCpuSaturationThreshold = 0.85;
constexpr double kIoSaturationThreshold = 0.85;
// An I/O eviction plans down to this utilization.
constexpr double kIoTargetUtilization = 0.60;
// Class-eviction is only the right response when I/O is *skewed*: the
// heaviest class must contribute at least this share of the channel's
// utilization. Unskewed saturation is a capacity problem and gets a
// replica instead.
constexpr double kIoSkewShare = 0.4;

// De-provision a replica when the app meets its SLA with average CPU
// utilization below kCpuReleaseThreshold for kReleaseAfter intervals.
constexpr double kCpuReleaseThreshold = 0.30;
constexpr int kReleaseAfter = 3;

// After the replica set of an application changes (bootstrap,
// provisioning, isolation), give buffer pools this many intervals to
// warm before diagnosing anything beyond CPU saturation.
constexpr int kWarmupIntervals = 3;

// Consecutive violating intervals before coarse fallback.
constexpr int kCoarseFallbackAfter = 4;

// Overload escalation: when admission control fast-fails at least this
// share of an application's offered load over an interval, the cluster
// is short on capacity no matter what the (shed-protected) latency
// says — skip the diagnosis cascade and provision a replica directly.
constexpr double kOverloadShedShare = 0.25;

// "Similar algorithms on the top-k heavyweight queries" when no
// outlier contexts are found.
constexpr size_t kTopKFallback = 3;

// The first migration retry waits this long; each further retry
// doubles it.
constexpr double kMigrationRetryBackoffSeconds = 2;
// A migration not applied within this window of its start is
// abandoned, whatever its retry budget still holds.
constexpr double kMigrationTimeoutSeconds = 30;

std::string ClassLabel(ClassKey key) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "app=%u/class=%u", AppOf(key), ClassOf(key));
  return buf;
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// {"app":1,"cls":3 prefix of every per-class trace object (the caller
// closes it).
std::string ClassObject(ClassKey key) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "{\"app\":%u,\"cls\":%u", AppOf(key),
                ClassOf(key));
  return buf;
}

// [a,b,...] with each element rendered by `render`.
template <typename Items, typename Render>
std::string JsonArray(const Items& items, Render render) {
  std::string out = "[";
  for (const auto& item : items) {
    if (out.size() > 1) out += ',';
    out += render(item);
  }
  return out + "]";
}

std::string ClassArray(const std::vector<ClassKey>& keys) {
  return JsonArray(keys, [](ClassKey key) { return ClassObject(key) + "}"; });
}

}  // namespace

SelectiveRetuner::SelectiveRetuner(Simulator* sim, ResourceManager* resources,
                                   Config config)
    : sim_(sim),
      resources_(resources),
      config_(config),
      channel_(sim, StatsChannelConfig{}),
      metrics_(config.metrics),
      trace_(config.trace) {
  assert(sim_ && resources_);
  channel_.BindObservability(metrics_, trace_);
  if (metrics_ != nullptr) {
    tick_us_ = metrics_->histogram("controller.tick_us");
    violations_ = metrics_->counter("controller.violations");
    planner_.BindMetrics(metrics_);
  }
}

const char* SelectiveRetuner::ActionKindName(ActionKind kind) {
  static constexpr const char* kNames[] = {
      "cpu_provision",     "io_provision", "cpu_release",     "quota_enforced",
      "class_rescheduled", "io_eviction",  "coarse_fallback", "demote"};
  const auto index = static_cast<size_t>(kind);
  return index < std::size(kNames) ? kNames[index] : "unknown";
}

void SelectiveRetuner::RegisterApplication(Scheduler* scheduler) {
  assert(scheduler != nullptr);
  schedulers_.push_back(scheduler);
}

LogAnalyzer& SelectiveRetuner::AnalyzerFor(Replica* replica) {
  std::unique_ptr<LogAnalyzer>& analyzer = analyzers_[replica->id()];
  if (analyzer == nullptr) {
    analyzer = std::make_unique<LogAnalyzer>(&replica->engine(),
                                             config_.outlier, config_.mrc,
                                             metrics_);
  }
  return *analyzer;
}

void SelectiveRetuner::Start() {
  if (started_) return;
  started_ = true;
  for (const auto& server : resources_->servers()) {
    server->ResetUtilizationWindow();
  }
  ArmTicker();
}

void SelectiveRetuner::ArmTicker() {
  const uint64_t epoch = epoch_;
  sim_->ScheduleAfter(config_.interval_seconds, [this, epoch] {
    if (epoch != epoch_) return;  // the controller crashed since arming
    Tick();
    ArmTicker();
  });
}

void SelectiveRetuner::Stop() {
  if (!started_) return;
  started_ = false;
  ++epoch_;  // strands the armed tick and every migration callback
}

void SelectiveRetuner::Restart() {
  if (started_) return;
  started_ = true;
  ArmTicker();
}

void SelectiveRetuner::ResetControlState() {
  state_ = {};
  analyzers_.clear();
  feeds_.clear();
  channel_.ResetReceiverState();
  scope_ = ViolationScope{};
  // actions_/samples_/diagnoses_/migration_stats_ survive: they are
  // the run's observability history, not control state. Migrations
  // whose callbacks died with the controller count as neither applied
  // nor abandoned.
}

void SelectiveRetuner::Count(const std::string& counter) {
  if (metrics_ != nullptr) metrics_->counter(counter)->Increment();
}

void SelectiveRetuner::Log(ActionKind kind, AppId app,
                           std::string description) {
  actions_.push_back(Action{sim_->Now(), kind, app, std::move(description)});
  if (spans_ != nullptr) spans_->RecordPhase("action", app, sim_->Now());
  Count(std::string("controller.actions.") + ActionKindName(kind));
  // In-scope actions are emitted when the scope closes so the trace
  // keeps its phase order; out-of-scope ones (e.g. a clean interval
  // releasing capacity) go out immediately.
  if (!scope_.active && Tracing()) EmitActionEvent(actions_.back());
}

void SelectiveRetuner::EmitActionEvent(const Action& action) {
  TraceEvent event("action");
  event.Num("t", action.time)
      .Uint("app", action.app)
      .Str("kind", ActionKindName(action.kind))
      .Str("desc", action.description);
  trace_->Emit(event);
}

void SelectiveRetuner::BeginViolationScope(
    Scheduler* scheduler, const Scheduler::IntervalReport& report,
    double end_interval_us) {
  scope_ = ViolationScope{};
  scope_.active = true;
  scope_.app = scheduler->app().id;
  scope_.actions_before = actions_.size();
  if (spans_ != nullptr) spans_->RecordPhase("sla", scope_.app, sim_->Now());
  if (!Tracing()) return;
  TraceEvent event("sla");
  event.Num("t", sim_->Now())
      .Uint("app", scope_.app)
      .Uint("queries", report.queries)
      .Num("avg_latency", report.avg_latency)
      .Num("p95_latency", report.p95_latency)
      .Num("throughput", report.throughput)
      .Bool("sla_met", report.sla_met)
      .Int("streak", state_.apps[scope_.app].violation_streak)
      .Int("servers_used", resources_->ServersUsedBy(*scheduler))
      .Num("dur_us", end_interval_us);
  // Telemetry health of this app's replica set.
  double min_conf = 1.0;
  int stale = 0;
  for (Replica* r : scheduler->replicas()) {
    const auto it = feeds_.find(r);
    if (it == feeds_.end()) continue;
    min_conf = std::min(min_conf, it->second.confidence);
    if (!it->second.fresh) ++stale;
  }
  event.Num("stats_conf", min_conf).Int("stale_replicas", stale);
  trace_->Emit(event);
}

void SelectiveRetuner::EndViolationScope(const char* why) {
  if (!scope_.active) return;
  if (Tracing()) {
    // Back-fill the phases the cascade never reached so every violating
    // interval carries the complete sla->impact->iqr->mrc->action chain.
    for (const auto& [emitted, phase] :
         {std::pair{scope_.outliers_emitted, "impact"},
          {scope_.outliers_emitted, "iqr"},
          {scope_.mrc_emitted, "mrc"}}) {
      if (emitted) continue;
      TraceEvent event(phase);
      event.Num("t", sim_->Now())
          .Uint("app", scope_.app)
          .Bool("skipped", true)
          .Str("why", why)
          .Num("dur_us", 0);
      trace_->Emit(event);
    }
    if (actions_.size() == scope_.actions_before) {
      TraceEvent event("action");
      event.Num("t", sim_->Now())
          .Uint("app", scope_.app)
          .Str("kind", "none")
          .Str("why", why);
      trace_->Emit(event);
    } else {
      for (size_t i = scope_.actions_before; i < actions_.size(); ++i) {
        EmitActionEvent(actions_[i]);
      }
    }
  }
  scope_ = ViolationScope{};
}

void SelectiveRetuner::TraceOutlierPhases(AppId app, int replica_id,
                                          const OutlierReport& report) {
  // "impact": the weighted current/stable ratio vectors the fences see.
  // Metric order inside the arrays is kAllMetrics order.
  auto metric_array = [](const std::map<Metric, std::map<ClassKey, double>>&
                             per_metric,
                         ClassKey key) {
    std::string out = "[";
    for (size_t m = 0; m < kAllMetrics.size(); ++m) {
      if (m > 0) out += ',';
      const auto it = per_metric.find(kAllMetrics[m]);
      out += JsonNumber(it != per_metric.end() && it->second.contains(key)
                            ? it->second.at(key)
                            : 0.0);
    }
    return out + "]";
  };
  std::set<ClassKey> keys;
  for (const auto& [metric, per_class] : report.ratios) {
    for (const auto& [key, value] : per_class) keys.insert(key);
  }
  const std::string classes = JsonArray(keys, [&](ClassKey key) {
    return ClassObject(key) + ",\"ratio\":" + metric_array(report.ratios, key) +
           ",\"impact\":" + metric_array(report.impacts, key) + "}";
  });
  TraceEvent impact("impact");
  impact.Num("t", sim_->Now())
      .Uint("app", app)
      .Int("replica", replica_id)
      .Raw("classes", classes)
      .Num("dur_us", report.impact_us);
  if (spans_ != nullptr) {
    // Measured latency breakdown alongside the inferred ratios: every
    // value derives from simulated time, so replays reproduce it.
    impact.Raw("wait_profile", spans_->WaitProfileJson(app));
  }
  trace_->Emit(impact);

  // "iqr": the fences applied per metric plus the resulting verdicts.
  const std::string fences =
      JsonArray(report.fences, [](const FenceSummary& f) {
        return "{\"metric\":\"" + std::string(MetricName(f.metric)) +
               "\",\"q1\":" + JsonNumber(f.q1) + ",\"q3\":" + JsonNumber(f.q3) +
               ",\"iqr\":" + JsonNumber(f.iqr) +
               ",\"inner_lo\":" + JsonNumber(f.inner_lo) +
               ",\"inner_hi\":" + JsonNumber(f.inner_hi) +
               ",\"outer_lo\":" + JsonNumber(f.outer_lo) +
               ",\"outer_hi\":" + JsonNumber(f.outer_hi) + "}";
      });
  const std::string outliers =
      JsonArray(report.outliers, [](const MetricOutlier& o) {
        return ClassObject(o.key) + ",\"metric\":\"" + MetricName(o.metric) +
               "\",\"ratio\":" + JsonNumber(o.ratio) +
               ",\"impact\":" + JsonNumber(o.impact) + ",\"degree\":\"" +
               (o.degree == OutlierDegree::kExtreme ? "extreme" : "mild") +
               "\",\"high\":" + (o.high_side ? "true" : "false") + "}";
      });
  TraceEvent iqr("iqr");
  iqr.Num("t", sim_->Now())
      .Uint("app", app)
      .Int("replica", replica_id)
      .Raw("fences", fences)
      .Raw("outliers", outliers)
      .Raw("new_classes", ClassArray(report.new_classes))
      .Num("dur_us", report.fence_us);
  trace_->Emit(iqr);
  scope_.outliers_emitted = true;
}

void SelectiveRetuner::TraceMrcPhase(
    AppId app, Replica* replica, double dur_us, size_t candidates,
    const LogAnalyzer::MemoryDiagnosis& diagnosis) {
  LogAnalyzer& analyzer = AnalyzerFor(replica);
  const TieredBufferPool* tier2 = replica->engine().tier2();
  auto profile_array = [&analyzer](
                           const std::vector<ClassMemoryProfile>& profiles) {
    return JsonArray(profiles, [&analyzer](const ClassMemoryProfile& p) {
      std::string out = ClassObject(p.key) + ",\"total_pages\":" +
                        std::to_string(p.params.total_memory_pages) +
                        ",\"acceptable_pages\":" +
                        std::to_string(p.params.acceptable_memory_pages);
      if (const MrcParameters* stable = analyzer.StableParamsOf(p.key)) {
        out += ",\"stable_total_pages\":" +
               std::to_string(stable->total_memory_pages) +
               ",\"stable_acceptable_pages\":" +
               std::to_string(stable->acceptable_memory_pages);
      }
      if (p.regret_vs_opt >= 0) {
        out += ",\"regret_vs_opt\":" + JsonNumber(p.regret_vs_opt);
      }
      return out + "}";
    });
  };
  TraceEvent event("mrc");
  event.Num("t", sim_->Now())
      .Uint("app", app)
      .Int("replica", replica->id());
  if (tier2 != nullptr) {
    // Second-tier state at diagnosis time; absent on tierless engines
    // so pre-tier traces replay unchanged.
    event.Uint("tier2_pages", tier2->capacity())
        .Uint("tier2_resident", tier2->resident_pages())
        .Num("tier2_read_us", tier2->config().read_us);
  }
  event.Uint("candidates", candidates)
      .Raw("suspects", profile_array(diagnosis.suspects))
      .Raw("cleared", profile_array(diagnosis.cleared))
      .Raw("insufficient", ClassArray(diagnosis.insufficient_data))
      .Num("dur_us", dur_us);
  trace_->Emit(event);
  scope_.mrc_emitted = true;
}

ControlPolicy SelectiveRetuner::Policy() const {
  return {.act = config_.enable_actions,
          .shed_escalation = admission_ != nullptr,
          .overload_shed_share = kOverloadShedShare,
          .warmup = kWarmupIntervals * config_.interval_seconds,
          .cooldown = kPlacementCooldownIntervals * config_.interval_seconds,
          .move_budget = config_.max_migrations_per_interval,
          .guard = channel_.config().guard,
          .act_threshold = channel_.config().act_threshold};
}

bool SelectiveRetuner::Admit(const GateRequest& request) {
  const Hold hold = PlacementGate(state_, Policy(), sim_->Now(), request);
  if (hold == Hold::kLowConfidence) {
    // The evidence is last-known-good, not measured: take no
    // quota/demote/migration off it. Shed and CPU provisioning run on
    // app-level latency and are never gated.
    low_confidence_suppressed_ = true;
    Count("controller.suppressed.low_confidence");
  } else if (hold == Hold::kBudget) {
    Count("controller.migration.budget_deferred");
  }
  return hold == Hold::kNone;
}

void SelectiveRetuner::Tick() {
  const auto tick_start = std::chrono::steady_clock::now();
  const double interval = config_.interval_seconds;
  migrations_this_interval_ = 0;
  // Drop analyzers whose replica no longer exists (decommissioned or
  // crash-destroyed): their engine pointers would dangle.
  std::erase_if(analyzers_, [this](const auto& entry) {
    return resources_->FindReplica(entry.first) == nullptr;
  });
  IntervalSample sample;
  sample.time = sim_->Now();

  // 1. Close the interval on every engine and server (order: replicas
  // in creation order for determinism). Every report travels publish
  // -> deliver -> collect through the stats channel, so the controller
  // sees the channel's (possibly stale) view.
  const std::vector<Replica*> replicas = resources_->AllReplicas();
  std::vector<int> live;
  live.reserve(replicas.size());
  for (Replica* r : replicas) live.push_back(r->id());
  channel_.Retain(live);
  for (Replica* r : replicas) {
    channel_.Publish(r->id(), r->engine().stats().EndInterval(interval),
                     interval);
  }
  feeds_.clear();
  for (Replica* r : replicas) feeds_[r] = channel_.Collect(r->id());
  for (const auto& server : resources_->servers()) {
    const ServerSample ss{server->id(), server->CpuUtilization(),
                          server->IoUtilization()};
    sample.servers.push_back(ss);
    if (metrics_ != nullptr) {
      const std::string prefix =
          "server." + std::to_string(ss.server_id) + ".";
      metrics_->gauge(prefix + "cpu_utilization")->Set(ss.cpu_utilization);
      metrics_->gauge(prefix + "io_utilization")->Set(ss.io_utilization);
    }
  }
  if (metrics_ != nullptr) resources_->PublishMetrics();

  // 2. Close the interval on every application.
  std::map<Scheduler*, Scheduler::IntervalReport> reports;
  std::map<Scheduler*, double> end_interval_us;
  for (Scheduler* s : schedulers_) {
    const auto end_start = std::chrono::steady_clock::now();
    const Scheduler::IntervalReport report = s->EndInterval(interval);
    end_interval_us[s] = MicrosSince(end_start);
    reports.emplace(s, report);
    sample.apps.push_back({s->app().id, report.queries, report.avg_latency,
                           report.p95_latency, report.throughput,
                           report.sla_met, resources_->ServersUsedBy(*s)});
  }

  // 3. Stable intervals refresh signatures and seed MRC baselines.
  // Only fresh feeds qualify: a last-known-good snapshot re-recorded
  // as "stable" would silently launder stale numbers into the
  // baselines every missed interval.
  for (Scheduler* s : schedulers_) {
    const auto& report = reports.at(s);
    if (!report.sla_met || report.queries == 0) continue;
    for (Replica* r : replicas) {
      const StatsChannel::Feed& feed = feeds_.at(r);
      if (!feed.fresh) continue;
      AnalyzerFor(r).RecordStableInterval(s->app().id, *feed.snapshot,
                                          sim_->Now());
    }
  }

  // 4. Track replica-set changes (warm-up windows start whenever an
  // app's topology moved, including changes made outside this loop; a
  // freshly seen app with replicas has cold pools).
  for (Scheduler* s : schedulers_) {
    ControlState::App& app = state_.apps[s->app().id];
    const size_t count = s->replicas().size();
    const bool changed = app.replicas_seen == ControlState::kUnseen
                             ? count > 0
                             : app.replicas_seen != count;
    if (changed) app.topology_changed_at = sim_->Now();
    app.replicas_seen = count;
  }

  // 5. Violations run the diagnosis cascade; clean intervals may
  // release over-provisioned capacity.
  const ControlPolicy policy = Policy();
  for (Scheduler* s : schedulers_) {
    const auto& report = reports.at(s);
    const IntervalView view{report.queries, report.shed, report.sla_met,
                            !s->replicas().empty()};
    const Verdict verdict =
        JudgeInterval(policy, sim_->Now(), view, &state_.apps[s->app().id]);
    if (verdict == Verdict::kCalm) {
      MaybeRelease(s);
      continue;
    }
    if (violations_ != nullptr) violations_->Increment();
    BeginViolationScope(s, report, end_interval_us[s]);
    const char* why = "warmup";  // pools still filling; hold fire
    if (verdict == Verdict::kOverloadShed) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "overload: %.0f%% of offered load shed; ",
                    100 * view.shed_share());
      Provision(s, ActionKind::kCpuProvision, buf, /*count_servers=*/true);
      why = "overload_shed";
    } else if (verdict == Verdict::kBootstrap) {
      TryCpuProvisioning(s);
      why = "bootstrap";
    } else if (verdict == Verdict::kViolation) {
      why = HandleViolation(s);
    }
    EndViolationScope(why);
  }

  for (const auto& server : resources_->servers()) {
    server->ResetUtilizationWindow();
  }
  samples_.push_back(std::move(sample));
  if (tick_us_ != nullptr) tick_us_->Record(MicrosSince(tick_start));
}

const char* SelectiveRetuner::HandleViolation(Scheduler* scheduler) {
  const AppId app = scheduler->app().id;
  low_confidence_suppressed_ = false;
  if (!config_.enable_actions) {
    // Monitoring only: run the diagnosis for the record, change nothing.
    TryMemoryRetuning(scheduler, /*act=*/false);
    return "monitoring";
  }
  if (config_.enable_fine_grained) {
    if (TryCpuProvisioning(scheduler)) return "no_action";
    // Graceful degradation: with no per-class statistics for this app
    // at all (stats-collector dropout, or every serving replica gone),
    // the fine-grained cascade — and the coarse fallback it escalates
    // to — would be reasoning about nothing. Skip with a reason; the
    // next interval with data resumes the cascade.
    const bool have_stats =
        std::ranges::any_of(scheduler->replicas(), [&](Replica* r) {
          const auto feed = feeds_.find(r);
          if (feed == feeds_.end()) return false;
          const StatsChannel::Snapshot& snap = *feed->second.snapshot;
          const auto first = snap.lower_bound(MakeClassKey(app, 0));
          return first != snap.end() && AppOf(first->first) == app;
        });
    if (!have_stats) {
      Count("controller.skipped.no_stats");
      return "no_stats";
    }
    if (TryMemoryRetuning(scheduler) || TryIoRetuning(scheduler)) {
      return "no_action";
    }
  }
  if (state_.apps[app].violation_streak >= kCoarseFallbackAfter) {
    CoarseFallback(scheduler);
  }
  if (!config_.enable_fine_grained) return "coarse_only";
  return low_confidence_suppressed_ ? "low_confidence" : "no_action";
}

bool SelectiveRetuner::Provision(Scheduler* scheduler, ActionKind kind,
                                 const std::string& why, bool count_servers) {
  Replica* fresh =
      resources_->ProvisionReplica(scheduler, config_.replica_pool_pages);
  if (fresh == nullptr) return false;  // pool exhausted
  const AppId app = scheduler->app().id;
  NoteTopologyChange(app);
  std::string description = why + "provisioned " + fresh->name() + " on " +
                            fresh->server().name();
  if (count_servers) {
    description += " (now " +
                   std::to_string(resources_->ServersUsedBy(*scheduler)) +
                   " servers)";
  }
  Log(kind, app, std::move(description));
  return true;
}

bool SelectiveRetuner::TryCpuProvisioning(Scheduler* scheduler) {
  // An application with no replicas at all is trivially saturated.
  const bool saturated =
      scheduler->replicas().empty() ||
      std::ranges::any_of(scheduler->replicas(), [this](Replica* r) {
        return r->server().CpuUtilization() >= kCpuSaturationThreshold;
      });
  return saturated && Provision(scheduler, ActionKind::kCpuProvision,
                                "CPU saturation: ", /*count_servers=*/true);
}

bool SelectiveRetuner::TryMemoryRetuning(Scheduler* scheduler, bool act) {
  const AppId app = scheduler->app().id;
  bool acted = false;
  // Copy: dedications may mutate the replica list mid-loop.
  const std::vector<Replica*> app_replicas = scheduler->replicas();
  for (Replica* r : app_replicas) {
    const auto feed = feeds_.find(r);
    if (feed == feeds_.end()) continue;
    const StatsChannel::Snapshot& snap = *feed->second.snapshot;
    const double confidence = feed->second.confidence;
    LogAnalyzer& analyzer = AnalyzerFor(r);

    // A replica whose engine never recorded a stable interval for this
    // application is still warming up after being provisioned; there is
    // no baseline to compare against, and flagging its classes as "new"
    // would be noise.
    if (std::ranges::none_of(analyzer.stable_store().Keys(),
                             [app](ClassKey k) { return AppOf(k) == app; })) {
      continue;
    }

    // 4a. Outlier contexts over this app's classes on this engine.
    // Decayed confidence widens the fences: a snapshot that may be
    // stale must look a lot more anomalous before it names suspects.
    const OutlierReport outliers =
        analyzer.DetectOutliers(app, snap, channel_.FenceScale(confidence));
    if (spans_ != nullptr && scope_.active) {
      spans_->RecordPhase("impact", app, sim_->Now());
      spans_->RecordPhase("iqr", app, sim_->Now());
    }
    if (Tracing() && scope_.active) {
      TraceOutlierPhases(app, r->id(), outliers);
    }
    std::set<ClassKey> candidates = outliers.MemoryProblemContexts();
    for (ClassKey key : outliers.new_classes) candidates.insert(key);

    // 4b. No outliers: fall back to the top-k heavyweight classes in
    // memory metrics.
    if (candidates.empty()) {
      std::vector<std::pair<double, ClassKey>> heavy;
      for (const auto& [key, vec] : snap) {
        if (AppOf(key) != app) continue;
        heavy.emplace_back(At(vec, Metric::kBufferMisses), key);
      }
      std::sort(heavy.rbegin(), heavy.rend());
      for (size_t i = 0; i < std::min(kTopKFallback, heavy.size()); ++i) {
        if (heavy[i].first > 0) candidates.insert(heavy[i].second);
      }
    }

    // 4c. Newly added classes of *other* applications sharing this
    // engine are potential problem classes too (§5.4: the RUBiS classes
    // that just arrived in TPC-W's buffer pool).
    for (const auto& [key, vec] : snap) {
      if (AppOf(key) != app && analyzer.StableParamsOf(key) == nullptr) {
        candidates.insert(key);
      }
    }
    if (candidates.empty()) continue;

    // 4d. MRC recomputation narrows candidates to true suspects.
    const auto mrc_start = std::chrono::steady_clock::now();
    LogAnalyzer::MemoryDiagnosis diagnosis =
        analyzer.DiagnoseMemory(candidates);
    if (spans_ != nullptr && scope_.active) {
      spans_->RecordPhase("mrc", app, sim_->Now());
    }
    if (Tracing() && scope_.active) {
      TraceMrcPhase(app, r, MicrosSince(mrc_start), candidates.size(),
                    diagnosis);
    }
    diagnoses_.push_back({sim_->Now(), app, r->id(), outliers, diagnosis});
    // The diagnosis is recorded either way; a stale feed drives no
    // quota, demote or migration.
    if (!act || !Admit({GateRequest::kEvidence, 0, confidence})) continue;
    if (diagnosis.suspects.empty()) continue;

    std::set<ClassKey> suspect_keys;
    for (const auto& p : diagnosis.suspects) suspect_keys.insert(p.key);
    const std::vector<ClassMemoryProfile> others =
        analyzer.StableProfilesExcept(suspect_keys);

    // 4e. Quota fit test and plan. Engines backed by a second tier
    // plan (dram, tier2) quota pairs against the blended latency model
    // — the demote rung; tierless engines keep the DRAM-only fit test.
    const TieredBufferPool* tier2 = r->engine().tier2();
    QuotaPlan plan;
    if (tier2 != nullptr) {
      TierCostModel cost;
      cost.t_ssd_us = tier2->config().read_us;
      cost.t_disk_us =
          r->engine().disk_model().random_read_seconds * 1e6;
      plan = planner_.PlanTiered(r->engine().pool().capacity(),
                                 tier2->capacity(), diagnosis.suspects,
                                 others, cost);
    } else {
      plan = planner_.Plan(r->engine().pool().capacity(),
                           diagnosis.suspects, others);
    }
    if (plan.placement_fits) {
      // The pool can hold everyone's working set, but a scan-style
      // suspect still pollutes it: prefetched extents evict other
      // classes' pages while contributing nothing to the scan's own
      // reuse (its MRC is flat). Contain such classes with a small
      // fixed quota — the paper's §5.3 action for the unindexed
      // BestSeller.
      for (const auto& suspect : diagnosis.suspects) {
        if (!Admit({GateRequest::kQuota, suspect.key, confidence})) continue;
        auto vec_it = snap.find(suspect.key);
        if (vec_it == snap.end()) continue;
        if (At(vec_it->second, Metric::kReadAheads) < 10) continue;
        const uint64_t quota =
            std::max(suspect.params.acceptable_memory_pages,
                     planner_.min_quota_pages());
        if (!r->engine().SetQuota(suspect.key, quota)) continue;
        analyzer.AdoptRecomputation(suspect.key);
        NoteTopologyChange(AppOf(suspect.key));
        Log(ActionKind::kQuotaEnforced, AppOf(suspect.key),
            "scan pollution: containment quota " + std::to_string(quota) +
                " pages for " + ClassLabel(suspect.key) + " on " + r->name());
        acted = true;
      }
      continue;
    }
    // Even when the plan is flagged infeasible (this engine cannot
    // satisfy everyone no matter what), its reschedules are still the
    // right first step; the streak-based coarse fallback catches
    // whatever remains.

    // One plan is one coherent decision: gate every quota before
    // applying any, so enforcing the first class's quota (which starts
    // the owner app's warmup) cannot block the rest of the same plan —
    // notably a demote paired behind another class's quota.
    std::vector<bool> admitted;
    for (const auto& [key, pages] : plan.quotas) {
      admitted.push_back(Admit({GateRequest::kQuota, key, confidence}));
    }
    size_t next = 0;
    for (const auto& [key, pages] : plan.quotas) {
      if (!admitted[next++] || !r->engine().SetQuota(key, pages)) continue;
      analyzer.AdoptRecomputation(key);
      NoteTopologyChange(AppOf(key));
      // Demote rung: the plan pairs the DRAM cap with a tier-2 quota
      // for the working-set overflow — cheaper than migrating the
      // class off the engine. A tier quota the pool cannot grant
      // degrades to the plain DRAM quota action.
      const auto tier_it = plan.tier2_quotas.find(key);
      if (tier_it != plan.tier2_quotas.end() &&
          r->engine().SetTierQuota(key, tier_it->second)) {
        Log(ActionKind::kDemote, AppOf(key),
            "memory interference: demoted " + ClassLabel(key) + " to " +
                std::to_string(pages) + " dram + " +
                std::to_string(tier_it->second) + " tier2 pages on " +
                r->name());
      } else {
        Log(ActionKind::kQuotaEnforced, AppOf(key),
            "memory interference: quota " + std::to_string(pages) +
                " pages for " + ClassLabel(key) + " on " + r->name());
      }
      acted = true;
    }
    for (ClassKey key : plan.reschedule) {
      const auto profile = std::ranges::find(diagnosis.suspects, key,
                                             &ClassMemoryProfile::key);
      if (profile != diagnosis.suspects.end() &&
          TryMove(key, r, ActionKind::kClassRescheduled, *profile)) {
        acted = true;
      }
    }
  }
  return acted;
}

bool SelectiveRetuner::TryIoRetuning(Scheduler* scheduler) {
  bool acted = false;
  std::set<const PhysicalServer*> visited;
  const std::vector<Replica*> app_replicas = scheduler->replicas();
  for (Replica* r : app_replicas) {
    PhysicalServer* server = &r->server();
    if (!visited.insert(server).second) continue;
    const double io_util = server->IoUtilization();
    if (io_util < kIoSaturationThreshold) continue;

    // Estimate each class's utilization contribution from its share of
    // I/O block requests on this server (all engines, all apps).
    std::map<ClassKey, double> rates;
    double total_requests = 0;
    for (Replica* rr : resources_->ReplicasOn(server)) {
      const auto feed = feeds_.find(rr);
      if (feed == feeds_.end()) continue;
      for (const auto& [key, vec] : *feed->second.snapshot) {
        const double requests = At(vec, Metric::kIoRequests);
        rates[key] += requests;
        total_requests += requests;
      }
    }
    if (total_requests <= 0) continue;
    double top_rate = 0;
    int significant_classes = 0;
    for (auto& [key, value] : rates) {
      value *= io_util / total_requests;
      top_rate = std::max(top_rate, value);
      if (value > 0.10 * io_util) ++significant_classes;
    }

    // Eviction protects the *other* contexts on the server. If only
    // one class matters here (e.g. an already-isolated heavy class
    // saturating its own disk), moving it helps nobody.
    if (significant_classes < 2) continue;

    // Eviction only helps when the I/O is skewed toward a culprit
    // class. A uniformly loaded channel is a capacity shortage: give
    // the application another replica instead.
    if (top_rate / io_util < kIoSkewShare) {
      if (Provision(scheduler, ActionKind::kIoProvision,
                    "I/O saturation on " + server->name() + " (unskewed): ",
                    /*count_servers=*/false)) {
        acted = true;
      }
      continue;
    }

    // Skewed: move the heaviest movable class off this server (one per
    // server per interval; the next interval re-evaluates).
    for (ClassKey key :
         PlanIoEviction(rates, io_util, kIoTargetUtilization)) {
      // The replica on this server currently running the class.
      Replica* source = nullptr;
      for (Replica* rr : resources_->ReplicasOn(server)) {
        const auto feed = feeds_.find(rr);
        if (feed != feeds_.end() && feed->second.snapshot->contains(key)) {
          source = rr;
        }
      }
      if (source == nullptr) continue;
      ClassMemoryProfile incoming;
      incoming.key = key;
      if (const MrcParameters* stable =
              AnalyzerFor(source).StableParamsOf(key)) {
        incoming.params = *stable;
      }
      if (TryMove(key, source, ActionKind::kIoEviction, incoming)) {
        acted = true;
        break;  // one eviction per server per interval
      }
    }
  }
  return acted;
}

Scheduler* SelectiveRetuner::OwnerOf(AppId app) const {
  const auto it =
      std::find_if(schedulers_.rbegin(), schedulers_.rend(),
                   [app](Scheduler* s) { return s->app().id == app; });
  return it == schedulers_.rend() ? nullptr : *it;
}

bool SelectiveRetuner::SharedWithOthers(const Scheduler* scheduler,
                                        Replica* r, bool same_server) const {
  std::vector<Replica*> probe =
      same_server ? resources_->ReplicasOn(&r->server())
                  : std::vector<Replica*>{};
  probe.push_back(r);
  for (const Scheduler* other : schedulers_) {
    if (other == scheduler) continue;
    const auto& routed = other->replicas();
    for (Replica* p : probe) {
      if (std::find(routed.begin(), routed.end(), p) != routed.end()) {
        return true;
      }
    }
  }
  return false;
}

Replica* SelectiveRetuner::FindPlacementTarget(
    Scheduler* scheduler, Replica* avoid, const ClassMemoryProfile& incoming) {
  for (Replica* candidate : scheduler->replicas()) {
    if (candidate == avoid) continue;
    if (avoid != nullptr && &candidate->server() == &avoid->server()) continue;
    if (admission_ != nullptr && admission_->BreakerOpen(candidate->id())) {
      // A replica already tripping circuit breakers is the last place
      // to migrate more load into.
      Count("controller.migration.breaker_suppressed");
      continue;
    }
    const std::vector<ClassMemoryProfile> existing =
        AnalyzerFor(candidate).StableProfilesExcept({});
    if (QuotaPlanner::FitsOn(candidate->engine().pool().capacity(), incoming,
                             existing)) {
      return candidate;
    }
  }
  return resources_->ProvisionReplica(scheduler, config_.replica_pool_pages);
}

bool SelectiveRetuner::TryMove(ClassKey key, Replica* source, ActionKind kind,
                               const ClassMemoryProfile& profile) {
  Scheduler* owner = OwnerOf(AppOf(key));
  if (owner == nullptr ||
      !Admit({GateRequest::kMove, key, feeds_.at(source).confidence,
              migrations_this_interval_})) {
    return false;
  }
  Replica* target = FindPlacementTarget(owner, source, profile);
  if (target == nullptr) return false;
  std::string description;
  if (kind == ActionKind::kIoEviction) {
    // Moving the class only helps if the destination channel has
    // headroom; shuffling between two saturated disks is thrash.
    if (&target->server() == &source->server() ||
        target->server().IoUtilization() >= kIoSaturationThreshold) {
      return false;
    }
    description = "I/O interference on " + source->server().name() +
                  ": moved " + ClassLabel(key) + " to " + target->name();
  } else {
    description = "memory interference: rescheduled " + ClassLabel(key) +
                  " from " + source->name() + " to " + target->name();
  }
  ++migrations_this_interval_;
  ++migration_stats_.started;
  state_.in_flight.insert(key);
  AttemptMigration({.key = key,
                    .source_id = source->id(),
                    .target_id = target->id(),
                    .kind = kind,
                    .description = std::move(description),
                    .profile = profile,
                    .started = sim_->Now()});
  return true;
}

void SelectiveRetuner::AttemptMigration(PendingMigration m) {
  ++m.attempt;
  migration_stats_.max_attempts_observed =
      std::max(migration_stats_.max_attempts_observed, m.attempt);
  if (m.attempt > 1 + kMigrationMaxRetries) {
    AbandonMigration(m, "retry_budget");
    return;
  }
  if (sim_->Now() - m.started > kMigrationTimeoutSeconds) {
    AbandonMigration(m, "timeout");
    return;
  }
  const auto outcome = migration_interceptor_
                           ? migration_interceptor_(m.key, m.attempt)
                           : FaultInjector::MigrationDecision{};
  if (outcome.fail) {
    ++migration_stats_.failed_attempts;
    Count("controller.migration.retries");
    const double backoff = kMigrationRetryBackoffSeconds *
                           std::ldexp(1.0, m.attempt - 1);
    const uint64_t epoch = epoch_;
    sim_->ScheduleAfter(backoff, [this, epoch, m = std::move(m)] {
      // A retry armed before a controller crash must not fire into the
      // restarted controller: the checkpoint already converted the
      // migration into a placement cooldown.
      if (epoch != epoch_) return;
      AttemptMigration(m);
    });
    return;
  }
  if (outcome.delay_seconds > 0) {
    ++migration_stats_.delayed;
    Count("controller.migration.delayed");
    const uint64_t epoch = epoch_;
    sim_->ScheduleAfter(
        outcome.delay_seconds, [this, epoch, m = std::move(m)] {
          if (epoch != epoch_) return;
          if (sim_->Now() - m.started > kMigrationTimeoutSeconds) {
            AbandonMigration(m, "timeout");
          } else if (!ApplyMigration(m)) {
            AbandonMigration(m, "target_lost");
          }
        });
    return;
  }
  if (!ApplyMigration(m)) AbandonMigration(m, "target_lost");
}

bool SelectiveRetuner::ApplyMigration(const PendingMigration& m) {
  Scheduler* owner = OwnerOf(AppOf(m.key));
  if (owner == nullptr) return false;
  Replica* source = resources_->FindReplica(m.source_id);
  Replica* target = resources_->FindReplica(m.target_id);
  if (target == nullptr) {
    // The chosen destination died while the migration was in flight;
    // any valid placement still honors the decision.
    target = FindPlacementTarget(owner, source, m.profile);
    if (target == nullptr) return false;
  }
  owner->DedicateReplica(ClassOf(m.key), target);
  if (source != nullptr) {
    source->engine().DropQuota(m.key);
    source->engine().DropTierQuota(m.key);
    // A memory reschedule adopts the recomputed MRC as the source's
    // new baseline; an I/O eviction changed nothing about memory.
    if (m.kind == ActionKind::kClassRescheduled) {
      AnalyzerFor(source).AdoptRecomputation(m.key);
    }
  }
  state_.in_flight.erase(m.key);
  ++migration_stats_.applied;
  state_.placed_at[m.key] = sim_->Now();
  NoteTopologyChange(owner->app().id);
  Log(m.kind, AppOf(m.key), m.description);
  return true;
}

void SelectiveRetuner::AbandonMigration(const PendingMigration& m,
                                        const char* why) {
  state_.in_flight.erase(m.key);
  ++migration_stats_.abandoned;
  // Cooldown: the class that just failed to move must not be re-issued
  // by the very next interval — that is exactly re-placement flapping.
  state_.placed_at[m.key] = sim_->Now();
  Count("controller.migration.abandoned");
  if (Tracing()) {
    TraceEvent event("migration");
    event.Num("t", sim_->Now())
        .Uint("app", AppOf(m.key))
        .Uint("cls", ClassOf(m.key))
        .Str("outcome", "abandoned")
        .Str("why", why)
        .Int("attempts", m.attempt);
    trace_->Emit(event);
  }
}

void SelectiveRetuner::CoarseFallback(Scheduler* scheduler) {
  const AppId app = scheduler->app().id;
  ControlState::App& state = state_.apps[app];
  // Coarse isolation is expensive; do not repeat it for the same app in
  // quick succession (a chronically unattainable SLA would otherwise
  // trigger it every few intervals).
  const SimTime now = sim_->Now();
  if (now - state.coarse_fallback_at <
      3 * kCoarseFallbackAfter * config_.interval_seconds) {
    return;
  }
  Replica* fresh =
      resources_->ProvisionReplica(scheduler, config_.replica_pool_pages);
  if (fresh == nullptr) return;
  // Isolate: drop replicas shared with other applications (either the
  // same engine serves several apps, or the server hosts other apps'
  // replicas).
  const std::vector<Replica*> current = scheduler->replicas();
  for (Replica* r : current) {
    if (r != fresh && SharedWithOthers(scheduler, r, /*same_server=*/true)) {
      scheduler->RemoveReplica(r);
    }
  }
  NoteTopologyChange(app);
  state.coarse_fallback_at = now;
  Log(ActionKind::kCoarseFallback, app,
      "coarse fallback: isolated app " + std::to_string(app) + " onto " +
          fresh->name() + " (" + fresh->server().name() + ")");
  state.violation_streak = 0;
}

void SelectiveRetuner::MaybeRelease(Scheduler* scheduler) {
  if (!config_.enable_actions) return;
  const AppId app = scheduler->app().id;
  if (state_.apps[app].calm_streak < kReleaseAfter) return;
  const std::vector<Replica*> default_set = scheduler->DefaultSet();
  if (default_set.size() <= 1) return;

  double util_sum = 0;
  std::set<const PhysicalServer*> seen;
  for (Replica* r : scheduler->replicas()) {
    if (seen.insert(&r->server()).second) {
      util_sum += std::max(r->server().CpuUtilization(),
                           r->server().IoUtilization());
    }
  }
  if (seen.empty() || util_sum / seen.size() >= kCpuReleaseThreshold) {
    return;
  }

  // Release a default-set replica used only by this application.
  Replica* victim = nullptr;
  for (Replica* r : default_set) {
    if (SharedWithOthers(scheduler, r, /*same_server=*/false)) continue;
    if (victim == nullptr || r->inflight() < victim->inflight()) victim = r;
  }
  if (victim == nullptr) return;
  Log(ActionKind::kCpuRelease, app,
      "low load: released " + victim->name() + " (now " +
          std::to_string(resources_->ServersUsedBy(*scheduler) - 1) +
          " servers)");
  resources_->Decommission(scheduler, victim);
  state_.apps[app].calm_streak = 0;
}

void SelectiveRetuner::SerializeControlState(std::string* out) const {
  state_.Encode(out);
  // Then each live replica's analyzer baselines, by replica id: the
  // engines outlive a controller crash, the analyzers do not. Replicas
  // gone since the last tick's prune are left out.
  std::string baselines;
  uint64_t count = 0;
  for (const auto& [replica_id, analyzer] : analyzers_) {
    if (resources_->FindReplica(replica_id) == nullptr) continue;
    ++count;
    PutVarint64(&baselines, ZigZagEncode(replica_id));
    analyzer->EncodeBaselines(&baselines);
  }
  PutVarint64(out, count);
  out->append(baselines);
}

bool SelectiveRetuner::RestoreControlState(const uint8_t* p,
                                           const uint8_t* limit) {
  // Decodes straight into the (reset) controller; a rejected blob is
  // not half-applied because ControllerCheckpoint::Restore resets the
  // control plane again.
  Reader r{p, limit};
  if (!ControlState::Decode(r, &state_)) return false;
  // Migrations in flight at checkpoint time died with the controller's
  // callbacks. Restoring them as placement cooldowns (not as pending
  // migrations) guarantees the restarted controller neither duplicates
  // the move nor re-issues it inside the flap window; the next
  // violating interval re-diagnoses from live data.
  for (ClassKey key : state_.in_flight) state_.placed_at[key] = sim_->Now();
  state_.in_flight.clear();
  const uint64_t analyzers = r.U64();
  if (!r.PlausibleCount(analyzers, 3)) return false;
  for (uint64_t a = 0; a < analyzers; ++a) {
    // A replica that died while the controller was down has its
    // baselines decoded and dropped.
    Replica* replica = resources_->FindReplica(static_cast<int>(r.S64()));
    if (!LogAnalyzer::DecodeBaselines(
            r, replica != nullptr ? &AnalyzerFor(replica) : nullptr)) {
      return false;
    }
  }
  return r.ok;
}

}  // namespace fglb

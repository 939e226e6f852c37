#include "core/selective_retuner.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "cluster/stats_channel.h"
#include "common/span_tracer.h"
#include "common/varint.h"

namespace fglb {

namespace {

// Saturation thresholds, as a fraction of a server's CPU / I/O
// capacity.
constexpr double kCpuSaturationThreshold = 0.85;
constexpr double kIoSaturationThreshold = 0.85;

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
  channel_.ResetReceiverState();
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
}

void SelectiveRetuner::TraceActions(size_t first) {
  if (!Tracing()) return;
  for (size_t i = first; i < actions_.size(); ++i) {
    trace_->Emit(ActionEvent(actions_[i]));
  }
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

Hold SelectiveRetuner::Admit(const GateRequest& request) {
  const Hold hold = PlacementGate(state_, Policy(), sim_->Now(), request);
  if (hold == Hold::kLowConfidence) {
    // The evidence is last-known-good, not measured: take no
    // quota/demote/migration off it. Shed and CPU provisioning run on
    // app-level latency and are never gated.
    Count("controller.suppressed.low_confidence");
  } else if (hold == Hold::kBudget) {
    Count("controller.migration.budget_deferred");
  }
  return hold;
}

void SelectiveRetuner::Tick() {
  const auto tick_start = std::chrono::steady_clock::now();
  const double interval = config_.interval_seconds;
  TickContext tick;
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
  for (Replica* r : replicas) tick.feeds[r] = channel_.Collect(r->id());
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
      const StatsChannel::Feed& feed = tick.feeds.at(r);
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

  // 5. Violations run the diagnosis cascade, one application at a time
  // in registration order (an earlier app's quota on a later app's
  // class opens that app's warmup for this very tick); clean intervals
  // may release over-provisioned capacity.
  const ControlPolicy policy = Policy();
  for (Scheduler* s : schedulers_) {
    const auto& report = reports.at(s);
    const IntervalView view{report.queries, report.shed, report.sla_met,
                            !s->replicas().empty()};
    const Verdict verdict =
        JudgeInterval(policy, sim_->Now(), view, &state_.apps[s->app().id]);
    if (verdict == Verdict::kCalm) {
      const size_t first = actions_.size();
      MaybeRelease(s);
      TraceActions(first);
      continue;
    }
    if (violations_ != nullptr) violations_->Increment();
    Decision d = OpenDecision(s, report, verdict, end_interval_us[s], tick);
    const size_t first = actions_.size();
    if (verdict == Verdict::kOverloadShed) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "overload: %.0f%% of offered load shed; ",
                    100 * view.shed_share());
      Provision(s, ActionKind::kCpuProvision, buf, /*count_servers=*/true, d);
    } else if (verdict == Verdict::kBootstrap) {
      // No replica at all is trivially saturated.
      Provision(s, ActionKind::kCpuProvision, "CPU saturation: ",
                /*count_servers=*/true, d);
    } else if (verdict == Verdict::kViolation) {
      HandleViolation(s, tick, d);
    }
    d.actions.assign(actions_.begin() + first, actions_.end());
    if (Tracing()) {
      for (const TraceEvent& event : RenderDecision(d)) trace_->Emit(event);
    }
    for (EngineDiagnosis& e : d.engines) {
      if (e.candidates > 0) diagnoses_.push_back(std::move(e));
    }
  }

  for (const auto& server : resources_->servers()) {
    server->ResetUtilizationWindow();
  }
  samples_.push_back(std::move(sample));
  if (tick_us_ != nullptr) tick_us_->Record(MicrosSince(tick_start));
}

Decision SelectiveRetuner::OpenDecision(
    Scheduler* scheduler, const Scheduler::IntervalReport& report,
    Verdict verdict, double end_interval_us, const TickContext& tick) {
  const AppId app = scheduler->app().id;
  Decision d{.t = sim_->Now(),
             .app = app,
             .verdict = verdict,
             .monitoring = !config_.enable_actions,
             .coarse_only = !config_.enable_fine_grained,
             .queries = report.queries,
             .avg_latency = report.avg_latency,
             .p95_latency = report.p95_latency,
             .throughput = report.throughput,
             .sla_met = report.sla_met,
             .streak = state_.apps[app].violation_streak,
             .servers_used = resources_->ServersUsedBy(*scheduler),
             .end_interval_us = end_interval_us};
  for (Replica* r : scheduler->replicas()) {
    const auto it = tick.feeds.find(r);
    if (it == tick.feeds.end()) continue;
    d.stats_conf = std::min(d.stats_conf, it->second.confidence);
    if (!it->second.fresh) ++d.stale_replicas;
  }
  if (spans_ != nullptr) spans_->RecordPhase("sla", app, d.t);
  return d;
}

void SelectiveRetuner::HandleViolation(Scheduler* scheduler, TickContext& tick,
                                       Decision& d) {
  if (d.monitoring) {
    // Monitoring only: run the diagnosis for the record, change nothing.
    MemoryRung(scheduler, tick, /*act=*/false, d);
    return;
  }
  if (!d.coarse_only) {
    if (std::ranges::any_of(scheduler->replicas(), [](Replica* r) {
          return r->server().CpuUtilization() >= kCpuSaturationThreshold;
        })) {
      Provision(scheduler, ActionKind::kCpuProvision, "CPU saturation: ",
                /*count_servers=*/true, d);
    }
    if (d.Acted()) return;
    // Graceful degradation: with no per-class statistics for this app
    // at all (stats-collector dropout, or every serving replica gone),
    // the fine-grained cascade — and the coarse fallback it escalates
    // to — would be reasoning about nothing. Skip with a reason; the
    // next interval with data resumes the cascade.
    d.no_stats = std::ranges::none_of(scheduler->replicas(), [&](Replica* r) {
      const auto feed = tick.feeds.find(r);
      if (feed == tick.feeds.end()) return false;
      const StatsChannel::Snapshot& snap = *feed->second.snapshot;
      const auto first = snap.lower_bound(MakeClassKey(d.app, 0));
      return first != snap.end() && AppOf(first->first) == d.app;
    });
    if (d.no_stats) {
      Count("controller.skipped.no_stats");
      return;
    }
    MemoryRung(scheduler, tick, /*act=*/true, d);
    if (!d.Acted()) IoRung(scheduler, tick, d);
    if (d.Acted()) return;
  }
  if (state_.apps[d.app].violation_streak >= kCoarseFallbackAfter) {
    CoarseFallback(scheduler);
  }
}

void SelectiveRetuner::Provision(Scheduler* scheduler, ActionKind kind,
                                 const std::string& why, bool count_servers,
                                 Decision& d) {
  Proposal& p = d.proposals.emplace_back();
  Replica* fresh =
      resources_->ProvisionReplica(scheduler, config_.replica_pool_pages);
  if (fresh == nullptr) return;  // pool exhausted
  p.committed = true;
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
}

void SelectiveRetuner::MemoryRung(Scheduler* scheduler, TickContext& tick,
                                  bool act, Decision& d) {
  // Copy: dedications may mutate the replica list mid-loop.
  const std::vector<Replica*> app_replicas = scheduler->replicas();
  for (Replica* r : app_replicas) {
    const auto feed = tick.feeds.find(r);
    if (feed == tick.feeds.end()) continue;
    const StatsChannel::Snapshot& snap = *feed->second.snapshot;
    const double confidence = feed->second.confidence;
    LogAnalyzer& analyzer = AnalyzerFor(r);

    // A replica whose engine never recorded a stable interval for this
    // application is still warming up after being provisioned; there is
    // no baseline to compare against, and flagging its classes as "new"
    // would be noise.
    if (std::ranges::none_of(analyzer.stable_store().Keys(),
                             [&d](ClassKey k) { return AppOf(k) == d.app; })) {
      continue;
    }

    // Outlier contexts over this app's classes on this engine. Decayed
    // confidence widens the fences: a snapshot that may be stale must
    // look a lot more anomalous before it names suspects.
    EngineDiagnosis& e = d.engines.emplace_back(
        EngineDiagnosis{.time = d.t, .app = d.app, .replica_id = r->id()});
    e.outliers =
        analyzer.DetectOutliers(d.app, snap, channel_.FenceScale(confidence));
    if (spans_ != nullptr) {
      spans_->RecordPhase("impact", d.app, d.t);
      spans_->RecordPhase("iqr", d.app, d.t);
      if (Tracing()) e.wait_profile = spans_->WaitProfileJson(d.app);
    }
    const std::set<ClassKey> candidates =
        MemoryCandidates(d.app, e.outliers, snap, [&analyzer](ClassKey key) {
          return analyzer.StableParamsOf(key) != nullptr;
        });
    if (candidates.empty()) continue;

    // 4d. MRC recomputation narrows candidates to true suspects.
    const auto mrc_start = std::chrono::steady_clock::now();
    e.memory = analyzer.DiagnoseMemory(candidates);
    e.mrc_us = MicrosSince(mrc_start);
    e.candidates = candidates.size();
    if (spans_ != nullptr) spans_->RecordPhase("mrc", d.app, d.t);
    for (const auto* profiles : {&e.memory.suspects, &e.memory.cleared}) {
      for (const ClassMemoryProfile& p : *profiles) {
        if (const MrcParameters* stable = analyzer.StableParamsOf(p.key)) {
          e.stable.emplace(p.key, *stable);
        }
      }
    }
    const TieredBufferPool* tier2 = r->engine().tier2();
    if (tier2 != nullptr) {
      e.tier2 = TierView{tier2->capacity(), tier2->resident_pages(),
                         tier2->config().read_us};
    }
    // Rule 5: the evidence gate runs once per diagnosed engine, before
    // planning. The diagnosis is recorded either way; a stale feed
    // drives no quota, demote or migration.
    if (!act) continue;
    e.evidence = Admit({GateRequest::kEvidence, 0, confidence});
    if (e.evidence != Hold::kNone || e.memory.suspects.empty()) continue;

    std::set<ClassKey> suspect_keys;
    for (const auto& p : e.memory.suspects) suspect_keys.insert(p.key);
    const std::vector<ClassMemoryProfile> others =
        analyzer.StableProfilesExcept(suspect_keys);

    // 4e. Quota fit test and plan. Engines backed by a second tier
    // plan (dram, tier2) quota pairs against the blended latency model
    // — the demote rung; tierless engines keep the DRAM-only fit test.
    QuotaPlan plan;
    if (tier2 != nullptr) {
      TierCostModel cost;
      cost.t_ssd_us = tier2->config().read_us;
      cost.t_disk_us =
          r->engine().disk_model().random_read_seconds * 1e6;
      plan = planner_.PlanTiered(r->engine().pool().capacity(),
                                 tier2->capacity(), e.memory.suspects, others,
                                 cost);
    } else {
      plan = planner_.Plan(r->engine().pool().capacity(), e.memory.suspects,
                           others);
    }
    std::vector<Proposal> proposals =
        ProposeMemory(e.memory, plan, snap, planner_.min_quota_pages());
    // Rule 1: one plan is one coherent decision. Its quotas are gated
    // together on the state before any applies, so the first quota's
    // warmup (its owner app's topology changed) cannot block the rest of
    // the plan — notably a demote paired behind another class's quota.
    for (Proposal& p : proposals) {
      if (p.kind == Proposal::kQuota) {
        p.hold = Admit({GateRequest::kQuota, p.key, confidence});
      }
    }
    for (Proposal& p : proposals) {
      if (p.kind == Proposal::kReschedule) {
        TryMove(p, r, confidence,
                *std::ranges::find(e.memory.suspects, p.key,
                                   &ClassMemoryProfile::key),
                tick);
      } else {
        // Rule 2: containment quotas are gated one at a time, each on
        // the state the previous one left.
        if (p.kind == Proposal::kContainment) {
          p.hold = Admit({GateRequest::kQuota, p.key, confidence});
        }
        p.committed = p.hold == Hold::kNone && ApplyQuota(r, analyzer, p);
      }
      d.proposals.push_back(std::move(p));
    }
  }
}

bool SelectiveRetuner::ApplyQuota(Replica* r, LogAnalyzer& analyzer,
                                  const Proposal& p) {
  if (!r->engine().SetQuota(p.key, p.pages)) return false;
  analyzer.AdoptRecomputation(p.key);
  NoteTopologyChange(AppOf(p.key));
  const std::string pages = std::to_string(p.pages);
  const std::string on = " on " + r->name();
  if (p.kind == Proposal::kContainment) {
    Log(ActionKind::kQuotaEnforced, AppOf(p.key),
        "scan pollution: containment quota " + pages + " pages for " +
            ClassLabel(p.key) + on);
  } else if (p.tier2_pages && r->engine().SetTierQuota(p.key, *p.tier2_pages)) {
    Log(ActionKind::kDemote, AppOf(p.key),
        "memory interference: demoted " + ClassLabel(p.key) + " to " + pages +
            " dram + " + std::to_string(*p.tier2_pages) + " tier2 pages" + on);
  } else {
    // A tier quota the pool cannot grant degrades to the plain DRAM
    // quota action.
    Log(ActionKind::kQuotaEnforced, AppOf(p.key),
        "memory interference: quota " + pages + " pages for " +
            ClassLabel(p.key) + on);
  }
  return true;
}

void SelectiveRetuner::IoRung(Scheduler* scheduler, TickContext& tick,
                              Decision& d) {
  std::set<const PhysicalServer*> visited;
  const std::vector<Replica*> app_replicas = scheduler->replicas();
  for (Replica* r : app_replicas) {
    PhysicalServer* server = &r->server();
    if (!visited.insert(server).second) continue;
    const double io_util = server->IoUtilization();
    if (io_util < kIoSaturationThreshold) continue;

    // Each class's I/O block requests on this server (all engines, all
    // apps).
    std::map<ClassKey, double> requests;
    for (Replica* rr : resources_->ReplicasOn(server)) {
      const auto feed = tick.feeds.find(rr);
      if (feed == tick.feeds.end()) continue;
      for (const auto& [key, vec] : *feed->second.snapshot) {
        requests[key] += At(vec, Metric::kIoRequests);
      }
    }
    const IoChoice choice = ChooseIo(requests, io_util);
    if (choice.replica) {
      Provision(scheduler, ActionKind::kIoProvision,
                "I/O saturation on " + server->name() + " (unskewed): ",
                /*count_servers=*/false, d);
      continue;
    }
    // Rule 4: a saturated server gets at most one started eviction per
    // interval (the next interval re-evaluates).
    for (ClassKey key : choice.evict) {
      // The replica on this server currently running the class.
      Replica* source = nullptr;
      for (Replica* rr : resources_->ReplicasOn(server)) {
        const auto feed = tick.feeds.find(rr);
        if (feed != tick.feeds.end() &&
            feed->second.snapshot->contains(key)) {
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
      Proposal& p = d.proposals.emplace_back(
          Proposal{.kind = Proposal::kEviction, .key = key});
      TryMove(p, source, tick.feeds.at(source).confidence, incoming, tick);
      if (p.committed) break;
    }
  }
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

void SelectiveRetuner::TryMove(Proposal& p, Replica* source, double confidence,
                               const ClassMemoryProfile& profile,
                               TickContext& tick) {
  // Rule 3: a move is gated before its target search (a blocked move
  // provisions nothing); it counts against the interval's budget and
  // enters the in-flight set only once a target is found.
  Scheduler* owner = OwnerOf(AppOf(p.key));
  if (owner == nullptr) return;
  p.hold = Admit({GateRequest::kMove, p.key, confidence, tick.moves_started});
  if (p.hold != Hold::kNone) return;
  Replica* target = FindPlacementTarget(owner, source, profile);
  if (target == nullptr) return;
  const ActionKind kind = p.kind == Proposal::kEviction
                              ? ActionKind::kIoEviction
                              : ActionKind::kClassRescheduled;
  std::string description;
  if (kind == ActionKind::kIoEviction) {
    // Moving the class only helps if the destination channel has
    // headroom; shuffling between two saturated disks is thrash.
    if (&target->server() == &source->server() ||
        target->server().IoUtilization() >= kIoSaturationThreshold) {
      return;
    }
    description = "I/O interference on " + source->server().name() +
                  ": moved " + ClassLabel(p.key) + " to " + target->name();
  } else {
    description = "memory interference: rescheduled " + ClassLabel(p.key) +
                  " from " + source->name() + " to " + target->name();
  }
  p.committed = true;
  ++tick.moves_started;
  ++migration_stats_.started;
  state_.in_flight.insert(p.key);
  AttemptMigration({.key = p.key,
                    .source_id = source->id(),
                    .target_id = target->id(),
                    .kind = kind,
                    .description = std::move(description),
                    .profile = profile,
                    .started = sim_->Now()});
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
  // A later step runs outside every interval's decision, so it traces
  // the actions it logs itself. One armed before a controller crash
  // must not fire into the restarted controller: the checkpoint already
  // converted the migration into a placement cooldown.
  auto later = [this](double delay, auto step) {
    sim_->ScheduleAfter(delay, [this, epoch = epoch_, step = std::move(step)] {
      if (epoch != epoch_) return;
      const size_t first = actions_.size();
      step();
      TraceActions(first);
    });
  };
  if (outcome.fail) {
    ++migration_stats_.failed_attempts;
    Count("controller.migration.retries");
    const double backoff = kMigrationRetryBackoffSeconds *
                           std::ldexp(1.0, m.attempt - 1);
    later(backoff, [this, m = std::move(m)] { AttemptMigration(m); });
    return;
  }
  if (outcome.delay_seconds > 0) {
    ++migration_stats_.delayed;
    Count("controller.migration.delayed");
    later(outcome.delay_seconds, [this, m = std::move(m)] {
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

#include "core/decision.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <utility>

#include "common/json.h"

namespace fglb {

namespace {

// "Similar algorithms on the top-k heavyweight queries" when no
// outlier contexts are found.
constexpr size_t kTopKFallback = 3;
// A fitting plan still contains a suspect that prefetches at least
// this many extents per interval: a scan polluting the pool.
constexpr double kScanReadAheads = 10;
// A class matters to an I/O channel above this share of its
// utilization.
constexpr double kIoSignificantShare = 0.10;
// Class eviction is only the right response when I/O is *skewed*: the
// heaviest class must contribute at least this share of the channel's
// utilization. Unskewed saturation is a capacity problem and gets a
// replica instead.
constexpr double kIoSkewShare = 0.4;
// An I/O eviction plans down to this utilization.
constexpr double kIoTargetUtilization = 0.60;

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

// "impact": the weighted current/stable ratio vectors the fences see.
// Metric order inside the arrays is kAllMetrics order.
void AddImpact(TraceEvent& impact, const EngineDiagnosis& e) {
  const OutlierReport& report = e.outliers;
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
  impact.Raw("classes", classes).Num("dur_us", report.impact_us);
  // Measured latency breakdown alongside the inferred ratios: every
  // value derives from simulated time, so replays reproduce it.
  if (!e.wait_profile.empty()) impact.Raw("wait_profile", e.wait_profile);
}

// "iqr": the fences applied per metric plus the resulting verdicts.
void AddIqr(TraceEvent& iqr, const EngineDiagnosis& e) {
  const OutlierReport& report = e.outliers;
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
  iqr.Raw("fences", fences)
      .Raw("outliers", outliers)
      .Raw("new_classes", ClassArray(report.new_classes))
      .Num("dur_us", report.fence_us);
}

// "mrc": the recomputed profiles against their stable baselines. A
// tiered engine adds its second-tier state (tier2_pages/tier2_resident/
// tier2_read_us); tierless events omit all three.
void AddMrc(TraceEvent& mrc, const EngineDiagnosis& e) {
  auto profile_array = [&e](const std::vector<ClassMemoryProfile>& profiles) {
    return JsonArray(profiles, [&e](const ClassMemoryProfile& p) {
      std::string out = ClassObject(p.key) + ",\"total_pages\":" +
                        std::to_string(p.params.total_memory_pages) +
                        ",\"acceptable_pages\":" +
                        std::to_string(p.params.acceptable_memory_pages);
      if (const auto stable = e.stable.find(p.key); stable != e.stable.end()) {
        out += ",\"stable_total_pages\":" +
               std::to_string(stable->second.total_memory_pages) +
               ",\"stable_acceptable_pages\":" +
               std::to_string(stable->second.acceptable_memory_pages);
      }
      if (p.regret_vs_opt >= 0) {
        out += ",\"regret_vs_opt\":" + JsonNumber(p.regret_vs_opt);
      }
      return out + "}";
    });
  };
  if (e.tier2.has_value()) {
    mrc.Uint("tier2_pages", e.tier2->pages)
        .Uint("tier2_resident", e.tier2->resident)
        .Num("tier2_read_us", e.tier2->read_us);
  }
  mrc.Uint("candidates", e.candidates)
      .Raw("suspects", profile_array(e.memory.suspects))
      .Raw("cleared", profile_array(e.memory.cleared))
      .Raw("insufficient", ClassArray(e.memory.insufficient_data))
      .Num("dur_us", e.mrc_us);
}

}  // namespace

const char* ActionKindName(ActionKind kind) {
  static constexpr const char* kNames[] = {
      "cpu_provision",     "io_provision", "cpu_release",     "quota_enforced",
      "class_rescheduled", "io_eviction",  "coarse_fallback", "demote"};
  const auto index = static_cast<size_t>(kind);
  return index < std::size(kNames) ? kNames[index] : "unknown";
}

std::set<ClassKey> MemoryCandidates(
    AppId app, const OutlierReport& report, const ClassSnapshot& snapshot,
    const std::function<bool(ClassKey)>& has_baseline) {
  // 4a. Outlier contexts over this app's classes on this engine.
  std::set<ClassKey> candidates = report.MemoryProblemContexts();
  for (ClassKey key : report.new_classes) candidates.insert(key);

  // 4b. No outliers: fall back to the top-k heavyweight classes in
  // memory metrics.
  if (candidates.empty()) {
    std::vector<std::pair<double, ClassKey>> heavy;
    for (const auto& [key, vec] : snapshot) {
      if (AppOf(key) != app) continue;
      heavy.emplace_back(At(vec, Metric::kBufferMisses), key);
    }
    std::sort(heavy.rbegin(), heavy.rend());
    for (size_t i = 0; i < std::min(kTopKFallback, heavy.size()); ++i) {
      if (heavy[i].first > 0) candidates.insert(heavy[i].second);
    }
  }

  // 4c. Newly added classes of *other* applications sharing this
  // engine are potential problem classes too.
  for (const auto& [key, vec] : snapshot) {
    if (AppOf(key) != app && !has_baseline(key)) candidates.insert(key);
  }
  return candidates;
}

std::vector<Proposal> ProposeMemory(
    const LogAnalyzer::MemoryDiagnosis& diagnosis, const QuotaPlan& plan,
    const ClassSnapshot& snapshot, uint64_t min_quota_pages) {
  std::vector<Proposal> proposals;
  if (plan.placement_fits) {
    // The pool can hold everyone's working set, but a scan-style
    // suspect still pollutes it: prefetched extents evict other
    // classes' pages while contributing nothing to the scan's own
    // reuse (its MRC is flat). Contain such classes with a small fixed
    // quota — the paper's §5.3 action for the unindexed BestSeller.
    for (const ClassMemoryProfile& suspect : diagnosis.suspects) {
      const auto vec = snapshot.find(suspect.key);
      if (vec == snapshot.end() ||
          At(vec->second, Metric::kReadAheads) < kScanReadAheads) {
        continue;
      }
      proposals.push_back(
          {.kind = Proposal::kContainment,
           .key = suspect.key,
           .pages = std::max(suspect.params.acceptable_memory_pages,
                             min_quota_pages)});
    }
    return proposals;
  }
  // Even when the plan is flagged infeasible (this engine cannot
  // satisfy everyone no matter what), its reschedules are still the
  // right first step; the streak-based coarse fallback catches
  // whatever remains.
  for (const auto& [key, pages] : plan.quotas) {
    Proposal& quota = proposals.emplace_back(
        Proposal{.kind = Proposal::kQuota, .key = key, .pages = pages});
    // Demote rung: the plan pairs the DRAM cap with a tier-2 quota for
    // the working-set overflow — cheaper than migrating the class off
    // the engine.
    if (const auto tier = plan.tier2_quotas.find(key);
        tier != plan.tier2_quotas.end()) {
      quota.tier2_pages = tier->second;
    }
  }
  for (ClassKey key : plan.reschedule) {
    if (std::ranges::find(diagnosis.suspects, key, &ClassMemoryProfile::key) !=
        diagnosis.suspects.end()) {
      proposals.push_back({.kind = Proposal::kReschedule, .key = key});
    }
  }
  return proposals;
}

std::vector<ClassKey> PlanIoEviction(
    const std::map<ClassKey, double>& io_rate_by_class,
    double current_utilization, double target_utilization) {
  std::vector<ClassKey> evicted;
  if (current_utilization <= target_utilization) return evicted;
  std::vector<std::pair<double, ClassKey>> by_rate;
  by_rate.reserve(io_rate_by_class.size());
  for (const auto& [key, rate] : io_rate_by_class) {
    by_rate.emplace_back(rate, key);
  }
  std::sort(by_rate.begin(), by_rate.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  double removed = 0;
  const double excess = current_utilization - target_utilization;
  for (const auto& [rate, key] : by_rate) {
    if (removed >= excess) break;
    if (rate <= 0) break;
    evicted.push_back(key);
    removed += rate;
  }
  return evicted;
}

IoChoice ChooseIo(const std::map<ClassKey, double>& requests, double io_util) {
  IoChoice choice;
  double total_requests = 0;
  for (const auto& [key, count] : requests) total_requests += count;
  if (total_requests <= 0) return choice;
  // Each class's utilization contribution, from its share of the
  // channel's block requests.
  std::map<ClassKey, double> rates = requests;
  double top_rate = 0;
  int significant_classes = 0;
  for (auto& [key, value] : rates) {
    value *= io_util / total_requests;
    top_rate = std::max(top_rate, value);
    if (value > kIoSignificantShare * io_util) ++significant_classes;
  }
  // Eviction protects the *other* contexts on the server. If only one
  // class matters here (e.g. an already-isolated heavy class saturating
  // its own disk), moving it helps nobody.
  if (significant_classes < 2) return choice;
  // A uniformly loaded channel is a capacity shortage.
  if (top_rate / io_util < kIoSkewShare) {
    choice.replica = true;
    return choice;
  }
  choice.evict = PlanIoEviction(rates, io_util, kIoTargetUtilization);
  return choice;
}

bool Decision::Acted() const {
  return std::ranges::any_of(proposals, &Proposal::committed);
}

const char* Why(const Decision& d) {
  switch (d.verdict) {
    case Verdict::kOverloadShed:
      return "overload_shed";
    case Verdict::kBootstrap:
      return "bootstrap";
    case Verdict::kWarmup:
      return "warmup";  // pools still filling; hold fire
    case Verdict::kViolation:
    case Verdict::kCalm:
      break;
  }
  if (d.monitoring) return "monitoring";
  if (d.coarse_only) return "coarse_only";
  if (d.Acted()) return "no_action";
  if (d.no_stats) return "no_stats";
  // The evidence was last-known-good, not measured: a gate withheld a
  // quota, demote or move it would have driven.
  const auto stale = [](Hold hold) { return hold == Hold::kLowConfidence; };
  return std::ranges::any_of(d.engines, stale, &EngineDiagnosis::evidence) ||
                 std::ranges::any_of(d.proposals, stale, &Proposal::hold)
             ? "low_confidence"
             : "no_action";
}

TraceEvent ActionEvent(const Action& action) {
  TraceEvent event("action");
  event.Num("t", action.time)
      .Uint("app", action.app)
      .Str("kind", ActionKindName(action.kind))
      .Str("desc", action.description);
  return event;
}

std::vector<TraceEvent> RenderDecision(const Decision& d) {
  std::vector<TraceEvent> events;
  auto event = [&](const char* phase) -> TraceEvent& {
    return events.emplace_back(phase).Num("t", d.t).Uint("app", d.app);
  };
  event("sla")
      .Uint("queries", d.queries)
      .Num("avg_latency", d.avg_latency)
      .Num("p95_latency", d.p95_latency)
      .Num("throughput", d.throughput)
      .Bool("sla_met", d.sla_met)
      .Int("streak", d.streak)
      .Int("servers_used", d.servers_used)
      .Num("dur_us", d.end_interval_us)
      .Num("stats_conf", d.stats_conf)
      .Int("stale_replicas", d.stale_replicas);
  bool recomputed = false;
  for (const EngineDiagnosis& e : d.engines) {
    AddImpact(event("impact").Int("replica", e.replica_id), e);
    AddIqr(event("iqr").Int("replica", e.replica_id), e);
    if (e.candidates == 0) continue;
    AddMrc(event("mrc").Int("replica", e.replica_id), e);
    recomputed = true;
  }
  // Back-fill the phases the cascade never reached so every violating
  // interval carries the complete sla->impact->iqr->mrc->action chain.
  const char* why = Why(d);
  const bool diagnosed = !d.engines.empty();
  for (const auto& [ran, phase] : {std::pair{diagnosed, "impact"},
                                   {diagnosed, "iqr"},
                                   {recomputed, "mrc"}}) {
    if (ran) continue;
    event(phase).Bool("skipped", true).Str("why", why).Num("dur_us", 0);
  }
  if (d.actions.empty()) event("action").Str("kind", "none").Str("why", why);
  for (const Action& action : d.actions) events.push_back(ActionEvent(action));
  return events;
}

}  // namespace fglb

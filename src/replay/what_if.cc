#include "replay/what_if.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>

#include "replay/replayer.h"

namespace fglb {
namespace {

// Tie margin and action costs for the cheaper-wins rule.
constexpr double kTieEpsilon = 0.05;
int ActionCost(const std::string& name) {
  if (name == "noop") return 0;
  if (name == "quota") return 1;
  return 2;
}

// Per-interval reports of one candidate replay, keyed (time, app).
struct IntervalPoint {
  double t = 0;
  AppId app = 0;
  Scheduler::IntervalReport report;
};

// One candidate replayed with the controller off: rebuild, re-arm
// faults, feed arrivals, close measurement intervals manually, and
// fire the candidate's apply hook at window_start.
struct CandidateRun {
  std::vector<IntervalPoint> points;
  // Every application's SLA, read from the rebuilt cluster.
  std::map<AppId, double> sla_seconds;
  bool feasible = true;
  std::string detail;
};

bool RunCandidate(const Capture& capture, double window_end,
                  double window_start,
                  const std::function<void(ClusterHarness*, CandidateRun*)>&
                      apply,
                  CandidateRun* out, std::string* error) {
  ReplayBuildOptions build;
  build.lenient = true;  // changed routing shifts stream consumption
  CaptureAccessSource source(&capture);
  std::unique_ptr<ClusterHarness> harness =
      BuildClusterFromCapture(capture, build, &source, error);
  if (harness == nullptr) return false;

  std::map<AppId, Scheduler*> schedulers;
  for (const auto& scheduler : harness->schedulers()) {
    schedulers[scheduler->app().id] = scheduler.get();
    out->sla_seconds[scheduler->app().id] =
        scheduler->app().sla_latency_seconds;
  }

  // The live controller stays off (harness->Start() is never called),
  // so the fault schedule — armed by Start() in a live run — must be
  // armed by hand.
  if (harness->fault_injector() != nullptr) {
    harness->fault_injector()->Arm();
  }

  FeedArrivals(&capture, &harness->sim(), &schedulers, nullptr);

  // Manual interval closers at the same boundaries the live retuner
  // ticked on.
  const double dt = capture.run.interval_seconds;
  struct Closer {
    static void Arm(ClusterHarness* h,
                    const std::map<AppId, Scheduler*>* schedulers, double dt,
                    double t, double until, CandidateRun* out) {
      if (t > until + 1e-9) return;
      h->sim().ScheduleAt(t, [h, schedulers, dt, t, until, out] {
        for (const auto& [app, scheduler] : *schedulers) {
          out->points.push_back({t, app, scheduler->EndInterval(dt)});
        }
        Arm(h, schedulers, dt, t + dt, until, out);
      });
    }
  };
  Closer::Arm(harness.get(), &schedulers, dt, dt, window_end, out);

  harness->sim().ScheduleAt(window_start, [&harness, apply, out] {
    apply(harness.get(), out);
  });

  harness->sim().RunUntil(window_end);
  return true;
}

// Mean interval latency of `app` over (window_start, window_end].
double MeanLatency(const std::vector<IntervalPoint>& points, AppId app,
                   double from, double to) {
  double sum = 0;
  int n = 0;
  for (const auto& p : points) {
    if (p.app != app || p.t <= from + 1e-9 || p.t > to + 1e-9) continue;
    sum += p.report.avg_latency;
    ++n;
  }
  return n > 0 ? sum / n : 0;
}

int Violations(const std::vector<IntervalPoint>& points, AppId app,
               double from, double to) {
  int v = 0;
  for (const auto& p : points) {
    if (p.app != app || p.t <= from + 1e-9 || p.t > to + 1e-9) continue;
    if (!p.report.sla_met) ++v;
  }
  return v;
}

double Clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

}  // namespace

WhatIfRunner::WhatIfRunner(const Capture* capture, WhatIfOptions options)
    : capture_(capture), options_(options) {
  assert(capture_ != nullptr);
}

bool WhatIfRunner::Run(WhatIfResult* result, std::string* error) {
  assert(result != nullptr);
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  const double dt = capture_->run.interval_seconds;

  // --- window + target selection ---
  double window_start = options_.window_start;
  AppId target_app = 0;
  bool found = false;
  for (const SelectiveRetuner::IntervalSample& s : capture_->samples) {
    if (window_start >= 0 && s.time <= window_start + 1e-9) continue;
    for (const SelectiveRetuner::AppSample& a : s.apps) {
      if (!a.sla_met) {
        if (window_start < 0) window_start = s.time - dt;
        target_app = a.app;
        found = true;
        break;
      }
    }
    if (found) break;
  }
  if (!found) {
    return fail(window_start < 0
                    ? "no SLA violation in the capture's sample series"
                    : "no SLA violation at or after the requested window");
  }
  const double window_end =
      std::min(window_start + options_.horizon_seconds,
               capture_->run.duration_seconds);
  if (window_end <= window_start) {
    return fail("what-if window is empty (horizon too small?)");
  }

  // --- problem-class diagnosis (offline mirror of the controller's
  // outlier rule): classes executing in the violating interval, new
  // ones first, heaviest distinct-page footprint wins ---
  std::set<ClassKey> before;
  std::map<ClassKey, std::set<PageId>> footprint;
  for (const CaptureExecution& e : capture_->executions) {
    if (e.t < window_start) {
      before.insert(e.key);
      continue;
    }
    if (e.t >= window_start + dt) continue;
    auto& pages = footprint[e.key];
    for (uint32_t i = 0; i < e.access_count; ++i) {
      pages.insert(capture_->accesses[e.access_begin + i].page);
    }
  }
  ClassKey problem = 0;
  size_t best_pages = 0;
  bool best_new = false;
  bool best_foreign = false;
  for (const auto& [key, pages] : footprint) {
    const bool is_new = !before.contains(key);
    const bool is_foreign = AppOf(key) != target_app;
    // Lexicographic preference: new-in-window, then another app's
    // class, then footprint.
    const auto better = [&] {
      if (is_new != best_new) return is_new;
      if (is_foreign != best_foreign) return is_foreign;
      return pages.size() > best_pages;
    };
    if (problem == 0 || better()) {
      problem = key;
      best_pages = pages.size();
      best_new = is_new;
      best_foreign = is_foreign;
    }
  }
  if (problem == 0) {
    return fail("no executions recorded in the violating interval");
  }

  result->window_start = window_start;
  result->window_end = window_end;
  result->target_app = target_app;
  result->problem_class = problem;

  // --- candidate replays ---
  const AppId problem_app = AppOf(problem);
  const QueryClassId problem_cls = ClassOf(problem);
  uint64_t quota_auto = options_.quota_pages;

  auto noop_apply = [](ClusterHarness*, CandidateRun*) {};
  auto quota_apply = [&, problem, problem_app, problem_cls](
                         ClusterHarness* harness, CandidateRun* run) {
    Scheduler* owner = nullptr;
    for (const auto& s : harness->schedulers()) {
      if (s->app().id == problem_app) owner = s.get();
    }
    if (owner == nullptr) {
      run->feasible = false;
      run->detail = "problem app not found";
      return;
    }
    std::vector<Replica*> targets = owner->PlacementOf(problem_cls);
    if (targets.empty()) {
      run->feasible = false;
      run->detail = "problem class has no replicas";
      return;
    }
    bool applied = false;
    char buf[128];
    for (Replica* replica : targets) {
      uint64_t pages = quota_auto;
      if (pages == 0) {
        pages = static_cast<uint64_t>(
            Clamp(static_cast<double>(best_pages) / 2, 64,
                  static_cast<double>(
                      replica->engine().pool().capacity() / 4)));
      }
      if (replica->engine().SetQuota(problem, pages)) {
        applied = true;
        std::snprintf(buf, sizeof(buf), "quota %llu pages on %s",
                      static_cast<unsigned long long>(pages),
                      replica->name().c_str());
        run->detail = buf;
      }
    }
    if (!applied) {
      run->feasible = false;
      run->detail = "quota exceeds pool capacity";
    }
  };
  auto migrate_apply = [problem, problem_app, problem_cls](
                           ClusterHarness* harness, CandidateRun* run) {
    Scheduler* owner = nullptr;
    for (const auto& s : harness->schedulers()) {
      if (s->app().id == problem_app) owner = s.get();
    }
    if (owner == nullptr) {
      run->feasible = false;
      run->detail = "problem app not found";
      return;
    }
    uint64_t pool_pages = 8192;
    if (!owner->replicas().empty()) {
      pool_pages = owner->replicas()[0]->engine().pool().capacity();
    }
    Replica* target =
        harness->resources().ProvisionReplica(owner, pool_pages);
    if (target == nullptr) {
      run->feasible = false;
      run->detail = "no server has capacity for a new replica";
      return;
    }
    owner->DedicateReplica(problem_cls, target);
    run->detail = "class dedicated to fresh " + target->name();
    (void)problem;
  };

  struct Plan {
    const char* name;
    std::function<void(ClusterHarness*, CandidateRun*)> apply;
  };
  const Plan plans[] = {
      {"noop", noop_apply}, {"quota", quota_apply}, {"migrate", migrate_apply}};

  CandidateRun runs[3];
  for (int i = 0; i < 3; ++i) {
    if (!RunCandidate(*capture_, window_end, window_start, plans[i].apply,
                      &runs[i], error)) {
      return false;
    }
  }

  // --- scoring against the noop baseline ---
  const std::map<AppId, double>& sla_seconds = runs[0].sla_seconds;
  const auto target_sla_it = sla_seconds.find(target_app);
  const double target_sla =
      target_sla_it != sla_seconds.end() ? target_sla_it->second : 1.0;
  const int v_noop =
      Violations(runs[0].points, target_app, window_start, window_end);
  const double l_noop =
      MeanLatency(runs[0].points, target_app, window_start, window_end);

  result->candidates.clear();
  for (int i = 0; i < 3; ++i) {
    WhatIfCandidate c;
    c.name = plans[i].name;
    c.feasible = runs[i].feasible;
    c.detail = runs[i].detail;
    c.violations =
        Violations(runs[i].points, target_app, window_start, window_end);
    c.avg_latency =
        MeanLatency(runs[i].points, target_app, window_start, window_end);
    for (const auto& [app, sla] : sla_seconds) {
      c.app_latency[app] =
          MeanLatency(runs[i].points, app, window_start, window_end);
    }
    if (!c.feasible) {
      c.score = -1e18;
    } else if (c.name == "noop") {
      c.score = c.recovery = c.interference = 0;
    } else {
      c.recovery = static_cast<double>(v_noop - c.violations) +
                   Clamp((l_noop - c.avg_latency) / target_sla, -1, 1);
      c.interference = 0;
      for (const auto& [app, sla] : sla_seconds) {
        if (app == target_app) continue;
        const double delta =
            c.app_latency[app] -
            MeanLatency(runs[0].points, app, window_start, window_end);
        if (delta > 0 && sla > 0) {
          c.interference = std::max(c.interference, delta / sla);
        }
      }
      c.score = c.recovery - 0.5 * c.interference;
    }
    result->candidates.push_back(std::move(c));
  }
  std::stable_sort(result->candidates.begin(), result->candidates.end(),
                   [](const WhatIfCandidate& a, const WhatIfCandidate& b) {
                     if (std::abs(a.score - b.score) <= kTieEpsilon) {
                       return ActionCost(a.name) < ActionCost(b.name);
                     }
                     return a.score > b.score;
                   });

  // --- what the live controller did in the window ---
  result->live_choice = "noop";
  using ActionKind = SelectiveRetuner::ActionKind;
  for (const SelectiveRetuner::Action& a : capture_->actions) {
    if (a.time <= window_start + 1e-9 || a.time > window_end + 1e-9) continue;
    if (a.kind == ActionKind::kClassRescheduled) {
      result->live_choice = "migrate";
      break;  // a re-placement dominates any quota in the same window
    }
    if (a.kind == ActionKind::kQuotaEnforced) result->live_choice = "quota";
  }
  result->agrees_with_live =
      !result->candidates.empty() &&
      result->candidates.front().name == result->live_choice;
  return true;
}

std::string WhatIfResult::Format() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "what-if window [%.1f, %.1f) target app=%u problem "
                "app=%u/class=%u\n",
                window_start, window_end, target_app, AppOf(problem_class),
                ClassOf(problem_class));
  out += buf;
  for (const auto& c : candidates) {
    if (!c.feasible) {
      std::snprintf(buf, sizeof(buf), "  %-8s infeasible: %s\n",
                    c.name.c_str(), c.detail.c_str());
      out += buf;
      continue;
    }
    std::snprintf(buf, sizeof(buf),
                  "  %-8s score=%+.3f recovery=%+.3f interference=%.3f "
                  "violations=%d avg=%.3fs%s%s\n",
                  c.name.c_str(), c.score, c.recovery, c.interference,
                  c.violations, c.avg_latency,
                  c.detail.empty() ? "" : "  ",
                  c.detail.c_str());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "  live controller chose: %s (%s)\n",
                live_choice.c_str(),
                agrees_with_live ? "ranked first here too"
                                 : "ranked differently here");
  out += buf;
  return out;
}

}  // namespace fglb

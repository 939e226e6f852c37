#include "core/log_analyzer.h"

#include <cassert>
#include <chrono>

#include "mrc/opt_oracle.h"

namespace fglb {

namespace {

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

LogAnalyzer::LogAnalyzer(DatabaseEngine* engine, OutlierConfig outlier_config,
                         MrcConfig mrc_config, MetricsRegistry* metrics)
    : engine_(engine),
      detector_(outlier_config),
      mrc_config_(mrc_config),
      metrics_(metrics) {
  assert(engine_ != nullptr);
  if (metrics_ != nullptr) {
    outlier_us_ = metrics_->histogram("controller.diagnose.outlier_us");
    mrc_us_ = metrics_->histogram("controller.diagnose.mrc_us");
  }
}

MrcTracker& LogAnalyzer::TrackerFor(ClassKey key) {
  auto it = trackers_.find(key);
  if (it == trackers_.end()) {
    it = trackers_.emplace(key, std::make_unique<MrcTracker>(mrc_config_))
             .first;
  }
  return *it->second;
}

void LogAnalyzer::RecordStableInterval(
    AppId app, const std::map<ClassKey, MetricVector>& snapshot,
    SimTime now) {
  for (const auto& [key, vec] : snapshot) {
    if (AppOf(key) != app) continue;
    stable_store_.Update(key, vec, now);
    // First-time MRC baseline, computed "when a query class is first
    // scheduled on the system" — i.e. once enough of its accesses have
    // been observed during stable operation.
    MrcTracker& tracker = TrackerFor(key);
    if (!tracker.has_stable()) {
      const SpanPair<PageId> window = engine_->stats().AccessWindowSpans(key);
      if (window.size() >= kMinWindowForMrc) {
        tracker.SetStableFromTrace(window);
      }
    }
  }
}

OutlierReport LogAnalyzer::DetectOutliers(
    AppId app, const std::map<ClassKey, MetricVector>& snapshot,
    double fence_scale) const {
  const auto start = std::chrono::steady_clock::now();
  std::map<ClassKey, MetricVector> app_only;
  for (const auto& [key, vec] : snapshot) {
    if (AppOf(key) == app) app_only.emplace(key, vec);
  }
  OutlierReport report = detector_.Detect(app_only, stable_store_, fence_scale);
  if (outlier_us_ != nullptr) outlier_us_->Record(MicrosSince(start));
  return report;
}

ThreadPool& LogAnalyzer::AnalysisPool() {
  if (!pool_) {
    const int threads = mrc_config_.analysis_threads;
    pool_ = std::make_unique<ThreadPool>(
        threads <= 0 ? 0 : static_cast<size_t>(threads));
    if (metrics_ != nullptr) {
      pool_->BindMetrics(metrics_, "controller.pool.");
    }
  }
  return *pool_;
}

LogAnalyzer::MemoryDiagnosis LogAnalyzer::DiagnoseMemory(
    const std::set<ClassKey>& candidates) {
  const auto start = std::chrono::steady_clock::now();
  MemoryDiagnosis diagnosis;
  // Phase 1 (serial): snapshot windows and materialize trackers —
  // everything that touches shared maps.
  struct Job {
    ClassKey key;
    SpanPair<PageId> window;
    MrcTracker* tracker;
    MrcTracker::Recomputation rec;
  };
  std::vector<Job> jobs;
  jobs.reserve(candidates.size());
  for (ClassKey key : candidates) {
    const SpanPair<PageId> window = engine_->stats().AccessWindowSpans(key);
    if (window.size() < kMinWindowForMrc) {
      diagnosis.insufficient_data.push_back(key);
      continue;
    }
    jobs.push_back(Job{key, window, &TrackerFor(key), {}});
  }
  // Phase 2 (parallel): each job reads its own window snapshot and
  // mutates only its own tracker's scratch stack and its own slot.
  auto run_job = [](Job& job) {
    job.rec = job.tracker->Recompute(job.window);
  };
  if (jobs.size() > 1) {
    AnalysisPool().ParallelFor(jobs.size(),
                               [&jobs, &run_job](size_t i) { run_job(jobs[i]); });
  } else if (!jobs.empty()) {
    run_job(jobs[0]);
  }
  // Phase 3 (serial): merge in candidate order, so the diagnosis is
  // byte-identical to a serial pass.
  for (Job& job : jobs) {
    ClassMemoryProfile profile;
    profile.key = job.key;
    profile.params = job.rec.params;
    // Carry the curve itself: tiered planning reads the (dram, tier2)
    // split straight off the reuse-distance histogram.
    profile.curve = std::make_shared<MissRatioCurve>(job.rec.curve);
    if (mrc_config_.opt_regret) {
      // LRU-vs-Belady gap at the class's acceptable-memory point: how
      // much of the remaining miss ratio is replacement-policy regret
      // rather than genuine capacity need. OPT replays the same
      // references the LRU curve covers (the window suffix Recompute
      // trimmed to the baseline's length). O(window log window) — only
      // paid when the oracle is explicitly enabled.
      const std::vector<PageId> trace =
          job.window.Suffix(job.rec.curve.total_accesses()).ToVector();
      profile.regret_vs_opt = RegretVsOpt(
          trace, job.rec.curve, job.rec.params.acceptable_memory_pages);
    }
    if (job.rec.suspect) {
      diagnosis.suspects.push_back(profile);
    } else {
      diagnosis.cleared.push_back(profile);
    }
    last_recomputation_[job.key] = std::move(job.rec);
  }
  if (mrc_us_ != nullptr) mrc_us_->Record(MicrosSince(start));
  return diagnosis;
}

void LogAnalyzer::AdoptRecomputation(ClassKey key) {
  auto it = last_recomputation_.find(key);
  if (it == last_recomputation_.end()) return;
  TrackerFor(key).AdoptAsStable(it->second);
}

std::vector<ClassMemoryProfile> LogAnalyzer::StableProfilesExcept(
    const std::set<ClassKey>& excluded) const {
  std::vector<ClassMemoryProfile> profiles;
  for (const auto& [key, tracker] : trackers_) {
    if (excluded.contains(key)) continue;
    if (!tracker->has_stable()) continue;
    ClassMemoryProfile profile;
    profile.key = key;
    profile.params = tracker->stable_params();
    if (!tracker->stable_curve().empty()) {
      profile.curve =
          std::make_shared<MissRatioCurve>(tracker->stable_curve());
    }
    profiles.push_back(profile);
  }
  return profiles;
}

const MrcParameters* LogAnalyzer::StableParamsOf(ClassKey key) const {
  auto it = trackers_.find(key);
  if (it == trackers_.end() || !it->second->has_stable()) return nullptr;
  return &it->second->stable_params();
}

LogAnalyzer::Baselines LogAnalyzer::baselines() const {
  Baselines b;
  b.signatures = stable_store_;
  for (const auto& [key, tracker] : trackers_) {
    if (!tracker->has_stable()) continue;
    b.curves[key] = {tracker->stable_curve(), tracker->stable_trace_length()};
  }
  return b;
}

void LogAnalyzer::Restore(const Baselines& baselines) {
  stable_store_ = baselines.signatures;
  for (const auto& [key, stable] : baselines.curves) {
    TrackerFor(key).RestoreStable(stable.curve, stable.trace_length);
  }
}

}  // namespace fglb

#include "replay/replayer.h"

#include <cassert>

#include "scenarios/scenario.h"

namespace fglb {

CaptureAccessSource::CaptureAccessSource(const Capture* capture)
    : capture_(capture) {
  assert(capture_ != nullptr);
  for (uint64_t i = 0; i < capture_->executions.size(); ++i) {
    queues_[capture_->executions[i].key].push_back(i);
    ++remaining_;
  }
}

bool CaptureAccessSource::NextAccesses(ClassKey key,
                                       std::vector<PageAccess>* out) {
  auto it = queues_.find(key);
  if (it == queues_.end() || it->second.empty()) {
    ++misses_;
    return false;
  }
  const CaptureExecution& exec = capture_->executions[it->second.front()];
  it->second.pop_front();
  out->insert(out->end(),
              capture_->accesses.begin() + exec.access_begin,
              capture_->accesses.begin() + exec.access_begin +
                  exec.access_count);
  ++served_;
  --remaining_;
  return true;
}

std::unique_ptr<ClusterHarness> BuildClusterFromCapture(
    const Capture& capture, const ReplayBuildOptions& options,
    CaptureAccessSource* source, std::string* error) {
  std::unique_ptr<ClusterHarness> harness =
      MakeHarness(capture.run, options.mrc_threads);
  AssembleCluster(capture.run, harness.get());
  if (source != nullptr) {
    // Existing replicas immediately; replicas the replayed controller
    // provisions (or fault restarts re-create) at creation.
    harness->resources().set_replica_observer([source](Replica* replica) {
      replica->engine().SetAccessReplaySource(source);
    });
  }
  if (!ArmRun(capture.run, harness.get(), error)) return nullptr;
  return harness;
}

void FeedArrivals(const Capture* capture, Simulator* sim,
                  const std::map<AppId, Scheduler*>* schedulers,
                  uint64_t* fed, size_t index) {
  if (index >= capture->arrivals.size()) return;
  sim->ScheduleAt(capture->arrivals[index].t,
                  [capture, sim, schedulers, fed, index]() mutable {
    // Arrivals recorded at one instant were submitted back to back by
    // one event (a cohort batch): submit them the same way, before any
    // event their queries schedule.
    const SimTime t = capture->arrivals[index].t;
    for (; index < capture->arrivals.size() &&
           capture->arrivals[index].t == t;
         ++index) {
      const CaptureArrival& arrival = capture->arrivals[index];
      auto it = schedulers->find(arrival.app);
      if (it == schedulers->end()) continue;
      const QueryTemplate* tmpl = it->second->app().FindTemplate(arrival.cls);
      if (tmpl == nullptr) continue;
      QueryInstance query;
      query.app = arrival.app;
      query.tmpl = tmpl;
      query.client_id = arrival.client_id;
      query.submit_time = sim->Now();
      it->second->Submit(query, nullptr);
      if (fed != nullptr) ++*fed;
    }
    FeedArrivals(capture, sim, schedulers, fed, index);
  });
}

ReplayRunner::ReplayRunner(const Capture* capture, ReplayBuildOptions options)
    : capture_(capture), options_(options) {
  assert(capture_ != nullptr);
}

bool ReplayRunner::Build(std::string* error) {
  if (built_) return harness_ != nullptr;
  built_ = true;
  source_ = std::make_unique<CaptureAccessSource>(capture_);
  harness_ = BuildClusterFromCapture(*capture_, options_, source_.get(),
                                     error);
  if (harness_ == nullptr) return false;
  for (const auto& scheduler : harness_->schedulers()) {
    schedulers_[scheduler->app().id] = scheduler.get();
  }
  return true;
}

bool ReplayRunner::Run(std::string* error) {
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (ran_) return fail("ReplayRunner::Run called twice");
  ran_ = true;
  if (!Build(error)) return false;

  // Validate every arrival resolves before simulating anything; a
  // missing template would silently drop load and skew the replay.
  for (const CaptureArrival& a : capture_->arrivals) {
    auto it = schedulers_.find(a.app);
    if (it == schedulers_.end()) {
      return fail("arrival references unknown app " + std::to_string(a.app));
    }
    if (it->second->app().FindTemplate(a.cls) == nullptr) {
      return fail("arrival references unknown class " + std::to_string(a.cls) +
                  " of app " + std::to_string(a.app));
    }
  }

  harness_->Start();
  FeedArrivals(capture_, &harness_->sim(), &schedulers_, &arrivals_fed_);
  harness_->RunFor(capture_->run.duration_seconds);

  if (arrivals_fed_ != capture_->arrivals.size()) {
    return fail("fed " + std::to_string(arrivals_fed_) + " of " +
                std::to_string(capture_->arrivals.size()) +
                " recorded arrivals (duration too short?)");
  }
  if (!options_.lenient) {
    if (source_->misses() > 0) {
      return fail("replay diverged: " + std::to_string(source_->misses()) +
                  " executions fell back to generated accesses");
    }
    if (source_->remaining() > 0) {
      return fail("replay diverged: " + std::to_string(source_->remaining()) +
                  " recorded executions were never consumed");
    }
    // The interval series must match bit for bit: --what-if picks its
    // window from the captured one.
    const auto& replayed = harness_->retuner().samples();
    if (EncodeSamples(replayed) != EncodeSamples(capture_->samples)) {
      return fail("replay diverged: " + std::to_string(replayed.size()) +
                  " replayed interval samples differ from the " +
                  std::to_string(capture_->samples.size()) + " captured");
    }
  }
  return true;
}

}  // namespace fglb

#include "workload/client_emulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace fglb {
namespace {

// Control-tick spacing.
constexpr double kTickSeconds = 1.0;
// Cohort mode's batch window: one batch event per window.
constexpr double kCohortBatchSeconds = 0.1;

}  // namespace

ClientEmulator::ClientEmulator(Simulator* sim, const ApplicationSpec* app,
                               QuerySink* sink, const LoadFunction* load,
                               uint64_t seed, Options options)
    : sim_(sim),
      app_(app),
      sink_(sink),
      load_(load),
      options_(options),
      rng_(seed) {
  assert(sim && app && sink && load);
}

ClientEmulator::ClientEmulator(Simulator* sim, const ApplicationSpec* app,
                               QuerySink* sink, const LoadFunction* load,
                               uint64_t seed)
    : ClientEmulator(sim, app, sink, load, seed, Options()) {}

void ClientEmulator::Start() {
  if (running_) return;
  running_ = true;
  sim_->ScheduleAfter(0, [this] { ControlTick(); });
  if (options_.cohort) {
    sim_->ScheduleAfter(kCohortBatchSeconds, [this] { BatchTick(); });
  }
}

void ClientEmulator::Stop() { running_ = false; }

void ClientEmulator::ControlTick() {
  if (!running_) {
    retire_pending_ = active_clients_;
    return;
  }
  double target = load_->TargetClients(sim_->Now());
  if (options_.noise_fraction > 0) {
    target *= std::max(0.0, rng_.Normal(1.0, options_.noise_fraction));
  }
  const uint64_t want =
      static_cast<uint64_t>(std::max<long long>(0, std::llround(target)));
  // The live population is active - pending retirements.
  const uint64_t effective = active_clients_ - std::min(active_clients_,
                                                        retire_pending_);
  if (want > effective) {
    for (uint64_t i = effective; i < want; ++i) {
      if (retire_pending_ > 0) {
        // Cancel a pending retirement instead of spawning.
        --retire_pending_;
        continue;
      }
      // Stagger arrivals across the tick to avoid lockstep.
      SpawnClient(rng_.UniformDouble(0, kTickSeconds));
    }
  } else if (want < effective) {
    retire_pending_ += effective - want;
  }
  sim_->ScheduleAfter(kTickSeconds, [this] { ControlTick(); });
}

void ClientEmulator::SpawnClient(double initial_delay) {
  ++active_clients_;
  const uint64_t id = next_client_id_++;
  const SimTime session_end =
      options_.session_time_seconds > 0
          ? sim_->Now() + rng_.Exponential(options_.session_time_seconds)
          : std::numeric_limits<SimTime>::infinity();
  if (options_.cohort) {
    // First interaction fires directly (like the legacy path, staggered
    // across the tick); completions then feed the idle pool.
    sim_->ScheduleAfter(initial_delay, [this, id, session_end] {
      CohortIssue(id, session_end);
    });
    return;
  }
  sim_->ScheduleAfter(initial_delay, [this, id, session_end] {
    ClientIssue(id, session_end);
  });
}

void ClientEmulator::BatchTick() {
  // Retirements come out of the idle pool first; in-flight clients
  // retire at their completion boundary like the legacy path.
  while (retire_pending_ > 0 && !idle_.empty()) {
    --retire_pending_;
    assert(active_clients_ > 0);
    --active_clients_;
    idle_.pop_back();
  }
  const double delta = kCohortBatchSeconds;
  if (!idle_.empty()) {
    // Probability an Exponential(Z') think ends within this batch. The
    // batch discretization adds ~delta/2 of expected extra wait per
    // interaction, so the effective mean compensates by that half-step
    // to keep cohort throughput matching the per-client emulator.
    const double think =
        std::max(app_->think_time_seconds - 0.5 * delta, 0.5 * delta);
    const double p = 1.0 - std::exp(-delta / think);
    const size_t pool = idle_.size();
    const uint64_t waking = rng_.Binomial(pool, p);
    // Move the waking clients to the back (uniform without-replacement
    // selection), then issue them.
    for (uint64_t j = 0; j < waking; ++j) {
      const size_t pick = static_cast<size_t>(rng_.NextUint64(pool - j));
      std::swap(idle_[pick], idle_[pool - 1 - j]);
    }
    for (uint64_t j = 0; j < waking; ++j) {
      const IdleClient client = idle_.back();
      idle_.pop_back();
      CohortIssue(client.id, client.session_end);
    }
  }
  if (!running_ && active_clients_ == 0) return;
  sim_->ScheduleAfter(delta, [this] { BatchTick(); });
}

void ClientEmulator::CohortIssue(uint64_t client_id, SimTime session_end) {
  if (retire_pending_ > 0) {
    --retire_pending_;
    assert(active_clients_ > 0);
    --active_clients_;
    return;
  }
  if (sim_->Now() >= session_end) {
    // Session over: this client leaves; the control loop admits a new
    // one at the next tick to hold the target population.
    assert(active_clients_ > 0);
    --active_clients_;
    return;
  }
  const size_t index = app_->SampleTemplateIndex(rng_);
  QueryInstance query;
  query.app = app_->id;
  query.tmpl = &app_->templates[index];
  query.client_id = client_id;
  query.submit_time = sim_->Now();
  sink_->Submit(query, [this, client_id, session_end](double) {
    ++completed_queries_;
    if (retire_pending_ > 0) {
      --retire_pending_;
      assert(active_clients_ > 0);
      --active_clients_;
      return;
    }
    idle_.push_back(IdleClient{client_id, session_end});
  });
}

void ClientEmulator::ClientThink(uint64_t client_id, SimTime session_end) {
  if (retire_pending_ > 0) {
    --retire_pending_;
    assert(active_clients_ > 0);
    --active_clients_;
    return;
  }
  sim_->ScheduleAfter(rng_.Exponential(app_->think_time_seconds),
                      [this, client_id, session_end] {
                        ClientIssue(client_id, session_end);
                      });
}

void ClientEmulator::ClientIssue(uint64_t client_id, SimTime session_end) {
  if (retire_pending_ > 0) {
    --retire_pending_;
    assert(active_clients_ > 0);
    --active_clients_;
    return;
  }
  if (sim_->Now() >= session_end) {
    // Session over: this client leaves; the control loop admits a new
    // one at the next tick to hold the target population.
    assert(active_clients_ > 0);
    --active_clients_;
    return;
  }
  const size_t index = app_->SampleTemplateIndex(rng_);
  QueryInstance query;
  query.app = app_->id;
  query.tmpl = &app_->templates[index];
  query.client_id = client_id;
  query.submit_time = sim_->Now();
  sink_->Submit(query, [this, client_id, session_end](double) {
    ++completed_queries_;
    ClientThink(client_id, session_end);
  });
}

}  // namespace fglb

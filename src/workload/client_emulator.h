#ifndef FGLB_WORKLOAD_CLIENT_EMULATOR_H_
#define FGLB_WORKLOAD_CLIENT_EMULATOR_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "sim/simulator.h"
#include "workload/application.h"
#include "workload/load_function.h"
#include "workload/query_sink.h"

namespace fglb {

// Closed-loop client emulator for one application: each emulated client
// thinks (exponential think time), issues one interaction drawn from
// the application's mix, waits for completion, and repeats. A control
// tick adjusts the live client population toward the load function's
// target, with multiplicative random noise on top (the paper's emulator
// "adds some random noise on top of the load function").
class ClientEmulator {
 public:
  struct Options {
    // Stddev of the multiplicative noise applied to the target.
    double noise_fraction = 0.05;
    // Mean client session length (exponential). A client whose session
    // expires leaves at its next interaction boundary and the control
    // loop admits a fresh one — the paper's emulator "randomly varying
    // the session time". 0 disables churn (sessions never end).
    double session_time_seconds = 0;
    // Batched-cohort mode: instead of one scheduled think event per
    // client per interaction, thinking clients sit in an idle pool and
    // one batch event per 100 ms window draws Binomial(idle, p)
    // of them to issue, p matching the exponential think time over the
    // batch window. Statistically equivalent closed-loop load at a
    // per-interaction event cost that no longer scales with the client
    // count; per-client identity (id, session end) materializes only
    // when a client issues. Required for million-client scenarios.
    bool cohort = false;
  };

  ClientEmulator(Simulator* sim, const ApplicationSpec* app, QuerySink* sink,
                 const LoadFunction* load, uint64_t seed, Options options);
  // Same, with default Options.
  ClientEmulator(Simulator* sim, const ApplicationSpec* app, QuerySink* sink,
                 const LoadFunction* load, uint64_t seed);
  ClientEmulator(const ClientEmulator&) = delete;
  ClientEmulator& operator=(const ClientEmulator&) = delete;

  // Begins the control loop at the current simulation time.
  void Start();

  // Stops spawning work: the population target becomes zero and live
  // clients retire at their next think boundary.
  void Stop();

  uint64_t active_clients() const { return active_clients_; }
  uint64_t completed_queries() const { return completed_queries_; }
  // Distinct clients ever admitted (grows under session churn).
  uint64_t total_clients_spawned() const { return next_client_id_; }
  const ApplicationSpec& app() const { return *app_; }

 private:
  // The lazily-materialized identity of a client between interactions.
  struct IdleClient {
    uint64_t id;
    SimTime session_end;
  };

  void ControlTick();
  void SpawnClient(double initial_delay);
  void ClientThink(uint64_t client_id, SimTime session_end);
  void ClientIssue(uint64_t client_id, SimTime session_end);
  // Cohort mode: per-batch arrival draw / one client's issue path.
  void BatchTick();
  void CohortIssue(uint64_t client_id, SimTime session_end);

  Simulator* sim_;
  const ApplicationSpec* app_;
  QuerySink* sink_;
  const LoadFunction* load_;
  Options options_;
  Rng rng_;

  bool running_ = false;
  uint64_t next_client_id_ = 0;
  uint64_t active_clients_ = 0;
  // Clients asked to retire; each retiring client decrements this at
  // its next think boundary instead of issuing another query.
  uint64_t retire_pending_ = 0;
  uint64_t completed_queries_ = 0;
  // Cohort mode: clients thinking between interactions (unordered;
  // selection swaps with the back for O(1) removal).
  std::vector<IdleClient> idle_;
};

}  // namespace fglb

#endif  // FGLB_WORKLOAD_CLIENT_EMULATOR_H_

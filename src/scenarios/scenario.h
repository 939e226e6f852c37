#ifndef FGLB_SCENARIOS_SCENARIO_H_
#define FGLB_SCENARIOS_SCENARIO_H_

#include <memory>
#include <string>

#include "scenarios/cli_options.h"
#include "scenarios/harness.h"
#include "scenarios/run_config.h"

namespace fglb {

// The one scenario builder. fglb_sim, the replayer, the what-if
// evaluator, the tests and the capture bench all build a run through
// these calls in this order, so every event keeps its sequence number:
//
//   MakeHarness -> [trace file, metrics sampler] -> AssembleScenario
//   -> ArmRun -> [spans file, capture] -> ClusterHarness::Start
//
// A replay calls AssembleCluster where AssembleScenario goes: the
// capture's RunConfig rebuilds the same servers, applications,
// replicas and placements, and the recorded arrivals stand in for the
// client populations.

// fglb_sim's defaults for a scenario: tier-* and cold-start run a
// 16384-page second tier, cold-start provisions 4096-page replicas,
// chaos-* allow 2 migrations per interval, chaos-ctl checkpoints every
// interval, overload turns admission on, and chaos-* and tier-fail get
// a fault schedule whose times scale with `duration_seconds`.
RunConfig ScenarioRunConfig(Scenario scenario, double duration_seconds);

// fglb_sim's run: ScenarioRunConfig for the --scenario and --duration
// given, then every run flag through its RunConfig row, a sampling
// rate for --spans-out, and last --clients-scale on both client rows.
// Fails with a message when --spans-out comes with --span-sample=0, or
// when a flag's value does not parse (only for options ParseCliOptions
// did not produce).
bool RunConfigFromCli(const CliOptions& options, RunConfig* run,
                      std::string* error);

// A harness with the run's controller config and engine defaults
// (engines build their buffer hierarchy at construction, so this comes
// before any replica). `analysis_threads` cannot change results.
std::unique_ptr<ClusterHarness> MakeHarness(const RunConfig& run,
                                            int analysis_threads);

// The servers, applications, replicas and scheduler placements of
// run.scenario, on a fresh harness, in the order that fixes their ids
// (ResourceManager numbers replicas in creation order; the controller
// and the fault schedule address them by id).
void AssembleCluster(const RunConfig& run, ClusterHarness* harness);

// AssembleCluster, then the client populations of run.scenario.
void AssembleScenario(const RunConfig& run, ClusterHarness* harness);

// Turns on, in order, admission, span tracing, the stats channel
// config, checkpointing and faults. Fails only on a bad fault spec.
bool ArmRun(const RunConfig& run, ClusterHarness* harness,
            std::string* error);

}  // namespace fglb

#endif  // FGLB_SCENARIOS_SCENARIO_H_

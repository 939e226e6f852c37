// DES kernel benchmark: the calendar-queue scheduler measured two
// ways. (1) A hold-model microbench — a fixed event population where
// every execution reschedules itself at now + U(0,1) — isolates raw
// queue throughput (events/sec) at small and million-entry
// populations. (2) The overload scenario end to end reports engine
// page accesses per wall second; BENCH_overload's JSON historically
// logged completions/sec (~170k at 3x) under that field name, and the
// acceptance target is >= 10x that figure in true accesses/sec. A
// third configuration runs overload at 100x clients (90k, batched
// cohorts) and must finish faster than real time (simulated seconds /
// wall seconds > 1). Emits BENCH_des_kernel.json. The smoke mode runs
// small budgets, writes the same fields and checks no gate.
//
//   ./build/bench/bench_des_kernel [output.json] [smoke]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "scenarios/harness.h"
#include "sim/simulator.h"
#include "workload/capture_hooks.h"
#include "workload/tpcw.h"

namespace {

using namespace fglb;

constexpr uint64_t kSeed = 31;
// Matches bench_overload: one replica saturates near 300 closed-loop
// TPC-W clients, so 3x is genuine overload.
constexpr double kBaselineClients = 300;
// BENCH_overload's historical 3.0x_admission_off "accesses_per_sec"
// (really completions per wall second) — the speedup denominator.
constexpr double kOverloadBaselinePerSec = 170000;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Hold model: `population` pending events at all times; each execution
// draws a uniform hold time and reschedules itself until the shared
// budget runs out. Returns executed events per wall second.
double HoldModelEventsPerSec(uint64_t population, uint64_t budget) {
  Simulator sim;
  Rng rng(kSeed);
  struct Chain {
    Simulator* sim;
    Rng* rng;
    uint64_t* budget;
    void operator()() const {
      if (*budget == 0) return;
      --*budget;
      sim->ScheduleAfter(rng->NextDouble(), *this);
    }
  };
  for (uint64_t i = 0; i < population; ++i) {
    sim.ScheduleAfter(rng.NextDouble(), Chain{&sim, &rng, &budget});
  }
  const double start = Now();
  sim.RunToCompletion();
  const double wall = Now() - start;
  return wall > 0 ? static_cast<double>(sim.executed_events()) / wall : 0;
}

struct EndToEnd {
  double wall_ms = 0;
  uint64_t completions = 0;
  uint64_t accesses = 0;
  uint64_t events = 0;
  double sim_seconds = 0;
};

// The overload scenario (bench_overload's topology) under a chosen
// client scale and emulation mode.
EndToEnd RunOverload(double clients, double duration_seconds, bool cohort,
                     bool admission_on) {
  SelectiveRetuner::Config config;
  config.enable_actions = false;  // frozen topology: measure the kernel
  bench::AccessCounter counter;  // outlives the harness it observes
  ClusterHarness harness(config, /*observability=*/false);
  harness.AddServers(1);
  Scheduler* tpcw = harness.AddApplication(MakeTpcw());
  tpcw->AddReplica(harness.resources().CreateReplica(
      harness.resources().servers()[0].get(), 8192));
  if (admission_on) harness.EnableAdmission();
  ClientEmulator::Options emu;
  emu.cohort = cohort;
  harness.AddConstantClients(tpcw, clients, kSeed, emu);
  harness.AttachRecorders(nullptr, &counter);

  const double start = Now();
  harness.Start();
  harness.RunFor(duration_seconds);
  EndToEnd out;
  out.wall_ms = 1000 * (Now() - start);
  out.completions = tpcw->total_completed();
  out.accesses = counter.accesses();
  out.events = harness.sim().executed_events();
  out.sim_seconds = duration_seconds;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_des_kernel.json";
  const bool smoke = argc > 2 && std::strcmp(argv[2], "smoke") == 0;

  bench::PrintHeader("DES kernel: calendar queue");
  bench::BenchJsonWriter json;

  // --- hold-model microbench -------------------------------------
  const uint64_t hold_budget = smoke ? 200000 : 4000000;
  const uint64_t small_pop = smoke ? 2048 : 8192;
  std::printf("\nhold model, %llu-event population, %llu events:\n",
              static_cast<unsigned long long>(small_pop),
              static_cast<unsigned long long>(hold_budget));
  const double events_per_sec = HoldModelEventsPerSec(small_pop, hold_budget);
  json.Add("hold_calendar",
           1000 * static_cast<double>(hold_budget) / events_per_sec,
           static_cast<double>(hold_budget));
  std::printf("  %12.0f events/sec\n", events_per_sec);
  if (!smoke) {
    // Million-entry queue: the population a 1M-client scenario keeps
    // pending; the calendar's O(1) dequeue has to hold up here.
    const uint64_t big_pop = 1000000;
    const uint64_t big_budget = 4000000;
    std::printf("hold model, %llu-event population, %llu events:\n",
                static_cast<unsigned long long>(big_pop),
                static_cast<unsigned long long>(big_budget));
    const double rate = HoldModelEventsPerSec(big_pop, big_budget);
    json.Add("hold_1m_calendar",
             1000 * static_cast<double>(big_budget) / rate,
             static_cast<double>(big_budget));
    std::printf("  %12.0f events/sec\n", rate);
  }
  json.AddField("events_per_sec_calendar", events_per_sec);

  // --- end-to-end overload ---------------------------------------
  const double duration = smoke ? 30 : 300;
  const double clients = 3.0 * kBaselineClients;
  std::printf("\noverload 3x (%.0f clients, %.0f sim seconds, admission "
              "off):\n",
              clients, duration);
  const EndToEnd out = RunOverload(clients, duration, /*cohort=*/false,
                                   /*admission_on=*/false);
  json.Add("overload_3x_calendar", out.wall_ms,
           static_cast<double>(out.accesses));
  const double wall_sec = out.wall_ms / 1000.0;
  const double accesses_per_sec = static_cast<double>(out.accesses) / wall_sec;
  const double completions_per_sec =
      static_cast<double>(out.completions) / wall_sec;
  std::printf("  %8.1f ms  %12.0f accesses/sec  %10.0f completions/sec\n",
              out.wall_ms, accesses_per_sec, completions_per_sec);
  json.AddField("accesses_per_sec", accesses_per_sec);
  json.AddField("completions_per_sec", completions_per_sec);
  const double speedup = accesses_per_sec / kOverloadBaselinePerSec;
  json.AddField("speedup_vs_overload_baseline", speedup);

  // --- overload at 100x clients, batched cohorts -----------------
  const double scale = smoke ? 10 : 100;
  const double big_clients = scale * clients;
  const double big_duration = smoke ? 20 : 120;
  const EndToEnd big = RunOverload(big_clients, big_duration,
                                   /*cohort=*/true, /*admission_on=*/true);
  const double big_wall_sec = big.wall_ms / 1000.0;
  const double sim_wall_ratio =
      big_wall_sec > 0 ? big.sim_seconds / big_wall_sec : 0;
  json.Add("overload_100x", big.wall_ms, static_cast<double>(big.accesses));
  json.AddField("sim_wall_ratio_100x", sim_wall_ratio);
  std::printf("\noverload %.0fx (%.0f clients, cohorts, admission on): "
              "%.1f ms wall for %.0f sim seconds (%.1fx real time), "
              "%llu events\n",
              scale / 3.0 * 3, big_clients, big.wall_ms, big.sim_seconds,
              sim_wall_ratio, static_cast<unsigned long long>(big.events));

  json.WriteTo(json_path);

  std::printf("\naccesses/sec vs %.0fk baseline: %.2fx (target >= 10x)\n",
              kOverloadBaselinePerSec / 1000, speedup);
  std::printf("100x overload vs real time: %.1fx (target > 1x)\n",
              sim_wall_ratio);
  if (smoke) return 0;
  const bool holds = speedup >= 10 && sim_wall_ratio > 1;
  std::printf("shape %s\n", holds ? "HOLDS" : "VIOLATED");
  return holds ? 0 : 1;
}

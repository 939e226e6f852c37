// Overload-protection benchmark: goodput (completions inside the SLA
// per simulated second) with admission control on vs off, at 1.5x and
// 3x one replica's saturation client population. The paper's
// load balancer assumes the scheduler can always queue; this measures
// what the CoDel-style shedding layer buys back when it cannot. Emits
// BENCH_overload.json; the headline acceptance number is
// goodput_ratio_3x >= 1 (admission on must not lose goodput at 3x).
//
//   ./build/bench/bench_overload [output.json]

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "scenarios/harness.h"
#include "workload/tpcw.h"

namespace {

using namespace fglb;

constexpr double kDurationSeconds = 300;
// One replica saturates near 300 closed-loop clients (~310
// completions/s at TPC-W's 1s think time), so the factors below are
// genuine overload multiples, not just bigger comfortable populations.
constexpr double kBaselineClients = 300;
constexpr uint64_t kSeed = 31;

struct Outcome {
  double goodput = 0;     // within-SLA completions per simulated second
  double throughput = 0;  // completions per simulated second
  double shed_share = 0;  // shed / (completed + shed)
  double wall_ms = 0;
  uint64_t accesses = 0;  // engine page accesses
};

Outcome Run(double load_factor, bool admission_on) {
  SelectiveRetuner::Config config;
  config.enable_actions = false;  // frozen topology: admission only
  bench::AccessCounter counter;  // outlives the harness it observes
  ClusterHarness harness(config, /*observability=*/false);
  harness.AddServers(1);
  Scheduler* tpcw = harness.AddApplication(MakeTpcw());
  Replica* replica = harness.resources().CreateReplica(
      harness.resources().servers()[0].get(), 8192);
  tpcw->AddReplica(replica);
  if (admission_on) harness.EnableAdmission();
  harness.AddConstantClients(tpcw, load_factor * kBaselineClients, kSeed);
  harness.AttachRecorders(nullptr, &counter);

  const auto start = std::chrono::steady_clock::now();
  harness.Start();
  harness.RunFor(kDurationSeconds);
  Outcome out;
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  out.accesses = counter.accesses();
  out.goodput =
      static_cast<double>(tpcw->total_sla_ok()) / kDurationSeconds;
  out.throughput =
      static_cast<double>(tpcw->total_completed()) / kDurationSeconds;
  const double offered = static_cast<double>(tpcw->total_completed()) +
                         static_cast<double>(tpcw->total_shed());
  out.shed_share =
      offered > 0 ? static_cast<double>(tpcw->total_shed()) / offered : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_overload.json";
  bench::PrintHeader("Overload protection: goodput with admission on vs off");
  std::printf("TPC-W, 1 replica, %.0f simulated seconds, baseline %.0f "
              "clients\n\n",
              kDurationSeconds, kBaselineClients);

  bench::BenchJsonWriter json;
  std::printf("%-22s %10s %10s %10s\n", "configuration", "goodput/s",
              "compl/s", "shed%");
  double ratio_3x = 0;
  double goodput_on_3x = 0, goodput_off_3x = 0;
  for (const double factor : {1.5, 3.0}) {
    const Outcome off = Run(factor, false);
    const Outcome on = Run(factor, true);
    char name[48];
    std::snprintf(name, sizeof(name), "%.1fx_admission_off", factor);
    json.Add(name, off.wall_ms, static_cast<double>(off.accesses));
    std::printf("%-22s %10.1f %10.1f %9.1f%%\n", name, off.goodput,
                off.throughput, 100 * off.shed_share);
    std::snprintf(name, sizeof(name), "%.1fx_admission_on", factor);
    json.Add(name, on.wall_ms, static_cast<double>(on.accesses));
    std::printf("%-22s %10.1f %10.1f %9.1f%%\n", name, on.goodput,
                on.throughput, 100 * on.shed_share);

    char field[48];
    std::snprintf(field, sizeof(field), "goodput_off_%.1fx", factor);
    json.AddField(field, off.goodput);
    std::snprintf(field, sizeof(field), "goodput_on_%.1fx", factor);
    json.AddField(field, on.goodput);
    if (factor == 3.0) {
      goodput_off_3x = off.goodput;
      goodput_on_3x = on.goodput;
      ratio_3x = off.goodput > 0 ? on.goodput / off.goodput : 0;
    }
  }
  json.AddField("goodput_ratio_3x", ratio_3x);
  json.WriteTo(json_path);

  std::printf("\ngoodput at 3x, admission on vs off: %.1f vs %.1f "
              "(%.2fx)\n",
              goodput_on_3x, goodput_off_3x, ratio_3x);
  const bool holds = goodput_on_3x >= goodput_off_3x;
  std::printf("admission >= unprotected goodput at 3x: %s\n",
              holds ? "yes" : "NO");
  std::printf("shape %s\n", holds ? "HOLDS" : "VIOLATED");
  return holds ? 0 : 1;
}

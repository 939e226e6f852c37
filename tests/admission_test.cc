// Overload-protection subsystem: CoDel-style per-replica shedding,
// per-(class, replica) circuit breakers, the bounded retry budget, the
// scheduler's breaker-aware routing fallback, and the end-to-end claim
// the subsystem exists for — at 3x overload, admission control keeps at
// least one query class inside its SLA and raises goodput instead of
// letting every class fail together. All of it deterministic: the last
// test replays a captured overload run and requires the admission trace
// to come back byte for byte.

#include "cluster/admission.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/json.h"
#include "replay/capture.h"
#include "replay/replayer.h"
#include "run_and_capture.h"
#include "scenarios/harness.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

JsonValue MustParse(const std::string& line) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(JsonValue::Parse(line, &value, &error))
      << error << " in: " << line;
  return value;
}

// The phase=admission events of a buffered trace, optionally narrowed
// to one transition kind.
std::vector<JsonValue> AdmissionEvents(const std::vector<std::string>& lines,
                                       const std::string& kind = "") {
  std::vector<JsonValue> events;
  for (const std::string& line : lines) {
    JsonValue event = MustParse(line);
    if (event.StringOr("phase", "") != "admission") continue;
    if (!kind.empty() && event.StringOr("kind", "") != kind) continue;
    events.push_back(std::move(event));
  }
  return events;
}

TEST(AdmissionControllerTest, CodelShedsWorstClassFirstAndRecovers) {
  Simulator sim;
  AdmissionConfig config;
  config.target_delay = 0.5;
  config.codel_interval_seconds = 5;
  AdmissionController admission(&sim, config);
  TraceLog trace;
  trace.EnableBuffering();
  admission.BindObservability(nullptr, &trace);
  admission.RegisterApp(1, 1.0);

  const ClassKey k1 = MakeClassKey(1, 1);
  const ClassKey k2 = MakeClassKey(1, 2);
  const ClassKey k3 = MakeClassKey(1, 3);

  // A window where even the *best* completion sits above target, with
  // class 3 the furthest over its SLA.
  sim.ScheduleAt(1, [&] {
    admission.OnComplete(k1, 0, 0.8);
    admission.OnComplete(k2, 0, 1.5);
    admission.OnComplete(k3, 0, 3.0);
  });
  sim.ScheduleAt(7, [&] {
    // Rolling the elapsed window sheds exactly one class: the worst.
    EXPECT_EQ(admission.Admit(k1, 0, 0).decision,
              AdmissionController::Decision::kAdmit);
    EXPECT_EQ(admission.KeepCount(0), 2);
    EXPECT_FALSE(admission.IsShed(k1, 0));
    EXPECT_FALSE(admission.IsShed(k2, 0));
    EXPECT_TRUE(admission.IsShed(k3, 0));
    const auto verdict = admission.Admit(k3, 0, 0);
    EXPECT_EQ(verdict.decision, AdmissionController::Decision::kShed);
    EXPECT_STREQ(verdict.reason, "codel");
  });
  // A clean window restores the shed class.
  sim.ScheduleAt(8, [&] {
    admission.OnComplete(k1, 0, 0.2);
    admission.OnComplete(k2, 0, 0.2);
  });
  sim.ScheduleAt(13, [&] {
    EXPECT_EQ(admission.Admit(k3, 0, 0).decision,
              AdmissionController::Decision::kAdmit);
    EXPECT_EQ(admission.KeepCount(0), 3);
    EXPECT_FALSE(admission.IsShed(k3, 0));
  });
  sim.RunToCompletion();

  // Both transitions are visible as phase=admission shed_level events.
  const auto levels = AdmissionEvents(trace.BufferedLines(), "shed_level");
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[0].StringOr("why", ""), "overload");
  EXPECT_DOUBLE_EQ(levels[0].NumberOr("keep", -1), 2);
  EXPECT_EQ(levels[1].StringOr("why", ""), "recovery");
  EXPECT_DOUBLE_EQ(levels[1].NumberOr("keep", -1), 3);
  EXPECT_EQ(admission.shed(), 1u);
}

TEST(AdmissionControllerTest, FullQueueShedsRegardlessOfLatency) {
  Simulator sim;
  AdmissionConfig config;
  config.max_queue_depth = 4;
  AdmissionController admission(&sim, config);
  MetricsRegistry metrics;
  admission.BindObservability(&metrics, nullptr);
  admission.RegisterApp(1, 1.0);

  const ClassKey key = MakeClassKey(1, 1);
  EXPECT_EQ(admission.Admit(key, 0, 3).decision,
            AdmissionController::Decision::kAdmit);
  const auto verdict = admission.Admit(key, 0, 4);
  EXPECT_EQ(verdict.decision, AdmissionController::Decision::kShed);
  EXPECT_STREQ(verdict.reason, "queue_full");
  EXPECT_EQ(metrics.counter("admission.shed.queue_full")->value(), 1u);
  EXPECT_EQ(metrics.counter("admission.admitted")->value(), 1u);
}

TEST(AdmissionControllerTest, BreakerTripsHalfOpensClosesAndReopens) {
  Simulator sim;
  AdmissionConfig config;
  config.breaker_failure_threshold = 3;
  config.breaker_open_seconds = 10;
  config.breaker_half_open_probes = 2;
  config.timeout_factor = 8;  // failure = latency > 8s at a 1s SLA
  AdmissionController admission(&sim, config);
  MetricsRegistry metrics;
  TraceLog trace;
  trace.EnableBuffering();
  admission.BindObservability(&metrics, &trace);
  admission.RegisterApp(1, 1.0);
  const ClassKey key = MakeClassKey(1, 1);

  // Three consecutive timeouts trip the breaker open: the replica is
  // routed around but never shed against (single-replica safety).
  for (int i = 0; i < 3; ++i) admission.OnComplete(key, 0, 9.0);
  EXPECT_TRUE(admission.BreakerOpen(0));
  EXPECT_FALSE(admission.RouteAllowed(key, 0));
  EXPECT_EQ(metrics.counter("admission.breaker.trips")->value(), 1u);

  sim.ScheduleAt(11, [&] {
    // Open window elapsed: half-open, both probes admitted as probes,
    // two successes close the breaker.
    EXPECT_TRUE(admission.RouteAllowed(key, 0));
    EXPECT_EQ(admission.Admit(key, 0, 0).decision,
              AdmissionController::Decision::kProbe);
    admission.OnComplete(key, 0, 0.4);
    EXPECT_EQ(admission.Admit(key, 0, 0).decision,
              AdmissionController::Decision::kProbe);
    admission.OnComplete(key, 0, 0.4);
    EXPECT_FALSE(admission.BreakerOpen(0));
    EXPECT_TRUE(admission.RouteAllowed(key, 0));
    EXPECT_EQ(admission.Admit(key, 0, 0).decision,
              AdmissionController::Decision::kAdmit);
    EXPECT_EQ(metrics.counter("admission.breaker.half_opens")->value(), 1u);
    EXPECT_EQ(metrics.counter("admission.breaker.closes")->value(), 1u);

    // Trip again; this time the half-open probe fails and re-opens.
    for (int i = 0; i < 3; ++i) admission.OnComplete(key, 0, 9.0);
    EXPECT_TRUE(admission.BreakerOpen(0));
  });
  sim.ScheduleAt(22, [&] {
    EXPECT_EQ(admission.Admit(key, 0, 0).decision,
              AdmissionController::Decision::kProbe);
    admission.OnComplete(key, 0, 9.0);
    EXPECT_TRUE(admission.BreakerOpen(0));
    EXPECT_FALSE(admission.RouteAllowed(key, 0));
    EXPECT_EQ(metrics.counter("admission.breaker.reopens")->value(), 1u);
  });
  sim.RunToCompletion();

  // The whole lifecycle is visible as phase=admission events.
  const std::vector<std::string> lines = trace.BufferedLines();
  EXPECT_EQ(AdmissionEvents(lines, "trip").size(), 2u);
  EXPECT_EQ(AdmissionEvents(lines, "half_open").size(), 2u);
  EXPECT_EQ(AdmissionEvents(lines, "probe").size(), 3u);
  EXPECT_EQ(AdmissionEvents(lines, "close").size(), 1u);
  EXPECT_EQ(AdmissionEvents(lines, "reopen").size(), 1u);
}

TEST(AdmissionControllerTest, RetryBudgetExhaustsAndRefills) {
  Simulator sim;
  AdmissionConfig config;
  config.retry_budget_ratio = 0.5;
  config.retry_burst = 2;
  AdmissionController admission(&sim, config);
  MetricsRegistry metrics;
  TraceLog trace;
  trace.EnableBuffering();
  admission.BindObservability(&metrics, &trace);
  admission.RegisterApp(1, 1.0);
  const ClassKey key = MakeClassKey(1, 1);

  // 4 admits accrue 0.5 tokens each, capped at the burst of 2.
  for (int i = 0; i < 4; ++i) admission.Admit(key, 0, 0);
  EXPECT_DOUBLE_EQ(admission.RetryTokens(1), 2.0);
  EXPECT_TRUE(admission.TryRetry(1));
  EXPECT_TRUE(admission.TryRetry(1));
  EXPECT_FALSE(admission.TryRetry(1));
  EXPECT_FALSE(admission.TryRetry(1));
  EXPECT_EQ(metrics.counter("admission.retry.granted")->value(), 2u);
  EXPECT_EQ(metrics.counter("admission.retry.denied")->value(), 2u);
  // The exhaustion transition traces once, not once per denial.
  EXPECT_EQ(AdmissionEvents(trace.BufferedLines(), "retry_exhausted").size(),
            1u);

  // Fresh admitted traffic refills the bucket and re-arms the note.
  for (int i = 0; i < 2; ++i) admission.Admit(key, 0, 0);
  EXPECT_TRUE(admission.TryRetry(1));
  EXPECT_FALSE(admission.TryRetry(1));
  EXPECT_EQ(AdmissionEvents(trace.BufferedLines(), "retry_exhausted").size(),
            2u);
}

// A read-only TPC-W template, for building QueryInstances by hand.
const QueryTemplate* FirstReadTemplate(const ApplicationSpec& app) {
  for (const QueryTemplate& tmpl : app.templates) {
    if (!tmpl.is_update) return &tmpl;
  }
  return nullptr;
}

TEST(AdmissionSchedulerTest, PickReplicaFallsBackWhenEveryReplicaExcluded) {
  ClusterHarness h;
  h.AddServers(2);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  Replica* a = h.resources().CreateReplica(h.resources().servers()[0].get(),
                                           8192);
  Replica* b = h.resources().CreateReplica(h.resources().servers()[1].get(),
                                           8192, 2);
  tpcw->AddReplica(a);
  tpcw->AddReplica(b);
  AdmissionConfig config;
  config.breaker_failure_threshold = 1;
  AdmissionController* admission = h.EnableAdmission(config);

  QueryInstance q;
  q.app = tpcw->app().id;
  q.tmpl = FirstReadTemplate(tpcw->app());
  ASSERT_NE(q.tmpl, nullptr);

  // One timed-out completion per replica trips both breakers for the
  // class: the routing filter now excludes every candidate.
  admission->OnComplete(q.class_key(), a->id(), 100.0);
  admission->OnComplete(q.class_key(), b->id(), 100.0);
  EXPECT_FALSE(admission->RouteAllowed(q.class_key(), a->id()));
  EXPECT_FALSE(admission->RouteAllowed(q.class_key(), b->id()));

  // Degraded routing beats no routing: the scheduler falls back to the
  // unfiltered least-loaded choice and records that it had to.
  Replica* picked = tpcw->PickReplica(q);
  ASSERT_NE(picked, nullptr);
  EXPECT_TRUE(picked == a || picked == b);
  EXPECT_EQ(h.metrics().counter("admission.no_replica_available")->value(),
            1u);
  tpcw->PickReplica(q);
  EXPECT_EQ(h.metrics().counter("admission.no_replica_available")->value(),
            2u);
}

struct OverloadOutcome {
  uint64_t sla_ok = 0;     // completions inside the SLA (goodput)
  uint64_t completed = 0;
  uint64_t shed = 0;
  bool class_within_sla = false;  // any busy class with avg <= SLA
};

// One server, one replica, 3x its saturation client population (one
// replica saturates near 300 closed-loop clients at TPC-W's 1s think
// time) — the fglb_sim overload scenario's shape.
OverloadOutcome RunOverload(bool admission_on, double duration) {
  SelectiveRetuner::Config config;
  config.enable_actions = false;  // frozen topology: admission only
  ClusterHarness h(config, /*observability=*/false);
  h.AddServers(1);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  Replica* r = h.resources().CreateReplica(h.resources().servers()[0].get(),
                                           8192);
  tpcw->AddReplica(r);
  if (admission_on) h.EnableAdmission();
  h.AddConstantClients(tpcw, 900, /*seed=*/31);
  h.Start();
  h.RunFor(duration);

  OverloadOutcome out;
  out.sla_ok = tpcw->total_sla_ok();
  out.completed = tpcw->total_completed();
  out.shed = tpcw->total_shed();
  const double sla = tpcw->app().sla_latency_seconds;
  for (const auto& [cls, stats] : tpcw->class_stats()) {
    if (stats.completed >= 50 &&
        stats.latency_sum / static_cast<double>(stats.completed) <= sla) {
      out.class_within_sla = true;
    }
  }
  return out;
}

TEST(AdmissionOverloadTest, ThreeTimesOverloadKeepsAClassInSlaAndGoodputUp) {
  const OverloadOutcome off = RunOverload(false, 300);
  const OverloadOutcome on = RunOverload(true, 300);

  // The unprotected run is genuinely drowning, or the comparison is
  // meaningless.
  ASSERT_GT(off.completed, 0u);
  EXPECT_LT(off.sla_ok, off.completed / 2);

  // Admission control sheds instead of queueing without bound...
  EXPECT_GT(on.shed, 0u);
  // ...which keeps at least one class meeting its SLA on average and
  // buys strictly more within-SLA completions overall.
  EXPECT_TRUE(on.class_within_sla);
  EXPECT_GT(on.sla_ok, off.sla_ok);
}

TEST(AdmissionOverloadTest, SustainedSheddingEscalatesToProvisioning) {
  ClusterHarness h;  // actions enabled
  h.AddServers(2);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  Replica* r = h.resources().CreateReplica(h.resources().servers()[0].get(),
                                           8192);
  tpcw->AddReplica(r);
  h.EnableAdmission();
  h.AddConstantClients(tpcw, 900, /*seed=*/33);
  h.Start();
  h.RunFor(120);

  // The retuner reads the shed share off the interval report and goes
  // straight to capacity: no point diagnosing cache interference when
  // the cluster is refusing a quarter of its offered load.
  bool escalated = false;
  for (const auto& action : h.retuner().actions()) {
    if (action.kind == SelectiveRetuner::ActionKind::kCpuProvision &&
        action.description.rfind("overload:", 0) == 0) {
      escalated = true;
    }
  }
  EXPECT_TRUE(escalated);
  EXPECT_GE(tpcw->replicas().size(), 2u);
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// phase=admission projection of a buffered trace with the wall-clock
// header stripped: the byte-identity contract for replayed admission
// decisions (seq stays — admission events must interleave identically
// with every other phase).
std::vector<std::string> AdmissionProjection(
    const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    JsonValue event = MustParse(line);
    if (event.StringOr("phase", "") != "admission") continue;
    event.object.erase("mono_us");
    out.push_back(event.Dump());
  }
  return out;
}

TEST(AdmissionReplayTest, OverloadCaptureReplaysAdmissionTraceByteIdentical) {
  const std::string path = TempPath("fglb_admission_overload.fglbcap");
  const double duration = 240;
  const uint64_t seed = 31;

  std::vector<std::string> live_admission;
  uint64_t live_shed = 0;
  {
    // fglb_sim --scenario=overload --servers=2: 900 TPC-W clients on
    // one replica with admission on.
    RunConfig run = ScenarioRunConfig(Scenario::kOverload, duration);
    run.seed = seed;
    run.servers = 2;
    const std::unique_ptr<ClusterHarness> harness = RunAndCapture(run, path);
    live_admission = AdmissionProjection(harness->trace().BufferedLines());
    live_shed = harness->schedulers()[0]->total_shed();
  }
  // The live run must actually shed and trace, or byte-equality of
  // empty projections would prove nothing.
  ASSERT_GT(live_shed, 0u);
  ASSERT_FALSE(live_admission.empty());

  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;
  EXPECT_TRUE(capture.run.admission);
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  ASSERT_TRUE(runner.Build(&error)) << error;
  ASSERT_NE(runner.harness()->admission(), nullptr);
  runner.harness()->trace().EnableBuffering();
  ASSERT_TRUE(runner.Run(&error)) << error;
  EXPECT_EQ(runner.source()->misses(), 0u);

  const std::vector<std::string> replayed =
      AdmissionProjection(runner.harness()->trace().BufferedLines());
  ASSERT_EQ(replayed.size(), live_admission.size());
  for (size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i], live_admission[i]) << "admission event " << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fglb

// fglb_sim: command-line scenario runner. Resolves its flags into one
// RunConfig, builds that run with the scenario builder
// (scenarios/scenario.h), runs it for the requested simulated duration,
// and prints the interval series / action log as a table or CSV.
//
//   ./build/tools/fglb_sim --scenario=consolidation --duration=1800
//   ./build/tools/fglb_sim --scenario=burst --output=samples-csv > s.csv
//   ./build/tools/fglb_sim --scenario=chaos-replica --fault-seed=7
//       --trace-out=trace.jsonl

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/kv_spec.h"
#include "common/logging.h"
#include "replay/capture.h"
#include "scenarios/cli_options.h"
#include "scenarios/report.h"
#include "scenarios/scenario.h"

using namespace fglb;

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  CliOptions options;
  std::string error;
  if (!ParseCliOptions(args, &options, &error)) {
    std::fprintf(stderr, "error: %s\n%s", error.c_str(),
                 CliUsage().c_str());
    return 2;
  }
  if (options.help) {
    std::printf("%s", CliUsage().c_str());
    return 0;
  }

  LogLevel level = LogLevel::kInfo;
  ParseLogLevel(options.log_level, &level);  // validated by the parser
  SetGlobalLogLevel(level);

  RunConfig run;
  if (!RunConfigFromCli(options, &run, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  std::unique_ptr<ClusterHarness> harness_owner =
      MakeHarness(run, options.mrc_threads);
  ClusterHarness& harness = *harness_owner;
  if (run.tier2_pages > 0) {
    LogInfo("second tier on: %llu pages, %s us per hit, demote %s",
            static_cast<unsigned long long>(run.tier2_pages),
            FormatKvNumber(run.tier2_read_us).c_str(),
            run.tier2_demote ? "on" : "off");
  }
  if (!options.trace_out.empty()) {
    if (!harness.trace().OpenFile(options.trace_out, &error)) {
      LogError("cannot open --trace-out file: %s", error.c_str());
      return 1;
    }
    LogDebug("decision trace -> %s", options.trace_out.c_str());
  }
  if (options.metrics_interval_seconds > 0) {
    harness.StartMetricsSampler(options.metrics_interval_seconds);
  }
  AssembleScenario(run, &harness);
  if (!ArmRun(run, &harness, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (run.admission) LogInfo("overload protection on");
  if (SpanTracer* spans = harness.span_tracer()) {
    if (!options.spans_out.empty()) {
      if (!spans->OpenFile(options.spans_out, &error)) {
        LogError("cannot open --spans-out file: %s", error.c_str());
        return 1;
      }
      LogDebug("span timelines -> %s", options.spans_out.c_str());
    }
    LogInfo("span tracing on: 1 in %llu queries",
            static_cast<unsigned long long>(spans->config().sample_every));
  }
  if (run.ckpt_interval_seconds > 0) {
    LogInfo("controller checkpointing on: every %.0f s",
            run.ckpt_interval_seconds);
  }
  if (harness.fault_injector() != nullptr) {
    LogInfo("fault schedule armed: %s (seed %llu)",
            harness.fault_injector()->spec().ToString().c_str(),
            static_cast<unsigned long long>(run.fault_seed));
  }
  std::unique_ptr<CaptureWriter> capture_writer;
  if (!options.capture_out.empty()) {
    capture_writer = std::make_unique<CaptureWriter>(&harness.sim());
    if (!capture_writer->Open(options.capture_out, run, &error)) {
      LogError("cannot open --capture-out file: %s", error.c_str());
      return 1;
    }
    harness.AttachRecorders(capture_writer.get(), capture_writer.get());
    LogDebug("workload capture -> %s", options.capture_out.c_str());
  }
  harness.Start();
  LogInfo("scenario assembled: %d servers, %.0f simulated seconds",
          run.servers, run.duration_seconds);
  harness.RunFor(run.duration_seconds);

  const auto& retuner = harness.retuner();
  LogInfo("run complete: %zu intervals, %zu actions, %zu diagnoses",
          retuner.samples().size(), retuner.actions().size(),
          retuner.diagnoses().size());
  if (harness.admission() != nullptr) {
    uint64_t completed = 0;
    uint64_t sla_ok = 0;
    uint64_t shed = 0;
    for (const auto& s : harness.schedulers()) {
      completed += s->total_completed();
      sla_ok += s->total_sla_ok();
      shed += s->total_shed();
    }
    LogInfo("admission: %llu admitted, %llu shed; %llu of %llu "
            "completions within SLA",
            static_cast<unsigned long long>(harness.admission()->admitted()),
            static_cast<unsigned long long>(shed),
            static_cast<unsigned long long>(sla_ok),
            static_cast<unsigned long long>(completed));
  }
  if (harness.fault_injector() != nullptr) {
    LogInfo("faults injected: %llu (%llu no-op)",
            static_cast<unsigned long long>(
                harness.fault_injector()->faults_injected()),
            static_cast<unsigned long long>(
                harness.fault_injector()->noop_faults()));
  }
  if (capture_writer != nullptr) {
    if (!capture_writer->Finalize(retuner.actions(), retuner.samples())) {
      LogError("write error finalizing --capture-out file");
      return 1;
    }
    LogInfo("capture: %llu arrivals, %llu executions, %llu accesses, "
            "%llu bytes",
            static_cast<unsigned long long>(
                capture_writer->arrivals_recorded()),
            static_cast<unsigned long long>(
                capture_writer->executions_recorded()),
            static_cast<unsigned long long>(
                capture_writer->accesses_recorded()),
            static_cast<unsigned long long>(capture_writer->bytes_written()));
  }
  if (!options.trace_out.empty()) {
    LogDebug("trace events emitted: %llu",
             static_cast<unsigned long long>(
                 harness.trace().events_emitted()));
    harness.trace().Close();
  }
  if (harness.span_tracer() != nullptr) {
    SpanTracer* spans = harness.span_tracer();
    spans->Close();
    LogInfo("spans: %llu of %llu queries sampled, %llu finished",
            static_cast<unsigned long long>(spans->sampled()),
            static_cast<unsigned long long>(spans->sequence()),
            static_cast<unsigned long long>(spans->finished()));
  }
  if (!options.metrics_out.empty()) {
    if (!harness.metrics().WriteJson(options.metrics_out)) {
      LogError("cannot write --metrics-out file: %s",
               options.metrics_out.c_str());
      return 1;
    }
    LogDebug("metrics snapshot -> %s", options.metrics_out.c_str());
  }
  switch (options.output) {
    case CliOptions::Output::kTable:
      std::printf("%s", FormatSamplesTable(retuner.samples()).c_str());
      std::printf("\nactions:\n%s", FormatActions(retuner.actions()).c_str());
      std::printf("\ndiagnoses:\n%s",
                  FormatDiagnoses(retuner.diagnoses()).c_str());
      break;
    case CliOptions::Output::kSamplesCsv:
      std::printf("%s", SamplesCsv(retuner.samples()).c_str());
      break;
    case CliOptions::Output::kActionsCsv:
      std::printf("%s", ActionsCsv(retuner.actions()).c_str());
      break;
    case CliOptions::Output::kServersCsv:
      std::printf("%s", ServerUtilizationCsv(retuner.samples()).c_str());
      break;
  }
  return 0;
}

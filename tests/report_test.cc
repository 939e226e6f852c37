#include "scenarios/report.h"

#include <gtest/gtest.h>

#include "common/csv.h"
#include "scenarios/cli_options.h"
#include "scenarios/scenario.h"

namespace fglb {
namespace {

std::vector<SelectiveRetuner::IntervalSample> SampleSeries() {
  std::vector<SelectiveRetuner::IntervalSample> samples;
  for (int i = 1; i <= 3; ++i) {
    SelectiveRetuner::IntervalSample s;
    s.time = 10.0 * i;
    SelectiveRetuner::AppSample app;
    app.app = 1;
    app.queries = 100u * static_cast<unsigned>(i);
    app.avg_latency = 0.1 * i;
    app.p95_latency = 0.2 * i;
    app.throughput = 10.0 * i;
    app.sla_met = i != 2;
    app.servers_used = i;
    s.apps.push_back(app);
    SelectiveRetuner::ServerSample server;
    server.server_id = 0;
    server.cpu_utilization = 0.25 * i;
    server.io_utilization = 0.1 * i;
    s.servers.push_back(server);
    samples.push_back(s);
  }
  return samples;
}

int CountLines(const std::string& text) {
  int lines = 0;
  for (char c : text) lines += (c == '\n');
  return lines;
}

TEST(ReportTest, SamplesCsvShape) {
  const std::string csv = SamplesCsv(SampleSeries());
  EXPECT_EQ(CountLines(csv), 4);  // header + 3 rows
  EXPECT_EQ(csv.rfind("time_s,app,queries", 0), 0u);
  EXPECT_NE(csv.find("20.0,1,200,"), std::string::npos);
  // The SLA violation row: sla_met=0, servers_used=2.
  EXPECT_NE(csv.find(",0,2\n"), std::string::npos);
}

TEST(ReportTest, ServerUtilizationCsvShape) {
  const std::string csv = ServerUtilizationCsv(SampleSeries());
  EXPECT_EQ(CountLines(csv), 4);
  EXPECT_EQ(csv.rfind("time_s,server,", 0), 0u);
  EXPECT_NE(csv.find("30.0,0,0.7500,0.3000"), std::string::npos);
}

TEST(ReportTest, TableContainsViolationMarker) {
  const std::string table = FormatSamplesTable(SampleSeries());
  EXPECT_NE(table.find("VIO"), std::string::npos);
  EXPECT_NE(table.find("ok"), std::string::npos);
}

TEST(ReportTest, ActionsCsvQuotesDescriptions) {
  std::vector<SelectiveRetuner::Action> actions;
  SelectiveRetuner::Action a;
  a.time = 42;
  a.kind = SelectiveRetuner::ActionKind::kQuotaEnforced;
  a.app = 2;
  a.description = "quota, with \"quotes\" and, commas";
  actions.push_back(a);
  const std::string csv = ActionsCsv(actions);
  EXPECT_NE(csv.find("\"quota, with \"\"quotes\"\" and, commas\""),
            std::string::npos);
  EXPECT_NE(csv.find("quota_enforced"), std::string::npos);
}

TEST(CsvQuoteTest, PlainFieldsPassThroughUnquoted) {
  EXPECT_EQ(CsvQuote("plain"), "plain");
  EXPECT_EQ(CsvQuote(""), "");
  EXPECT_EQ(CsvQuote("semicolons; are fine"), "semicolons; are fine");
}

TEST(CsvQuoteTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(CsvQuote("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvQuote("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(CsvQuote("cr\rhere"), "\"cr\rhere\"");
}

TEST(CsvQuoteTest, EdgeShapes) {
  EXPECT_EQ(CsvQuote("\""), "\"\"\"\"");
  EXPECT_EQ(CsvQuote(","), "\",\"");
  EXPECT_EQ(CsvQuote("trailing,"), "\"trailing,\"");
}

TEST(ReportTest, EmptyInputsGiveHeadersOnly) {
  EXPECT_EQ(CountLines(SamplesCsv({})), 1);
  EXPECT_EQ(CountLines(ActionsCsv({})), 1);
  EXPECT_TRUE(FormatActions({}).empty());
  EXPECT_TRUE(FormatDiagnoses({}).empty());
}

TEST(CliOptionsTest, DefaultsWhenNoArgs) {
  CliOptions options;
  std::string error;
  ASSERT_TRUE(ParseCliOptions({}, &options, &error));
  EXPECT_TRUE(options.run_flags.empty());
  EXPECT_EQ(options.output, CliOptions::Output::kTable);
  RunConfig run;
  ASSERT_TRUE(RunConfigFromCli(options, &run, &error)) << error;
  EXPECT_EQ(run.scenario, Scenario::kSteady);
  EXPECT_EQ(run.servers, 4);
}

TEST(CliOptionsTest, ParsesEqualsAndSpaceForms) {
  CliOptions options;
  std::string error;
  ASSERT_TRUE(ParseCliOptions({"--scenario=consolidation", "--servers", "7",
                               "--duration=1200.5", "--seed", "99"},
                              &options, &error))
      << error;
  const std::map<std::string, std::string> given = {
      {"duration", "1200.5"},
      {"scenario", "consolidation"},
      {"seed", "99"},
      {"servers", "7"}};
  EXPECT_EQ(options.run_flags, given);
  RunConfig run;
  ASSERT_TRUE(RunConfigFromCli(options, &run, &error)) << error;
  EXPECT_EQ(run.scenario, Scenario::kConsolidation);
  EXPECT_EQ(run.servers, 7);
  EXPECT_DOUBLE_EQ(run.duration_seconds, 1200.5);
  EXPECT_EQ(run.seed, 99u);
}

TEST(CliOptionsTest, RejectsUnknownOption) {
  CliOptions options;
  std::string error;
  EXPECT_FALSE(ParseCliOptions({"--bogus=1"}, &options, &error));
  EXPECT_NE(error.find("unknown option"), std::string::npos);
}

TEST(CliOptionsTest, RejectsBadValues) {
  CliOptions options;
  std::string error;
  EXPECT_FALSE(ParseCliOptions({"--servers=0"}, &options, &error));
  EXPECT_FALSE(ParseCliOptions({"--servers=two"}, &options, &error));
  EXPECT_FALSE(ParseCliOptions({"--duration=-5"}, &options, &error));
  EXPECT_FALSE(ParseCliOptions({"--scenario=nope"}, &options, &error));
  EXPECT_FALSE(ParseCliOptions({"--output=xml"}, &options, &error));
}

TEST(CliOptionsTest, MissingValueIsAnError) {
  CliOptions options;
  std::string error;
  EXPECT_FALSE(ParseCliOptions({"--servers"}, &options, &error));
  EXPECT_NE(error.find("missing value"), std::string::npos);
}

TEST(CliOptionsTest, HelpFlag) {
  CliOptions options;
  std::string error;
  ASSERT_TRUE(ParseCliOptions({"--help"}, &options, &error));
  EXPECT_TRUE(options.help);
  EXPECT_NE(CliUsage().find("--scenario"), std::string::npos);
}

TEST(CliOptionsTest, PositionalArgumentRejected) {
  CliOptions options;
  std::string error;
  EXPECT_FALSE(ParseCliOptions({"steady"}, &options, &error));
}

TEST(CliOptionsTest, ObservabilityFlags) {
  CliOptions options;
  std::string error;
  ASSERT_TRUE(ParseCliOptions({"--trace-out=t.jsonl", "--metrics-out",
                               "m.json", "--metrics-interval=5",
                               "--log-level=debug"},
                              &options, &error))
      << error;
  EXPECT_EQ(options.trace_out, "t.jsonl");
  EXPECT_EQ(options.metrics_out, "m.json");
  EXPECT_DOUBLE_EQ(options.metrics_interval_seconds, 5);
  EXPECT_EQ(options.log_level, "debug");
}

TEST(CliOptionsTest, ObservabilityDefaultsOff) {
  CliOptions options;
  std::string error;
  ASSERT_TRUE(ParseCliOptions({}, &options, &error));
  EXPECT_TRUE(options.trace_out.empty());
  EXPECT_TRUE(options.metrics_out.empty());
  EXPECT_DOUBLE_EQ(options.metrics_interval_seconds, 0);
  EXPECT_EQ(options.log_level, "info");
}

TEST(CliOptionsTest, RejectsBadObservabilityValues) {
  CliOptions options;
  std::string error;
  EXPECT_FALSE(ParseCliOptions({"--log-level=loud"}, &options, &error));
  EXPECT_FALSE(ParseCliOptions({"--metrics-interval=-1"}, &options, &error));
  EXPECT_FALSE(ParseCliOptions({"--trace-out="}, &options, &error));
}

}  // namespace
}  // namespace fglb

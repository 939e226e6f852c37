// The one run config and the one k=v spec grammar under it: RunConfig
// is fglb_sim's fully resolved run, one flat row per knob, which a
// capture stores and a replay rebuilds, so its text form must be exact
// (a seeded property test over every row), strict (malformed lines and
// a bad value for every row are rejected, naming the key), and must
// hold fglb_sim's per-scenario defaults. fglb_sim's run flags are the
// same rows: each flag changes exactly its own row, and the --help
// text names exactly the flags the parser takes.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/kv_spec.h"
#include "scenarios/cli_options.h"
#include "scenarios/run_config.h"
#include "scenarios/scenario.h"
#include "text_mutator.h"

namespace fglb {
namespace {

const Scenario kAllScenarios[] = {
    Scenario::kSteady,       Scenario::kBurst,     Scenario::kConsolidation,
    Scenario::kIoContention, Scenario::kChaosReplica, Scenario::kChaosDisk,
    Scenario::kChaosNet,     Scenario::kChaosCtl,  Scenario::kOverload,
    Scenario::kTierThrash,   Scenario::kTierFail,  Scenario::kColdStart,
};

// The rows as (key, printed value), in table order.
KvItems Rows(const RunConfig& run) {
  KvItems items;
  std::string error;
  EXPECT_TRUE(SplitKvSpec(run.ToString(), '\n', "run config", &items, &error))
      << error;
  return items;
}

// The keys whose printed values differ between two configs.
std::set<std::string> ChangedRows(const RunConfig& a, const RunConfig& b) {
  const KvItems x = Rows(a);
  const KvItems y = Rows(b);
  std::set<std::string> changed;
  for (size_t i = 0; i < x.size() && i < y.size(); ++i) {
    if (x[i] != y[i]) changed.insert(x[i].first);
  }
  return changed;
}

TEST(KvSpecTest, NumbersPrintShortestAndValuesParseStrictly) {
  // Round values print as "%g" printed them; others keep every digit.
  EXPECT_EQ(FormatKvNumber(0.5), "0.5");
  EXPECT_EQ(FormatKvNumber(16384), "16384");
  EXPECT_EQ(FormatKvNumber(123.4567), "123.4567");
  double number = 7;
  for (const char* bad : {"", " 1", "1x", "inf", "nan", "1e999"}) {
    EXPECT_FALSE(ParseKvNumber(bad, &number)) << "'" << bad << "'";
  }
  uint64_t count = 7;
  for (const char* bad : {"-5", "+5", "1.0", "18446744073709551616"}) {
    EXPECT_FALSE(ParseKvCount(bad, &count)) << "'" << bad << "'";
  }
  int small = 7;
  EXPECT_FALSE(ParseKvCount("2147483648", &small));
  EXPECT_EQ(number, 7);
  EXPECT_EQ(count, 7u);
  EXPECT_EQ(small, 7);
}

// --- one grammar: malformed lines are rejected naming the token ---

TEST(SpecGrammarTest, EveryParserRejectsMalformedInputNamingTheToken) {
  // RunConfig::Parse and FaultSpec::Parse are the grammar's two
  // readers; FaultSpecTest covers the fault spec's own table.
  RunConfig sentinel;
  sentinel.seed = 77;
  const std::string item = "seed=5";
  const std::pair<std::string, std::string> cases[] = {
      {item + "\n", "trailing newline"},
      {"\n" + item, "empty run config item"},
      {item + "\n\n" + item, "empty run config item"},
      {"seed", "run config item lacks '=': seed"},
      {"=5", "run config item has an empty key: =5"},
      {item + "\n" + item, "duplicate run config key: seed"},
      {"bogus=1", "unknown run config key: bogus"},
  };
  for (const auto& [text, token] : cases) {
    RunConfig out = sentinel;
    std::string error;
    EXPECT_FALSE(RunConfig::Parse(text, &out, &error)) << text;
    EXPECT_NE(error.find(token), std::string::npos) << text << " -> " << error;
    EXPECT_EQ(out, sentinel) << text;
  }
}

// --- exactness: random configs round-trip bit for bit ---

class Draw {
 public:
  explicit Draw(uint64_t seed) : rng_(seed) {}

  // A positive finite double with a full random mantissa, spanning
  // magnitudes 2^-30 .. 2^30.
  double Positive() {
    return std::ldexp(std::uniform_real_distribution<double>(1, 2)(rng_),
                      static_cast<int>(Count(0, 60)) - 30);
  }
  double NonNegative() { return Count(0, 9) == 0 ? 0 : Positive(); }
  // In (0, 1].
  double Unit() {
    double v = 0;
    while (v == 0) v = std::uniform_real_distribution<double>(0, 1)(rng_);
    return v;
  }
  uint64_t Count(uint64_t lo, uint64_t hi) {
    return std::uniform_int_distribution<uint64_t>(lo, hi)(rng_);
  }
  bool Coin() { return Count(0, 1) == 1; }

 private:
  std::mt19937_64 rng_;
};

// Every row drawn from its whole valid range.
RunConfig RandomRun(Draw& draw) {
  // Scenario defaults first, so the fault spec is a real schedule.
  RunConfig c = ScenarioRunConfig(kAllScenarios[draw.Count(0, 11)], 600);
  c.duration_seconds = draw.Positive();
  c.seed = draw.Count(0, UINT64_MAX);
  c.fault_seed = draw.Count(0, UINT64_MAX);
  c.servers = static_cast<int>(draw.Count(1, INT32_MAX));
  c.tpcw_clients = draw.NonNegative();
  c.rubis_clients = draw.NonNegative();
  const char* cohorts[] = {"auto", "on", "off"};
  c.cohorts = cohorts[draw.Count(0, 2)];
  c.interval_seconds = draw.Positive();
  c.max_migrations_per_interval = static_cast<int>(draw.Count(0, INT32_MAX));
  c.replica_pool_pages = draw.Count(1, UINT64_MAX);
  c.mrc_sample_rate = draw.Unit();
  c.mrc_opt_regret = draw.Coin();
  c.tier2_pages = draw.Coin() ? draw.Count(0, UINT64_MAX) : 0;
  c.tier2_read_us = draw.Positive();
  c.tier2_demote = draw.Coin();
  c.admission = draw.Coin();
  c.span_sample = draw.Coin() ? draw.Count(0, UINT64_MAX) : 0;
  c.stats_guard = draw.Coin();
  c.ckpt_interval_seconds = draw.NonNegative();
  return c;
}

// ToString -> Parse must give back the same fields, bit for bit, and
// print the identical string again. Every drawn double is finite and
// none is -0, so == on a double field is bit equality here.
void ExpectExactRoundTrip(const RunConfig& config) {
  const std::string text = config.ToString();
  RunConfig parsed;
  std::string error;
  ASSERT_TRUE(RunConfig::Parse(text, &parsed, &error)) << error << "\n" << text;
  EXPECT_TRUE(parsed == config) << text;
  EXPECT_EQ(parsed.ToString(), text);
}

TEST(SpecRoundTripPropertyTest, RandomConfigsRoundTripBitExactly) {
  Draw draw(20071015);
  for (int i = 0; i < 400; ++i) {
    SCOPED_TRACE(i);
    ExpectExactRoundTrip(RandomRun(draw));
  }
}

// --- RunConfig's text form ---

TEST(RunConfigTest, ParseNeedsEveryKeyOnceAndEachValueValid) {
  const std::string text = RunConfig{}.ToString();
  const KvItems items = Rows(RunConfig{});
  ASSERT_EQ(items.size(), 21u) << text;
  for (size_t i = 1; i < items.size(); ++i) {
    EXPECT_LT(items[i - 1].first, items[i].first);  // sorted keys
  }
  // At least one bad value for every row, each a value its row's type
  // or range check refuses.
  struct Bad {
    std::string key, value;
  };
  const Bad bad_values[] = {
      {"admission", "auto"},  // the CLI's "scenario default" spelling
      {"ckpt_interval", "-1"},
      {"cohorts", "sometimes"},
      {"duration", "0"},
      {"fault_seed", "-1"},
      {"fault_spec", "bogus@1"},
      {"interval", "0"},
      {"max_migrations", "1.5"},
      {"mrc_opt_regret", "yes"},
      {"mrc_sample_rate", "1.5"},
      {"replica_pool_pages", "0"},
      {"rubis_clients", "-1"},
      {"scenario", "nope"},
      {"seed", "1e3"},
      {"servers", "2.0"},  // a count, as on the command line
      {"servers", "0"},
      {"span_sample", "-64"},
      {"stats_guard", "2"},
      {"tier2_demote", "2"},
      {"tier2_pages", "10.5"},  // a count
      {"tier2_pages", "-5"},
      {"tier2_read_us", "0"},  // a tier-2 hit costs time
      {"tpcw_clients", "nan"},
  };
  std::set<std::string> covered;
  RunConfig out;
  out.seed = 77;
  std::string error;
  for (const Bad& bad : bad_values) {
    SCOPED_TRACE(bad.key + "=" + bad.value);
    covered.insert(bad.key);
    std::string edited;
    for (const auto& [key, value] : items) {
      if (!edited.empty()) edited += '\n';
      edited += key + "=" + (key == bad.key ? bad.value : value);
    }
    EXPECT_FALSE(RunConfig::Parse(edited, &out, &error));
    EXPECT_NE(error.find("bad run config value: " + bad.key + "=" + bad.value),
              std::string::npos)
        << error;
    if (bad.key == "fault_spec") {  // the fault spec's parser says why
      EXPECT_NE(error.find("needs kind@time:params"), std::string::npos)
          << error;
    }
  }
  for (const auto& [key, value] : items) {
    EXPECT_TRUE(covered.contains(key)) << "no bad value for " << key;
  }
  // A missing key is named; 0 is a valid span rate: no span tracing.
  std::string missing = text;
  missing.erase(missing.find("servers=4\n"), 10);
  EXPECT_FALSE(RunConfig::Parse(missing, &out, &error));
  EXPECT_NE(error.find("lacks key: servers"), std::string::npos) << error;
  EXPECT_EQ(out.seed, 77u);  // untouched by every rejection
  ASSERT_TRUE(RunConfig::Parse(text, &out, &error)) << error;
  EXPECT_EQ(out.span_sample, 0u);
}

TEST(RunConfigTest, MutantsOfEveryScenarioConfigNeverBreakParse) {
  // Every scenario's fglb_sim config, mutated 2,000 times with a fixed
  // seed: Parse must return; a rejected mutant leaves a message and
  // *out untouched; an accepted one is a config whose text form parses
  // back to itself.
  std::vector<std::string> seeds;
  for (Scenario scenario : kAllScenarios) {
    seeds.push_back(ScenarioRunConfig(scenario, 900).ToString());
  }
  RunConfig sentinel;
  sentinel.seed = 424242;
  std::mt19937_64 rng(2510);
  int accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string text = MutateText(seeds[i % seeds.size()], rng);
    SCOPED_TRACE(testing::Message() << "mutant " << i << ":\n" << text);
    RunConfig parsed = sentinel;
    std::string error;
    if (!RunConfig::Parse(text, &parsed, &error)) {
      EXPECT_FALSE(error.empty());
      EXPECT_TRUE(parsed == sentinel);
      continue;
    }
    ++accepted;
    RunConfig reparsed;
    ASSERT_TRUE(RunConfig::Parse(parsed.ToString(), &reparsed, &error))
        << error;
    EXPECT_TRUE(reparsed == parsed);
  }
  // Some mutants must parse, or the case checks only rejections.
  EXPECT_GT(accepted, 0);
}

TEST(ScenarioRunConfigTest, HoldsFglbSimPerScenarioDefaults) {
  for (Scenario scenario : kAllScenarios) {
    SCOPED_TRACE(ScenarioName(scenario));
    const RunConfig run = ScenarioRunConfig(scenario, 600);
    ExpectExactRoundTrip(run);
    const bool chaos =
        std::string(ScenarioName(scenario)).rfind("chaos-", 0) == 0;
    const bool tiered = scenario == Scenario::kTierThrash ||
                        scenario == Scenario::kTierFail ||
                        scenario == Scenario::kColdStart;
    EXPECT_EQ(run.tier2_pages, tiered ? 16384u : 0u);
    EXPECT_EQ(run.max_migrations_per_interval, chaos ? 2 : 0);
    EXPECT_EQ(run.replica_pool_pages,
              scenario == Scenario::kColdStart ? 4096u : 8192u);
    EXPECT_EQ(run.admission, scenario == Scenario::kOverload);
    EXPECT_EQ(run.ckpt_interval_seconds,
              scenario == Scenario::kChaosCtl ? 10 : 0);
    EXPECT_EQ(run.fault_spec.empty(),
              !chaos && scenario != Scenario::kTierFail);
  }
}

// --- fglb_sim's resolution of its flags ---

RunConfig FromCli(const std::vector<std::string>& args) {
  CliOptions options;
  std::string error;
  EXPECT_TRUE(ParseCliOptions(args, &options, &error)) << error;
  RunConfig run;
  EXPECT_TRUE(RunConfigFromCli(options, &run, &error)) << error;
  return run;
}

bool CliRejects(const std::vector<std::string>& args) {
  CliOptions options;
  std::string error;
  return !ParseCliOptions(args, &options, &error) && !error.empty();
}

// The engines' second tier of the harness fglb_sim builds for `run`.
TierConfig BuiltTier(const RunConfig& run) {
  return MakeHarness(run, 1)->resources().engine_tier();
}

TEST(RunConfigFromCliTest, AppliesFlagOverridesOnScenarioDefaults) {
  EXPECT_EQ(FromCli({}).ToString(),
            ScenarioRunConfig(Scenario::kSteady, 900).ToString());
  RunConfig run = FromCli({"--scenario=overload", "--clients-scale=10"});
  EXPECT_EQ(run.tpcw_clients, 1200);
  EXPECT_TRUE(run.admission);
  EXPECT_FALSE(FromCli({"--scenario=overload", "--admission=off"}).admission);
  EXPECT_EQ(FromCli({"--scenario=chaos-ctl", "--ckpt-interval=0"})
                .ckpt_interval_seconds,
            0);
  run = FromCli({"--scenario=tier-thrash", "--tier2-read-us=123.4567"});
  EXPECT_EQ(run.tier2_pages, 16384u);
  EXPECT_EQ(run.tier2_read_us, 123.4567);
  EXPECT_TRUE(run.tier2_demote);
  // Tier knobs without a tier are recorded, and build no tier.
  run = FromCli({"--tier2-read-us=5"});
  EXPECT_EQ(run.tier2_read_us, 5);
  EXPECT_FALSE(BuiltTier(run).enabled());
  run = FromCli({"--span-sample=16", "--stats-guard=off", "--mrc-opt-regret"});
  EXPECT_EQ(run.span_sample, 16u);
  EXPECT_FALSE(run.stats_guard);
  EXPECT_TRUE(run.mrc_opt_regret);

  // A fault spec is checked by its row when the flag is parsed.
  CliOptions options;
  std::string error;
  EXPECT_FALSE(ParseCliOptions({"--fault-spec=bogus@1"}, &options, &error));
  EXPECT_NE(error.find("fault_spec=bogus@1"), std::string::npos) << error;
}

TEST(RunConfigFromCliTest, TierPagesZeroTurnsTheTierOff) {
  // 0 was also the "flag not given" value, so tier-thrash kept its
  // 16384-page tier under --tier2-pages=0.
  const RunConfig run = FromCli({"--scenario=tier-thrash", "--tier2-pages=0"});
  EXPECT_EQ(run.tier2_pages, 0u);
  EXPECT_FALSE(BuiltTier(run).enabled());
  EXPECT_EQ(BuiltTier(FromCli({"--scenario=tier-thrash"})).pages, 16384u);
}

TEST(RunConfigFromCliTest, FlagValuesUseTheRowGrammar) {
  // What the command line accepts, the info block accepts: a count is
  // digits only.
  EXPECT_TRUE(CliRejects({"--servers=2.0"}));
  EXPECT_TRUE(CliRejects({"--seed=1.0"}));
  EXPECT_TRUE(CliRejects({"--tier2-pages=16384.0"}));
  EXPECT_TRUE(CliRejects({"--mrc-threads=2.0"}));
  EXPECT_EQ(FromCli({"--servers=2"}).servers, 2);
  // The admission tuning flags are gone; admission is on or off.
  EXPECT_TRUE(CliRejects({"--admission-target=0.25"}));
  EXPECT_TRUE(CliRejects({"--admission-max-queue=32"}));
  // Flags are spelled with dashes only, and need a value.
  EXPECT_TRUE(CliRejects({"--fault_seed=3"}));
  EXPECT_TRUE(CliRejects({"--fault-spec="}));
}

TEST(RunConfigFromCliTest, CommandLineSpellingsKeepTheirMeaning) {
  // auto and -1 leave the scenario's default, also after another value.
  EXPECT_TRUE(FromCli({"--scenario=overload", "--admission=auto"}).admission);
  EXPECT_TRUE(FromCli({"--scenario=overload", "--admission=off",
                       "--admission=auto"})
                  .admission);
  EXPECT_EQ(FromCli({"--scenario=chaos-ctl", "--ckpt-interval=5",
                     "--ckpt-interval=-1"})
                .ckpt_interval_seconds,
            10);
  // A spans file samples 1 in 64 unless --span-sample says otherwise;
  // --span-sample=0 turns span tracing off.
  EXPECT_EQ(FromCli({"--spans-out=s.json"}).span_sample, 64u);
  EXPECT_EQ(FromCli({"--spans-out=s.json", "--span-sample=8"}).span_sample,
            8u);
  EXPECT_EQ(FromCli({"--span-sample=0"}).span_sample, 0u);
  CliOptions options;
  std::string error;
  ASSERT_TRUE(ParseCliOptions({"--spans-out=s.json", "--span-sample=0"},
                              &options, &error));
  RunConfig run;
  EXPECT_FALSE(RunConfigFromCli(options, &run, &error));
  EXPECT_NE(error.find("--spans-out"), std::string::npos) << error;
  // The last value given wins.
  EXPECT_EQ(FromCli({"--seed=3", "--seed=4"}).seed, 4u);
  // --clients-scale multiplies the client rows after every flag.
  EXPECT_EQ(FromCli({"--clients-scale=10", "--tpcw-clients=12"}).tpcw_clients,
            120);
  // The scenario's duration-scaled fault schedule follows --duration.
  EXPECT_EQ(FromCli({"--scenario=chaos-net", "--duration=300"}).fault_spec,
            ScenarioRunConfig(Scenario::kChaosNet, 300).fault_spec);
}

// One command line per run flag, each changing only the row it names
// away from the steady scenario's default.
struct FlagCase {
  const char* key;
  std::vector<std::string> args;
};

// Each case prints as its key, so the ctest name is the same in every
// build.
void PrintTo(const FlagCase& flag, std::ostream* os) { *os << flag.key; }

const FlagCase kFlagCases[] = {
    {"admission", {"--admission=on"}},
    {"ckpt_interval", {"--ckpt-interval=5"}},
    {"cohorts", {"--cohorts=on"}},
    {"duration", {"--duration=600"}},
    {"fault_seed", {"--fault-seed=7"}},
    {"fault_spec", {"--fault-spec=crash@100:replica=0"}},
    {"mrc_opt_regret", {"--mrc-opt-regret"}},
    {"mrc_sample_rate", {"--mrc-sample-rate=0.125"}},
    {"rubis_clients", {"--rubis-clients", "90"}},
    {"scenario", {"--scenario=burst"}},
    {"seed", {"--seed=7"}},
    {"servers", {"--servers=2"}},
    {"span_sample", {"--span-sample=16"}},
    {"stats_guard", {"--stats-guard=off"}},
    {"tier2_demote", {"--tier2-demote=0"}},
    {"tier2_pages", {"--tier2-pages=4096"}},
    {"tier2_read_us", {"--tier2-read-us=5"}},
    {"tpcw_clients", {"--tpcw-clients=60.5"}},
};

class RunConfigFromCliFlagTest : public ::testing::TestWithParam<FlagCase> {};

TEST_P(RunConfigFromCliFlagTest, ChangesExactlyItsOwnRow) {
  const FlagCase& flag = GetParam();
  EXPECT_EQ(ChangedRows(FromCli({}), FromCli(flag.args)),
            std::set<std::string>{flag.key});
}

INSTANTIATE_TEST_SUITE_P(
    EveryRunFlag, RunConfigFromCliFlagTest, ::testing::ValuesIn(kFlagCases),
    [](const ::testing::TestParamInfo<FlagCase>& info) {
      return std::string(info.param.key);
    });

TEST(CliFlagTest, UsageAndTableAgree) {
  // The help text is the one description of a flag the table does not
  // generate: every flag it names must parse, and every flag row must
  // be named in it. A run flag's sample is its kFlagCases command line,
  // so every flag row also has a ChangesExactlyItsOwnRow case.
  std::map<std::string, std::vector<std::string>> samples = {
      {"output", {"--output=samples-csv"}},
      {"clients-scale", {"--clients-scale=2"}},
      {"mrc-threads", {"--mrc-threads=1"}},
      {"trace-out", {"--trace-out=t.jsonl"}},
      {"capture-out", {"--capture-out=c.fglbcap"}},
      {"metrics-out", {"--metrics-out=m.json"}},
      {"metrics-interval", {"--metrics-interval=5"}},
      {"spans-out", {"--spans-out=s.json"}},
      {"log-level", {"--log-level=quiet"}},
      {"help", {"--help"}},
  };
  for (const FlagCase& flag : kFlagCases) {
    std::string name = flag.key;
    std::replace(name.begin(), name.end(), '_', '-');
    samples[name] = flag.args;
  }
  const std::string usage = CliUsage();
  // A flag is "--" and then a name of these characters ("fglb_sim --
  // scenario runner" names none).
  constexpr const char* kNameChars = "abcdefghijklmnopqrstuvwxyz0123456789-";
  auto name_at = [&](const std::string& text, size_t at) {
    return text.substr(at, text.find_first_not_of(kNameChars, at) - at);
  };
  std::set<std::string> named;
  for (size_t at = usage.find("--"); at != std::string::npos;
       at = usage.find("--", at + 2)) {
    const std::string name = name_at(usage, at + 2);
    if (!name.empty()) named.insert(name);
  }
  for (const std::string& name : named) {
    SCOPED_TRACE("--" + name);
    ASSERT_TRUE(samples.contains(name)) << "no sample value";
    CliOptions options;
    std::string error;
    EXPECT_TRUE(ParseCliOptions(samples.at(name), &options, &error)) << error;
  }
  for (const std::string& key : RunConfig::FlagKeys()) {
    std::string name = key;
    std::replace(name.begin(), name.end(), '_', '-');
    EXPECT_TRUE(named.contains(name)) << "--" << name << " not in --help";
  }
  EXPECT_EQ(named.size(), samples.size());
  // 18 flagged rows (interval, max_migrations and replica_pool_pages
  // have none) and 10 flags that are not part of a run.
  EXPECT_EQ(named.size(), 28u);

  // Every "(default V)" of a run flag is its row as fglb_sim's default
  // run (steady, 900 s) prints it; --admission=auto and
  // --ckpt-interval=-1 stand for the scenario's own default.
  std::map<std::string, std::string> rows;
  std::istringstream printed(ScenarioRunConfig(Scenario::kSteady, 900)
                                 .ToString());
  for (std::string line; std::getline(printed, line);) {
    const size_t eq = line.find('=');
    rows[line.substr(0, eq)] = line.substr(eq + 1);
  }
  // An entry starts with "  --NAME"; its continuation lines are
  // indented further.
  std::map<std::string, std::string> entries;  // flag -> its help lines
  std::istringstream usage_lines(usage);
  std::string flag;
  for (std::string line; std::getline(usage_lines, line);) {
    if (line.rfind("  --", 0) == 0) {
      flag = name_at(line, 4);
    } else if (line.rfind("   ", 0) != 0) {
      flag.clear();  // not a continuation line
    }
    if (!flag.empty()) entries[flag] += line;
  }
  const std::string kDefault = "(default ";
  int checked = 0;
  for (const auto& [name, text] : entries) {
    std::string key = name;
    std::replace(key.begin(), key.end(), '-', '_');
    const size_t open = text.find(kDefault);
    const size_t close = text.find(')', open);
    if (!rows.contains(key) || close == std::string::npos) continue;
    const size_t from = open + kDefault.size();
    const std::string shown = text.substr(from, close - from);
    if ((key == "admission" && shown == "auto") ||
        (key == "ckpt_interval" && shown == "-1")) {
      continue;
    }
    EXPECT_EQ(shown, rows.at(key)) << "--" << name;
    ++checked;
  }
  EXPECT_EQ(checked, 14);
}

}  // namespace
}  // namespace fglb

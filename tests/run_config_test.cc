// The one run config and the one k=v spec grammar under it: RunConfig
// is fglb_sim's fully resolved run, which a capture stores and a replay
// rebuilds, so its text form must be exact (a seeded property test over
// every numeric field of RunConfig and the four sub-configs), strict
// (one table of malformed inputs fed to every spec parser), and must
// hold fglb_sim's per-scenario defaults and flag overrides.

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/kv_spec.h"
#include "mrc/miss_ratio_curve.h"
#include "scenarios/cli_options.h"
#include "scenarios/run_config.h"
#include "scenarios/scenario.h"

namespace fglb {
namespace {

const Scenario kAllScenarios[] = {
    Scenario::kSteady,       Scenario::kBurst,     Scenario::kConsolidation,
    Scenario::kIoContention, Scenario::kChaosReplica, Scenario::kChaosDisk,
    Scenario::kChaosNet,     Scenario::kChaosCtl,  Scenario::kOverload,
    Scenario::kTierThrash,   Scenario::kTierFail,  Scenario::kColdStart,
};

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

// --- one grammar: the same malformed inputs for every spec parser ---

// ParseMrcSpec's config has no ToString; this adapter gives it the
// shape of the other spec configs.
struct MrcSpec {
  MrcConfig mrc;
  std::string ToString() const {
    return MrcSpecString(mrc) + ";" + FormatKvNumber(mrc.sample_rate);
  }
  static bool Parse(const std::string& text, MrcSpec* out,
                    std::string* error) {
    return ParseMrcSpec(text, &out->mrc, error);
  }
};

// Feeds one malformed-input table to Config::Parse, built from a valid
// `key`=`value` item of its grammar. Each input must be rejected with
// an error naming the token, leaving a sentinel config untouched.
template <typename Config>
void ExpectRejectsMalformed(const Config& sentinel, const std::string& what,
                            const std::string& key, const std::string& value,
                            char separator = ',') {
  SCOPED_TRACE(what);
  const std::string item = key + "=" + value;
  const std::string sep(1, separator);
  const std::pair<std::string, std::string> cases[] = {
      {item + sep, "trailing"},
      {sep + item, "empty " + what + " item"},
      {item + sep + sep + item, "empty " + what + " item"},
      {key, what + " item lacks '=': " + key},
      {"=5", what + " item has an empty key: =5"},
      {item + sep + item, "duplicate " + what + " key: " + key},
      {"bogus=1", "unknown " + what + " key: bogus"},
  };
  for (const auto& [text, token] : cases) {
    Config out = sentinel;
    std::string error;
    EXPECT_FALSE(Config::Parse(text, &out, &error)) << text;
    EXPECT_NE(error.find(token), std::string::npos) << text << " -> " << error;
    EXPECT_EQ(out.ToString(), sentinel.ToString()) << text;
  }
}

TEST(SpecGrammarTest, EveryParserRejectsMalformedInputNamingTheToken) {
  AdmissionConfig admission;
  admission.target_delay = 0.125;
  ExpectRejectsMalformed(admission, "admission spec", "queue", "32");
  StatsChannelConfig stats;
  stats.decay = 0.125;
  ExpectRejectsMalformed(stats, "stats spec", "guard", "off");
  TierConfig tier;
  tier.pages = 77;
  ExpectRejectsMalformed(tier, "tier spec", "pages", "8");
  SpanConfig span;
  span.sample_every = 77;
  ExpectRejectsMalformed(span, "span spec", "sample", "4");
  MrcSpec mrc;
  mrc.mrc.sample_rate = 0.25;
  ExpectRejectsMalformed(mrc, "mrc spec", "opt_regret", "1");
  RunConfig run;
  run.seed = 77;
  ExpectRejectsMalformed(run, "run config", "seed", "5", '\n');
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
  // In (0, 1], or (0, 1) when `open`.
  double Unit(bool open = false) {
    double v = 0;
    while (v == 0 || (open && v == 1)) {
      v = std::uniform_real_distribution<double>(0, 1)(rng_);
    }
    return v;
  }
  uint64_t Count(uint64_t lo, uint64_t hi) {
    return std::uniform_int_distribution<uint64_t>(lo, hi)(rng_);
  }
  bool Coin() { return Count(0, 1) == 1; }

 private:
  std::mt19937_64 rng_;
};

AdmissionConfig RandomAdmission(Draw& draw) {
  AdmissionConfig c;
  c.target_delay = draw.Positive();
  c.codel_interval_seconds = draw.Positive();
  c.max_queue_depth = draw.Count(1, UINT64_MAX);
  c.retry_budget_ratio = draw.NonNegative();
  c.retry_burst = draw.NonNegative();
  c.breaker_failure_threshold = static_cast<int>(draw.Count(1, INT32_MAX));
  c.breaker_open_seconds = draw.Positive();
  c.breaker_half_open_probes = static_cast<int>(draw.Count(1, INT32_MAX));
  c.timeout_factor = draw.Positive();
  c.ewma_alpha = draw.Unit();
  return c;
}

StatsChannelConfig RandomStats(Draw& draw) {
  StatsChannelConfig c;
  c.guard = draw.Coin();
  c.decay = draw.Unit(/*open=*/true);
  c.recover = draw.Unit();
  c.act_threshold = draw.Unit();
  return c;
}

TierConfig RandomTier(Draw& draw) {
  TierConfig c;  // pages = 0 is the absent tier, which prints as ""
  c.pages = draw.Count(1, UINT64_MAX);
  c.read_us = draw.Positive();
  c.demote = draw.Coin();
  return c;
}

SpanConfig RandomSpan(Draw& draw) {
  SpanConfig c;
  c.sample_every = draw.Count(1, UINT64_MAX);
  return c;
}

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
  c.opt_regret = draw.Coin();
  c.tier = draw.Coin() ? RandomTier(draw) : TierConfig{};
  const ReplacementPolicy policies[] = {ReplacementPolicy::kLru,
                                        ReplacementPolicy::kClock,
                                        ReplacementPolicy::kArc};
  c.replacement = policies[draw.Count(0, 2)];
  c.admission.reset();
  if (draw.Coin()) c.admission = RandomAdmission(draw);
  if (draw.Coin()) c.spans = RandomSpan(draw);
  c.stats = RandomStats(draw);
  c.ckpt_interval_seconds = draw.NonNegative();
  return c;
}

// ToString -> Parse must give back the same fields, bit for bit, and
// print the identical string again. Every drawn double is finite and
// none is -0, so == on a double field is bit equality here.
template <typename Config>
void ExpectExactRoundTrip(const Config& config) {
  const std::string text = config.ToString();
  Config parsed;
  std::string error;
  ASSERT_TRUE(Config::Parse(text, &parsed, &error)) << error << "\n" << text;
  EXPECT_TRUE(parsed == config) << text;
  EXPECT_EQ(parsed.ToString(), text);
}

TEST(SpecRoundTripPropertyTest, RandomConfigsRoundTripBitExactly) {
  Draw draw(20071015);
  for (int i = 0; i < 400; ++i) {
    SCOPED_TRACE(i);
    ExpectExactRoundTrip(RandomAdmission(draw));
    ExpectExactRoundTrip(RandomStats(draw));
    ExpectExactRoundTrip(RandomTier(draw));
    ExpectExactRoundTrip(RandomSpan(draw));
    ExpectExactRoundTrip(RandomRun(draw));
  }
}

// --- RunConfig's text form and fglb_sim's resolution ---

TEST(RunConfigTest, ParseNeedsEveryKeyOnceAndEachValueValid) {
  const std::string text = RunConfig{}.ToString();
  KvItems items;
  std::string error;
  ASSERT_TRUE(SplitKvSpec(text, '\n', "run config", &items, &error)) << error;
  ASSERT_EQ(items.size(), 20u) << text;
  for (size_t i = 1; i < items.size(); ++i) {
    EXPECT_LT(items[i - 1].first, items[i].first);  // sorted keys
  }
  // A missing key, a bad sub-config (with its own parser's reason) and
  // a fault spec that does not parse are each named.
  struct Edit {
    std::string line, replacement, token;
  };
  const Edit edits[] = {
      {"servers=4\n", "", "lacks key: servers"},
      {"tier=\n", "tier=pages=-1,\n", "tier=pages=-1, (trailing comma"},
      {"fault_spec=\n", "fault_spec=bogus@1\n", "fault_spec=bogus@1"},
  };
  RunConfig out;
  out.seed = 77;
  for (const Edit& edit : edits) {
    std::string bad = text;
    bad.replace(bad.find(edit.line), edit.line.size(), edit.replacement);
    EXPECT_FALSE(RunConfig::Parse(bad, &out, &error)) << bad;
    EXPECT_NE(error.find(edit.token), std::string::npos) << error;
  }
  EXPECT_EQ(out.seed, 77u);  // untouched by every rejection
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
    EXPECT_EQ(run.tier.pages, tiered ? 16384u : 0u);
    EXPECT_EQ(run.max_migrations_per_interval, chaos ? 2 : 0);
    EXPECT_EQ(run.replica_pool_pages,
              scenario == Scenario::kColdStart ? 4096u : 8192u);
    EXPECT_EQ(run.admission.has_value(), scenario == Scenario::kOverload);
    EXPECT_EQ(run.ckpt_interval_seconds,
              scenario == Scenario::kChaosCtl ? 10 : 0);
    EXPECT_EQ(run.fault_spec.empty(),
              !chaos && scenario != Scenario::kTierFail);
  }
}

RunConfig FromCli(const std::vector<std::string>& args) {
  CliOptions options;
  std::string error;
  EXPECT_TRUE(ParseCliOptions(args, &options, &error)) << error;
  RunConfig run;
  EXPECT_TRUE(RunConfigFromCli(options, &run, &error)) << error;
  return run;
}

TEST(RunConfigFromCliTest, AppliesFlagOverridesOnScenarioDefaults) {
  EXPECT_EQ(FromCli({}).ToString(),
            ScenarioRunConfig(Scenario::kSteady, 900).ToString());
  RunConfig run = FromCli({"--scenario=overload", "--clients-scale=10",
                           "--admission-target=0.25"});
  EXPECT_EQ(run.tpcw_clients, 1200);
  ASSERT_TRUE(run.admission.has_value());
  EXPECT_EQ(run.admission->target_delay, 0.25);
  EXPECT_FALSE(FromCli({"--scenario=overload", "--admission=off"}).admission);
  EXPECT_EQ(FromCli({"--scenario=chaos-ctl", "--ckpt-interval=0"})
                .ckpt_interval_seconds,
            0);
  run = FromCli({"--scenario=tier-thrash", "--tier2-read-us=123.4567"});
  EXPECT_EQ(run.tier.ToString(), "pages=16384,read_us=123.4567,demote=1");
  // Tier knobs without a tier change nothing.
  EXPECT_EQ(FromCli({"--tier2-read-us=5"}).tier, TierConfig{});
  run = FromCli({"--span-sample=16", "--stats-guard=off", "--mrc-opt-regret"});
  EXPECT_EQ(run.spans, SpanConfig{16});
  EXPECT_FALSE(run.stats.guard);
  EXPECT_TRUE(run.opt_regret);

  CliOptions options;
  std::string error;
  ASSERT_TRUE(ParseCliOptions({"--fault-spec=bogus@1"}, &options, &error));
  EXPECT_FALSE(RunConfigFromCli(options, &run, &error));
  EXPECT_EQ(error.rfind("bad --fault-spec: ", 0), 0u) << error;
}

}  // namespace
}  // namespace fglb

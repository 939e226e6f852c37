#include "sim/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/trace_check.h"
#include "scenarios/harness.h"
#include "scenarios/scenario.h"
#include "text_mutator.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

// --- the spec grammar and its canonical serialization ---

// The order ToString prints (and Parse of its text returns) events in.
std::vector<FaultEvent> TimeSorted(std::vector<FaultEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  return events;
}

TEST(FaultSpecTest, ParseYieldsCanonicalTimeSortedToString) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse(
      "disk@300:server=0,factor=8,duration=120;"
      "crash@120:replica=1,restart=60;"
      "migration@100:delay=5,fail=0.5,duration=300",
      &spec, &error))
      << error;
  ASSERT_EQ(spec.events.size(), 3u);
  EXPECT_EQ(spec.ToString(),
            "migration@100:delay=5,fail=0.5,duration=300;"
            "crash@120:replica=1,restart=60;"
            "disk@300:server=0,factor=8,duration=120");
}

TEST(FaultSpecTest, ToStringRoundTripsThroughParse) {
  const FaultSpec spec = MakeRandomFaultSpec(42, 600);
  const std::string text = spec.ToString();
  FaultSpec reparsed;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse(text, &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.ToString(), text);
}

TEST(FaultSpecTest, EveryKindRoundTripsByteIdentically) {
  const char* entries[] = {
      "crash@120:replica=1,restart=60",
      "crash@120:replica=1",  // never restarted
      "disk@300:server=0,factor=8,duration=120",
      "slow@200:replica=0,factor=3,duration=100",
      "stats@250:replica=0,mode=drop,duration=50",
      "stats@250:replica=0,mode=partial,duration=50",
      "migration@100:delay=5,fail=0.5,duration=300",
      "tier@150:replica=0,mode=fail,duration=60",
      "tier@150:replica=0,mode=degrade,factor=10,duration=60",
      "net@200:drop=0.1,dup=0.05,corrupt=0.02,reorder=0.1,delay=2,"
      "duration=120",
      "net@200:drop=0.25,duration=60",  // partial rate set
      "ctl@400:restart=30",
      "ctl@400:",  // controller stays down
  };
  for (const char* text : entries) {
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(FaultSpec::Parse(text, &spec, &error)) << text << ": "
                                                       << error;
    ASSERT_EQ(spec.events.size(), 1u) << text;
    FaultSpec reparsed;
    ASSERT_TRUE(FaultSpec::Parse(spec.ToString(), &reparsed, &error))
        << spec.ToString() << ": " << error;
    EXPECT_EQ(reparsed.ToString(), spec.ToString()) << text;
  }
}

TEST(FaultSpecTest, ParseRejectsSloppyEntriesNamingTheToken) {
  struct Case {
    const char* text;
    const char* named;  // substring the error must carry
  };
  const Case bad[] = {
      {"crash@10:replica=1,replica=2", "replica"},       // duplicate key
      {"net@10:drop=0.1,drop=0.2,duration=5", "drop"},   // duplicate key
      {"crash@10:replica=", "replica"},                  // empty value
      {"net@10:drop=0.1,,duration=5", "empty fault param"},  // doubled comma
      {"crash@10:replica=1,", "trailing"},               // trailing comma
      {"net@10:drop=0.1,duration=5,", "trailing"},       // trailing comma
      {"net@10:drop=1.5,duration=5", "drop"},            // rate out of range
      {"net@10:duration=5", "drop"},                     // window does nothing
      // A param outside its kind's row of the grammar table.
      {"crash@10:replica=0,factor=5", "crash fault takes no param factor"},
      {"stats@10:replica=0,mode=fail,duration=5",
       "bad value for fault param mode: fail"},  // a tier mode
      {"disk@10:server=0,factor=8,mode=partial,duration=5",
       "disk fault takes no param mode"},
      {"ctl@10:replica=3", "ctl fault takes no param replica"},
      {"net@10:drop=0.1,replica=7,duration=5",
       "net fault takes no param replica"},
      {"migration@10:delay=1,fail=0.2,server=9",
       "migration fault takes no param server"},
      // A factor only slows a degraded tier; a failed one drops it.
      {"tier@10:replica=0,mode=fail,factor=5,duration=20",
       "takes no factor with mode=fail"},
      {"tier@10:replica=0,factor=5,mode=fail", "takes no factor with mode=fail"},
      // Required params README's table shows without brackets.
      {"stats@10:replica=0", "mode"},
      {"migration@10:fail=0.5", "delay"},
      {"migration@10:", "delay"},
  };
  for (const Case& c : bad) {
    FaultSpec spec;
    std::string error;
    EXPECT_FALSE(FaultSpec::Parse(c.text, &spec, &error)) << c.text;
    EXPECT_NE(error.find(c.named), std::string::npos)
        << c.text << " -> " << error;
    EXPECT_TRUE(spec.events.empty()) << c.text;  // *out left untouched
  }
}

TEST(FaultSpecTest, RandomSpecWithNewKindsRoundTripsAndStaysInBounds) {
  RandomFaultProfile profile;
  profile.replicas = 3;
  profile.servers = 2;
  profile.tier_faults = 1;
  profile.net_windows = 2;
  profile.ctl_crashes = 1;
  const FaultSpec spec = MakeRandomFaultSpec(13, 1000, profile);
  EXPECT_EQ(spec.events.size(), 9u);  // 5 legacy + tier + 2 net + ctl
  int tiers = 0, nets = 0, ctls = 0;
  for (const FaultEvent& e : spec.events) {
    EXPECT_GE(e.time, profile.min_time_fraction * 1000);
    EXPECT_LE(e.time, profile.max_time_fraction * 1000);
    switch (e.kind) {
      case FaultKind::kTier:
        ++tiers;
        EXPECT_TRUE(e.mode == kTierFail || e.mode == kTierDegrade);
        break;
      case FaultKind::kNet:
        ++nets;
        for (double rate : {e.drop_rate, e.dup_rate, e.corrupt_rate,
                            e.reorder_rate}) {
          EXPECT_GE(rate, 0.0);
          EXPECT_LE(rate, 1.0);
        }
        EXPECT_GT(e.duration, 0.0);
        break;
      case FaultKind::kCtl:
        ++ctls;
        EXPECT_GT(e.restart_after, 0.0);  // soak runs must come back up
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(tiers, 1);
  EXPECT_EQ(nets, 2);
  EXPECT_EQ(ctls, 1);
  // Byte-identical per seed, round-trips through the grammar.
  EXPECT_EQ(spec.ToString(), MakeRandomFaultSpec(13, 1000, profile).ToString());
  FaultSpec reparsed;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse(spec.ToString(), &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.ToString(), spec.ToString());
}

TEST(FaultSpecTest, ParseRejectsMalformedEntries) {
  const char* bad[] = {
      "boom@10:replica=1",              // unknown kind
      "crash@10",                       // no params separator
      "crash@-5:replica=1",             // negative time
      "crash@10:replica=x",             // non-integer id
      "crash@10:restart=5",             // required replica missing
      "disk@10:server=0",               // required factor missing
      "slow@10:factor=2",               // required replica missing
      "stats@10:replica=0,mode=half",   // unknown dropout mode
      "migration@10:delay=1,fail=1.5",  // fail rate out of range
      "crash@10:color=red",             // unknown param
      "disk@nan:server=0,factor=8,duration=10",  // non-finite time
      "disk@inf:server=0,factor=8",              // non-finite time
      "disk@20:server=0,factor=nan,duration=10",  // non-finite factor
      "disk@20:server=0,factor=inf",              // non-finite factor
      "migration@10:delay=1,fail=nan",            // non-finite rate
      "crash@10:replica=2.0",                     // id not a digit string
      "crash@10: replica=1",                      // space in a key
      "crash@10:replica=1;",                      // trailing empty entry
      "crash@10:replica=1;;disk@20:server=0,factor=8",  // empty entry
      // Seconds are never negative.
      "crash@10:replica=1,restart=-5",
      "disk@10:server=0,factor=2,duration=-3",
      "net@10:drop=0.1,duration=-2",
      "migration@10:delay=-5,fail=0.2",
  };
  for (const char* text : bad) {
    FaultSpec spec;
    std::string error;
    EXPECT_FALSE(FaultSpec::Parse(text, &spec, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(FaultSpecTest, MutantsOfEveryDefaultScheduleNeverBreakParse) {
  // Every scenario's default schedule, README's example and one entry
  // per row of its grammar table, mutated 2,000 times with a fixed
  // seed: Parse must return; a rejected mutant leaves a message and
  // *out untouched; an accepted one re-prints canonical text that
  // parses back to the same text and the same values.
  std::vector<std::string> seeds = {
      "crash@200:replica=0,restart=60;disk@300:server=0,factor=8,"
      "duration=120",
      "crash@120:replica=1,restart=60",
      "disk@300:server=0,factor=8,duration=120",
      "slow@200:replica=0,factor=3,duration=100",
      "stats@250:replica=0,mode=drop,duration=50",
      "migration@100:delay=5,fail=0.5,duration=300",
      "tier@150:replica=0,mode=fail,duration=60",
      "tier@150:replica=0,mode=degrade,factor=10,duration=60",
      "net@200:drop=0.1,dup=0.05,corrupt=0.02,reorder=0.1,delay=2,"
      "duration=120",
      "ctl@400:restart=30",
  };
  for (Scenario scenario :
       {Scenario::kChaosReplica, Scenario::kChaosDisk, Scenario::kChaosNet,
        Scenario::kChaosCtl, Scenario::kTierFail}) {
    seeds.push_back(ScenarioRunConfig(scenario, 900).fault_spec);
    ASSERT_FALSE(seeds.back().empty());
  }
  std::string error;
  FaultSpec sentinel;
  ASSERT_TRUE(FaultSpec::Parse("crash@1:replica=0", &sentinel, &error));
  std::mt19937_64 rng(2511);
  int accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string text = MutateText(seeds[i % seeds.size()], rng);
    SCOPED_TRACE(testing::Message() << "mutant " << i << ": " << text);
    FaultSpec spec = sentinel;
    error.clear();
    if (!FaultSpec::Parse(text, &spec, &error)) {
      EXPECT_FALSE(error.empty());
      EXPECT_EQ(spec.ToString(), sentinel.ToString());
      continue;
    }
    ++accepted;
    const std::string canonical = spec.ToString();
    FaultSpec again;
    ASSERT_TRUE(FaultSpec::Parse(canonical, &again, &error))
        << canonical << ": " << error;
    EXPECT_EQ(again.ToString(), canonical);
    EXPECT_TRUE(again.events == TimeSorted(spec.events));
  }
  // Some mutants must parse, or the case checks only rejections.
  EXPECT_GT(accepted, 0);
}

TEST(FaultSpecTest, RandomSpecsRoundTripBitExactly) {
  // Seed-generated schedules carry full-precision doubles; the
  // canonical form must keep every bit of them, not 6 digits.
  RandomFaultProfile profile;
  profile.replicas = 3;
  profile.servers = 3;
  profile.tier_faults = 2;
  profile.net_windows = 2;
  profile.ctl_crashes = 1;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const FaultSpec spec = MakeRandomFaultSpec(seed, 1000 + seed, profile);
    FaultSpec reparsed;
    std::string error;
    ASSERT_TRUE(FaultSpec::Parse(spec.ToString(), &reparsed, &error))
        << spec.ToString() << ": " << error;
    EXPECT_TRUE(reparsed.events == TimeSorted(spec.events))
        << "seed " << seed;
    EXPECT_EQ(reparsed.ToString(), spec.ToString());
  }
}

TEST(FaultSpecTest, RandomSpecIsByteIdenticalPerSeed) {
  EXPECT_EQ(MakeRandomFaultSpec(7, 900).ToString(),
            MakeRandomFaultSpec(7, 900).ToString());
  EXPECT_NE(MakeRandomFaultSpec(7, 900).ToString(),
            MakeRandomFaultSpec(8, 900).ToString());
}

TEST(FaultSpecTest, RandomSpecsMatchPinnedSchedules) {
  // A soak seed means the schedule it first expanded to: any change to
  // the order or range of MakeRandomFaultSpec's draws breaks these.
  const struct {
    uint64_t seed;
    const char* schedule;
  } defaults[] = {
      {1,
       "slow@385.83960121293353:replica=1,factor=2.8792746585264632,"
       "duration=113.93151978638355;"
       "disk@391.3174451026284:server=1,factor=3.1485762939554895,"
       "duration=36.39406944622911;"
       "crash@559.5777899057792:replica=0,restart=42.9642280007889;"
       "migration@660.8928285238387:delay=1.5631916094409748,"
       "fail=0.2948159614766294,duration=68.24763039532729;"
       "stats@696.8978101175848:replica=1,mode=partial,"
       "duration=55.99600466445747"},
      {7,
       "slow@236.39532619111827:replica=0,factor=1.879540268335301,"
       "duration=78.72308386845455;"
       "migration@482.8747222347191:delay=2.7968859201455145,"
       "fail=0.2797549005194584,duration=88.16998353863966;"
       "crash@558.3113003770325:replica=0,restart=53.58509847505679;"
       "stats@575.2034318046315:replica=1,mode=partial,"
       "duration=47.08517916388794;"
       "disk@709.7927715080649:server=0,factor=8.982191509961055,"
       "duration=35.467687154353456"},
      {42,
       "crash@225.28600437233638:replica=0,restart=47.201736441125576;"
       "stats@336.9659913526905:replica=0,mode=drop,"
       "duration=62.66899669471126;"
       "slow@639.0045597119253:replica=0,factor=2.958373274343498,"
       "duration=91.42075826512674;"
       "migration@653.9943039955288:delay=5.3173307981290145,"
       "fail=0.5108340501211677,duration=187.35728429323643;"
       "disk@679.3341904757093:server=0,factor=8.15791568347394,"
       "duration=94.7332720090124"},
  };
  for (const auto& pinned : defaults) {
    EXPECT_EQ(MakeRandomFaultSpec(pinned.seed, 900).ToString(),
              pinned.schedule)
        << "seed " << pinned.seed;
  }
  // ChaosSoakTest's survivability profile draws every kind; seed 3
  // draws a degraded tier, seeds 5 and 404 a failed one.
  RandomFaultProfile every_kind;
  every_kind.replicas = 2;
  every_kind.servers = 3;
  every_kind.tier_faults = 1;
  every_kind.net_windows = 2;
  every_kind.ctl_crashes = 1;
  const struct {
    uint64_t seed;
    const char* schedule;
  } survivability[] = {
      {3,
       "migration@106.48156630191842:delay=1.8088148504053605,"
       "fail=0.06903918225998415,duration=221.54059977566428;"
       "ctl@142.93000291376694:restart=20.433217463672232;"
       "disk@208.1507903601089:server=2,factor=5.196064231703801,"
       "duration=48.915086623617796;"
       "stats@243.1702908584041:replica=1,mode=partial,"
       "duration=61.13150466398398;"
       "crash@245.7531908282691:replica=0,restart=28.730494931302527;"
       "tier@250.04163855107015:replica=1,mode=degrade,"
       "factor=6.151353938148253,duration=34.953659609409264;"
       "slow@251.73792191332242:replica=1,factor=1.987759155209141,"
       "duration=113.1025301676546;"
       "net@285.3785269895494:drop=0.23297371138505896,"
       "dup=0.031958584379762525,corrupt=0.09657210376788848,"
       "reorder=0.17419439899443218,delay=1.8953062291104787,"
       "duration=164.50163051380466;"
       "net@299.3624199432855:drop=0.2951824738091775,"
       "dup=0.08908461409766369,corrupt=0.09067941116757006,"
       "reorder=0.0354990709341475,delay=1.8826047394776086,"
       "duration=62.16758078247146"},
      {5,
       "stats@140.14148637290958:replica=0,mode=partial,"
       "duration=53.83045258816291;"
       "crash@149.21869476085658:replica=0,restart=45.981869222040885;"
       "ctl@231.76786542621528:restart=18.410128071580974;"
       "net@243.1764446088979:drop=0.1372383752457737,"
       "dup=0.11465888582925053,corrupt=0.03896518499734184,"
       "reorder=0.11274547318440203,delay=2.38853014430223,"
       "duration=127.95267215475346;"
       "tier@252.79462093607728:replica=1,mode=fail,"
       "duration=35.143240149201965;"
       "slow@274.0787828186667:replica=1,factor=2.4523574784433086,"
       "duration=119.86730561828124;"
       "disk@277.1720618495401:server=1,factor=8.276191615095048,"
       "duration=75.3500824767756;"
       "migration@289.2446994925444:delay=5.765187654183967,"
       "fail=0.49471074916978114,duration=146.54478430871612;"
       "net@294.45451081308534:drop=0.20349999318486012,"
       "dup=0.12982241865516267,corrupt=0.017647726933414255,"
       "reorder=0.024325599881132434,delay=2.176885197067627,"
       "duration=206.96997789736415"},
      {404,
       "tier@106.75002100666283:replica=0,mode=fail,"
       "duration=47.25132253210782;"
       "net@107.367440360023:drop=0.25075261020421513,"
       "dup=0.14009708843022148,corrupt=0.06041514099766698,"
       "reorder=0.016948272703577794,delay=0.6868814865371564,"
       "duration=210.50273601340027;"
       "slow@126.11043098411197:replica=1,factor=3.821029135457609,"
       "duration=49.76887918375079;"
       "net@161.5171994267707:drop=0.11432026505670474,"
       "dup=0.12943847469489417,corrupt=0.04598311153821381,"
       "reorder=0.15332661979139417,delay=3.9094070351592074,"
       "duration=96.97836834858416;"
       "stats@191.97819888717856:replica=1,mode=partial,"
       "duration=22.362886209667337;"
       "migration@256.6854777801906:delay=3.8989006250352407,"
       "fail=0.010229291431544428,duration=226.29671577902627;"
       "ctl@260.4474606079253:restart=12.30635995589474;"
       "crash@265.37967549268143:replica=1,restart=56.7165505138374;"
       "disk@289.4934863464515:server=1,factor=8.792865277299722,"
       "duration=99.5110615888932"},
  };
  for (const auto& pinned : survivability) {
    EXPECT_EQ(MakeRandomFaultSpec(pinned.seed, 400, every_kind).ToString(),
              pinned.schedule)
        << "seed " << pinned.seed;
  }
}

TEST(FaultSpecTest, RandomSpecRespectsProfileBounds) {
  RandomFaultProfile profile;
  profile.replicas = 3;
  profile.servers = 2;
  const FaultSpec spec = MakeRandomFaultSpec(99, 1000, profile);
  EXPECT_EQ(spec.events.size(), 5u);  // one of each category by default
  for (const FaultEvent& e : spec.events) {
    EXPECT_GE(e.time, profile.min_time_fraction * 1000);
    EXPECT_LE(e.time, profile.max_time_fraction * 1000);
    if (e.replica >= 0) {
      EXPECT_LT(e.replica, profile.replicas);
    }
    if (e.server >= 0) {
      EXPECT_LT(e.server, profile.servers);
    }
  }
}

// --- README's grammar table is the grammar Parse takes ---

// One param of a README table entry such as
// "stats@T:replica=N,mode=drop|partial[,duration=D]".
struct ReadmeParam {
  std::string key;
  std::vector<std::string> values;  // a sample value, or each mode word
  bool required = false;
};

struct ReadmeRow {
  std::string kind;
  std::vector<ReadmeParam> params;
};

// The entry column of README's fault grammar table: the rows of the
// first table after the sentence that introduces `--fault-spec`.
std::vector<ReadmeRow> ReadmeGrammarRows() {
  // Sample values for the table's placeholders; anything else is a
  // '|'-separated list of mode words.
  const std::map<std::string, std::string> samples = {
      {"N", "1"}, {"F", "2"}, {"P", "0.5"}, {"S", "3"}, {"D", "4"}};
  std::ifstream readme(FGLB_README);
  std::vector<ReadmeRow> rows;
  bool introduced = false;
  for (std::string line; std::getline(readme, line);) {
    if (line.find("`--fault-spec` is a") != std::string::npos) {
      introduced = true;
      continue;
    }
    if (!introduced || line.rfind("| `", 0) != 0) {
      if (!rows.empty()) break;
      continue;
    }
    std::string cell = line.substr(3, line.find('`', 3) - 3);
    for (size_t escape; (escape = cell.find("\\|")) != std::string::npos;) {
      cell.erase(escape, 1);
    }
    ReadmeRow row;
    row.kind = cell.substr(0, cell.find('@'));
    // "a=N[,b=S]" becomes "a=N,[b=S]": one item per comma, optional
    // when it opens a bracket.
    std::string params = cell.substr(cell.find(':') + 1);
    for (size_t at; (at = params.find("[,")) != std::string::npos;) {
      params.replace(at, 2, ",[");
    }
    std::istringstream items(params);
    for (std::string item; std::getline(items, item, ',');) {
      ReadmeParam param;
      param.required = item.front() != '[';
      std::erase(item, '[');
      std::erase(item, ']');
      param.key = item.substr(0, item.find('='));
      const std::string placeholder = item.substr(item.find('=') + 1);
      if (samples.count(placeholder) != 0) {
        param.values = {samples.at(placeholder)};
      } else {
        std::istringstream words(placeholder);
        for (std::string word; std::getline(words, word, '|');) {
          param.values.push_back(word);
        }
      }
      row.params.push_back(param);
    }
    rows.push_back(row);
  }
  return rows;
}

TEST(FaultSpecTest, ReadmeGrammarTableIsWhatParseTakes) {
  const std::vector<ReadmeRow> rows = ReadmeGrammarRows();
  ASSERT_FALSE(rows.empty()) << "no fault grammar table in " << FGLB_README;
  std::set<FaultKind> kinds;
  for (const ReadmeRow& row : rows) {
    // `row` with its required params, the optional ones too when
    // `optional`, `skip` left out, and mode word `word`.
    auto entry = [&row](bool optional, size_t skip, size_t word) {
      std::string text = row.kind + "@10:";
      for (size_t i = 0; i < row.params.size(); ++i) {
        const ReadmeParam& p = row.params[i];
        if (i == skip || !(p.required || optional)) continue;
        if (text.back() != ':') text += ',';
        text += p.key + "=" + p.values[std::min(word, p.values.size() - 1)];
      }
      return text;
    };
    const size_t none = row.params.size();
    FaultSpec spec;
    std::string error;
    std::string text = entry(/*optional=*/true, none, 0);
    ASSERT_TRUE(FaultSpec::Parse(text, &spec, &error)) << text << ": " << error;
    kinds.insert(spec.events.at(0).kind);

    text = entry(/*optional=*/false, none, 0);
    // A net window must do something: one effect besides the required.
    if (row.kind == "net") text += "drop=0.5";
    EXPECT_TRUE(FaultSpec::Parse(text, &spec, &error)) << text << ": " << error;

    for (size_t i = 0; i < row.params.size(); ++i) {
      const ReadmeParam& p = row.params[i];
      if (p.required) {
        text = entry(/*optional=*/true, i, 0);
        EXPECT_FALSE(FaultSpec::Parse(text, &spec, &error)) << text;
        EXPECT_NE(error.find(p.key), std::string::npos)
            << text << " -> " << error;
      }
      for (size_t word = 1; word < p.values.size(); ++word) {
        text = entry(/*optional=*/true, none, word);
        EXPECT_TRUE(FaultSpec::Parse(text, &spec, &error))
            << text << ": " << error;
      }
    }
  }
  EXPECT_EQ(kinds.size(), static_cast<size_t>(FaultKind::kCtl) + 1)
      << "a fault kind has no row in README's table";
}

// --- the injector against a recording backend ---

class RecordingBackend : public FaultBackend {
 public:
  explicit RecordingBackend(Simulator* sim) : sim_(sim) {}

  bool reject_all = false;
  std::vector<std::string> log;

  bool CrashReplica(int id) override { return Note("crash", id, 0); }
  bool RestartReplica(int id) override { return Note("restart", id, 0); }
  bool SetDiskLatencyFactor(int id, double f) override {
    return Note("disk", id, f);
  }
  bool SetReplicaSlowdown(int id, double f) override {
    return Note("slow", id, f);
  }
  bool SetStatsDropout(int id, int mode) override {
    return Note("stats", id, mode);
  }
  bool SetTierFault(int id, int mode, double f) override {
    return Note(mode == kTierFail      ? "tier fail"
                : mode == kTierDegrade ? "tier degrade"
                                       : "tier restore",
                id, f);
  }
  bool CrashController() override { return Note("ctl crash", -1, 0); }
  bool RestartController() override { return Note("ctl restart", -1, 0); }

 private:
  bool Note(const char* kind, int target, double factor) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.0f %s %d %g", sim_->Now(), kind,
                  target, factor);
    log.push_back(buf);
    return !reject_all;
  }

  Simulator* sim_;
};

TEST(FaultInjectorTest, FiresRevertsAndRestartsOnSchedule) {
  Simulator sim;
  RecordingBackend backend(&sim);
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse(
      "crash@100:replica=1,restart=50;"
      "disk@30:server=0,factor=4,duration=20;"
      "stats@60:replica=0,mode=drop,duration=10",
      &spec, &error))
      << error;
  FaultInjector injector(&sim, &backend, std::move(spec), /*seed=*/1);
  injector.Arm();
  sim.RunToCompletion();
  const std::vector<std::string> expected = {
      "30 disk 0 4",     // spike applied
      "50 disk 0 1",     // reverted at 30 + 20
      "60 stats 0 1",    // drop-all dropout
      "70 stats 0 0",    // restored at 60 + 10
      "100 crash 1 0",   //
      "150 restart 1 0"  // restart 50s after the crash
  };
  EXPECT_EQ(backend.log, expected);
  EXPECT_EQ(injector.faults_injected(), 6u);
  EXPECT_EQ(injector.noop_faults(), 0u);
}

TEST(FaultInjectorTest, FiresAndRevertsEveryKindThroughItsHook) {
  Simulator sim;
  RecordingBackend backend(&sim);
  MetricsRegistry metrics;
  TraceLog trace;
  trace.EnableBuffering();
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse(
      "crash@10:replica=1,restart=5;"
      "disk@20:server=0,factor=4,duration=5;"
      "slow@30:replica=0,factor=3,duration=5;"
      "stats@40:replica=0,mode=partial,duration=5;"
      "migration@50:delay=2,fail=0.5,duration=5;"
      "tier@60:replica=0,mode=fail,duration=5;"
      "tier@70:replica=1,mode=degrade,factor=8,duration=5;"
      "net@80:drop=0.25,delay=1,duration=5;"
      "ctl@90:restart=5",
      &spec, &error))
      << error;
  FaultInjector injector(&sim, &backend, std::move(spec), /*seed=*/1);
  injector.BindObservability(&metrics, &trace);
  injector.Arm();
  sim.RunToCompletion();
  const std::vector<std::string> hooks = {
      "10 crash 1 0",        "15 restart 1 0",     "20 disk 0 4",
      "25 disk 0 1",         "30 slow 0 3",        "35 slow 0 1",
      "40 stats 0 2",        "45 stats 0 0",       "60 tier fail 0 1",
      "65 tier restore 0 1", "70 tier degrade 1 8", "75 tier restore 1 1",
      "90 ctl crash -1 0",   "95 ctl restart -1 0",
  };
  EXPECT_EQ(backend.log, hooks);
  // t kind target factor applied revert, one line per fault event.
  const std::vector<std::string> faults = {
      "10 crash 1 0 1 0",
      "15 restart 1 0 1 0",
      "20 disk 0 4 1 0",
      "25 disk 0 1 1 1",
      "30 slow 0 3 1 0",
      "35 slow 0 1 1 1",
      "40 stats 0 2 1 0",
      "45 stats 0 0 1 1",
      "50 migration_window -1 0.5 1 0",
      "55 migration_window -1 0 1 1",
      "60 tier 0 0 1 0",
      "65 tier 0 1 1 1",
      "70 tier 1 8 1 0",
      "75 tier 1 1 1 1",
      "80 net_window -1 0.25 1 0",
      "85 net_window -1 0 1 1",
      "90 ctl_crash -1 0 1 0",
      "95 ctl_restart -1 0 1 0",
  };
  std::vector<std::string> traced;
  for (const std::string& line : trace.BufferedLines()) {
    JsonValue event;
    ASSERT_TRUE(JsonValue::Parse(line, &event, &error)) << error;
    if (event.StringOr("phase", "") != "fault") continue;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%g %s %g %g %d %d",
                  event.NumberOr("t", -1),
                  event.StringOr("kind", "?").c_str(),
                  event.NumberOr("target", -2), event.NumberOr("factor", -1),
                  event.BoolOr("applied", false),
                  event.BoolOr("revert", false));
    traced.push_back(buf);
  }
  EXPECT_EQ(traced, faults);
  EXPECT_EQ(injector.faults_injected(), faults.size());
  EXPECT_EQ(injector.noop_faults(), 0u);
}

TEST(FaultInjectorTest, CountsNoopsWhenBackendRejects) {
  Simulator sim;
  RecordingBackend backend(&sim);
  backend.reject_all = true;
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse(
      "crash@10:replica=7,restart=5;slow@20:replica=9,factor=2,duration=50",
      &spec, &error))
      << error;
  FaultInjector injector(&sim, &backend, std::move(spec), /*seed=*/1);
  injector.Arm();
  sim.RunToCompletion();
  // Rejected faults schedule neither restarts nor reverts.
  EXPECT_EQ(backend.log.size(), 2u);
  EXPECT_EQ(injector.faults_injected(), 0u);
  EXPECT_EQ(injector.noop_faults(), 2u);
}

TEST(FaultInjectorTest, MigrationDecisionsAreSeedDeterministic) {
  auto draw = [](uint64_t seed) {
    Simulator sim;
    RecordingBackend backend(&sim);
    FaultSpec spec;
    std::string error;
    EXPECT_TRUE(FaultSpec::Parse("migration@0:delay=3,fail=0.5,duration=1000",
                                 &spec, &error))
        << error;
    FaultInjector injector(&sim, &backend, std::move(spec), seed);
    injector.Arm();
    sim.RunUntil(1);
    EXPECT_TRUE(injector.migration_window_active());
    std::string sequence;
    for (int i = 0; i < 64; ++i) {
      const auto d = injector.OnMigrationAttempt();
      sequence += d.fail ? 'F' : (d.delay_seconds > 0 ? 'D' : '.');
    }
    return sequence;
  };
  const std::string a = draw(11);
  EXPECT_EQ(a, draw(11));
  EXPECT_NE(a, draw(12));
  // Inside the window every attempt either fails or is delayed.
  EXPECT_EQ(a.find('.'), std::string::npos);
  EXPECT_NE(a.find('F'), std::string::npos);
  EXPECT_NE(a.find('D'), std::string::npos);
}

TEST(FaultInjectorTest, NoInterferenceOutsideMigrationWindow) {
  Simulator sim;
  RecordingBackend backend(&sim);
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse("migration@10:delay=5,fail=1,duration=20",
                               &spec, &error))
      << error;
  FaultInjector injector(&sim, &backend, std::move(spec), /*seed=*/3);
  injector.Arm();
  sim.RunUntil(5);  // before the window opens
  EXPECT_FALSE(injector.migration_window_active());
  auto d = injector.OnMigrationAttempt();
  EXPECT_FALSE(d.fail);
  EXPECT_DOUBLE_EQ(d.delay_seconds, 0.0);
  sim.RunUntil(20);  // inside
  EXPECT_TRUE(injector.migration_window_active());
  EXPECT_TRUE(injector.OnMigrationAttempt().fail);  // fail=1
  sim.RunUntil(35);  // window reverted at t = 30
  EXPECT_FALSE(injector.migration_window_active());
  d = injector.OnMigrationAttempt();
  EXPECT_FALSE(d.fail);
  EXPECT_DOUBLE_EQ(d.delay_seconds, 0.0);
}

TEST(FaultInjectorTest, AClosedInnerWindowLeavesTheOuterWindowsRates) {
  Simulator sim;
  RecordingBackend backend(&sim);
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse(
      "migration@0:delay=1,fail=0,duration=100;"
      "migration@10:delay=5,fail=1,duration=10;"
      "net@0:drop=0,delay=2,duration=100;"
      "net@10:drop=1,duration=10",
      &spec, &error))
      << error;
  FaultInjector injector(&sim, &backend, std::move(spec), /*seed=*/3);
  injector.Arm();
  sim.RunUntil(15);  // both inner windows open: fail=1, drop=1
  EXPECT_TRUE(injector.OnMigrationAttempt().fail);
  EXPECT_TRUE(injector.OnStatsReport().drop);
  sim.RunUntil(30);  // inner windows closed at t = 20
  ASSERT_TRUE(injector.migration_window_active());
  ASSERT_TRUE(injector.net_window_active());
  const auto migration = injector.OnMigrationAttempt();
  EXPECT_FALSE(migration.fail);
  EXPECT_DOUBLE_EQ(migration.delay_seconds, 1.0);
  const auto net = injector.OnStatsReport();
  EXPECT_FALSE(net.drop);
  EXPECT_DOUBLE_EQ(net.delay_seconds, 2.0);
  sim.RunUntil(105);  // outer windows closed at t = 100
  EXPECT_FALSE(injector.migration_window_active());
  EXPECT_FALSE(injector.net_window_active());
}

// --- end-to-end deterministic replay (the PR's acceptance check) ---

struct ChaosRun {
  std::string schedule;
  std::vector<std::string> actions;  // the --phase=action projection
  uint64_t completed = 0;
};

// A chaos-replica style scenario: TPC-W on two replicas plus RUBiS
// sharing one of them, with a crash/restart, a stats dropout and a
// migration-fault window injected mid-run.
ChaosRun RunChaos(uint64_t fault_seed) {
  SelectiveRetuner::Config config;
  config.max_migrations_per_interval = 2;
  ClusterHarness h(config);
  h.trace().EnableBuffering();
  // fglb_sim's chaos topology on 3 servers with 40 RUBiS clients.
  RunConfig run;
  run.scenario = Scenario::kChaosReplica;
  run.servers = 3;
  run.rubis_clients = 40;
  run.seed = 7;
  AssembleScenario(run, &h);

  FaultSpec spec;
  std::string error;
  EXPECT_TRUE(FaultSpec::Parse(
      "crash@150:replica=1,restart=60;"
      "stats@200:replica=0,mode=partial,duration=60;"
      "migration@100:delay=2,fail=0.4,duration=200",
      &spec, &error))
      << error;
  h.InjectFaults(std::move(spec), fault_seed);
  h.Start();
  h.RunFor(420);

  ChaosRun out;
  out.schedule = h.fault_injector()->spec().ToString();
  const std::vector<std::string> lines = h.trace().BufferedLines();
  std::string check_error;
  EXPECT_TRUE(CheckTraceLines(lines, &check_error)) << check_error;
  EXPECT_TRUE(ActionLines(lines, &out.actions, &check_error)) << check_error;
  out.completed = h.schedulers()[0]->total_completed() +
                  h.schedulers()[1]->total_completed();
  return out;
}

TEST(ChaosDeterminismTest, IdenticalSeedsReplayByteIdentically) {
  const ChaosRun a = RunChaos(5);
  const ChaosRun b = RunChaos(5);
  EXPECT_FALSE(a.schedule.empty());
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.actions, b.actions);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_GT(a.completed, 0u);
}

TEST(ChaosRecoveryTest, SlaReMetAfterCrashWindowWithBoundedMigrations) {
  SelectiveRetuner::Config config;
  config.max_migrations_per_interval = 2;
  ClusterHarness h(config);
  h.trace().EnableBuffering();
  h.AddServers(3);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  Replica* a = h.resources().CreateReplica(
      h.resources().servers()[0].get(), 8192);
  Replica* b = h.resources().CreateReplica(
      h.resources().servers()[1].get(), 8192, /*engine_seed=*/2);
  tpcw->AddReplica(a);
  tpcw->AddReplica(b);
  h.AddConstantClients(tpcw, 160, /*seed=*/31);

  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(
      FaultSpec::Parse("crash@150:replica=1,restart=60", &spec, &error))
      << error;
  h.InjectFaults(std::move(spec), /*seed=*/5);
  h.Start();
  h.RunFor(480);

  // The crash and its restart both applied (nothing degenerated into a
  // no-op), and the app kept serving capacity. The controller may have
  // legitimately released spare replicas again once load allowed.
  EXPECT_EQ(h.fault_injector()->faults_injected(), 2u);
  EXPECT_EQ(h.fault_injector()->noop_faults(), 0u);
  EXPECT_GE(tpcw->replicas().size(), 1u);

  // SLA re-met after the fault window (restart at t = 210 + warmup).
  const auto tail = h.Summarize(tpcw->app().id, 360, 480);
  EXPECT_GT(tail.queries, 0u);
  EXPECT_LT(tail.avg_latency, tpcw->app().sla_latency_seconds);
  EXPECT_LE(tail.sla_violations, 1);

  // Bounded migrations, read back from the decision trace: recovery
  // must not degenerate into class-placement flapping.
  int migrations = 0;
  for (const std::string& line : h.trace().BufferedLines()) {
    JsonValue event;
    std::string parse_error;
    ASSERT_TRUE(JsonValue::Parse(line, &event, &parse_error)) << parse_error;
    if (event.StringOr("phase", "") != "action") continue;
    const std::string kind = event.StringOr("kind", "");
    if (kind == "class_rescheduled" || kind == "io_eviction") ++migrations;
  }
  EXPECT_LE(migrations, 10);
  const auto& stats = h.retuner().migration_stats();
  EXPECT_LE(stats.max_attempts_observed,
            1 + SelectiveRetuner::kMigrationMaxRetries);
  EXPECT_LE(stats.applied + stats.abandoned, stats.started);
}

}  // namespace
}  // namespace fglb

#include "scenarios/run_config.h"

#include <functional>
#include <iterator>
#include <set>
#include <type_traits>
#include <utility>

#include "common/kv_spec.h"
#include "sim/fault_injector.h"

namespace fglb {
namespace {

// Indexed by Scenario.
constexpr const char* kScenarioNames[] = {
    "steady",        "burst",      "consolidation", "io",
    "chaos-replica", "chaos-disk", "chaos-net",     "chaos-ctl",
    "overload",      "tier-thrash", "tier-fail",    "cold-start",
};
static_assert(std::size(kScenarioNames) ==
              static_cast<size_t>(Scenario::kColdStart) + 1);

// How each field type prints and parses; a row's codec follows from
// its field's type. A switch prints as "on" / "off" and also parses
// from "1" / "0".
std::string Print(double value) { return FormatKvNumber(value); }
std::string Print(uint64_t value) { return std::to_string(value); }
std::string Print(int value) { return std::to_string(value); }
std::string Print(bool value) { return value ? "on" : "off"; }
std::string Print(const std::string& value) { return value; }
std::string Print(Scenario value) { return ScenarioName(value); }
std::string Print(ReplacementPolicy value) {
  return ReplacementPolicyName(value);
}

bool Read(const std::string& text, double* value) {
  return ParseKvNumber(text, value);
}
bool Read(const std::string& text, uint64_t* value) {
  return ParseKvCount(text, value);
}
bool Read(const std::string& text, int* value) {
  return ParseKvCount(text, value);
}
bool Read(const std::string& text, bool* value) {
  if (text != "on" && text != "off" && text != "1" && text != "0") {
    return false;
  }
  *value = text == "on" || text == "1";
  return true;
}
bool Read(const std::string& text, std::string* value) {
  *value = text;
  return true;
}
bool Read(const std::string& text, Scenario* value) {
  return ParseScenarioName(text, value);
}
bool Read(const std::string& text, ReplacementPolicy* value) {
  return ParseReplacementPolicy(text, value);
}

// Range checks on parsed values; one that can say more than "bad
// value" explains in *error.
bool Positive(const double& v, std::string*) { return v > 0; }
bool NonNegative(const double& v, std::string*) { return v >= 0; }
bool Fraction(const double& v, std::string*) { return v > 0 && v <= 1; }
bool AtLeastOne(const uint64_t& v, std::string*) { return v >= 1; }
bool AtLeastOne(const int& v, std::string*) { return v >= 1; }
bool CohortMode(const std::string& v, std::string*) {
  return v == "auto" || v == "on" || v == "off";
}
bool FaultSpecText(const std::string& v, std::string* error) {
  FaultSpec spec;
  return v.empty() || FaultSpec::Parse(v, &spec, error);
}

// One RunConfig row: its info-block key, whether fglb_sim takes it as
// a flag, how it prints, and how a printed value parses back (false =
// bad value, with the reason in *error when the check gives one).
// ToString, Parse, Set and fglb_sim's flags all walk one table of
// these, so a new knob is one row.
struct Field {
  const char* key;
  bool flag;
  std::function<std::string(const RunConfig&)> print;
  std::function<bool(const std::string&, RunConfig*, std::string*)> parse;
};

constexpr bool kFlag = true;
constexpr bool kNoFlag = false;

template <auto member>
using FieldType =
    std::remove_reference_t<decltype(std::declval<RunConfig&>().*member)>;

// The row at `member`, coded by its type and checked by `valid`.
template <auto member>
Field Make(const char* key, bool flag,
           bool (*valid)(const FieldType<member>&, std::string*) = nullptr) {
  return {key, flag, [](const RunConfig& run) { return Print(run.*member); },
          [valid](const std::string& text, RunConfig* run,
                  std::string* error) {
            return Read(text, &(run->*member)) &&
                   (valid == nullptr || valid(run->*member, error));
          }};
}

// Sorted by key: ToString prints in table order.
const Field kFields[] = {
    Make<&RunConfig::admission>("admission", kFlag),
    Make<&RunConfig::ckpt_interval_seconds>("ckpt_interval", kFlag,
                                            NonNegative),
    Make<&RunConfig::cohorts>("cohorts", kFlag, CohortMode),
    Make<&RunConfig::duration_seconds>("duration", kFlag, Positive),
    Make<&RunConfig::fault_seed>("fault_seed", kFlag),
    Make<&RunConfig::fault_spec>("fault_spec", kFlag, FaultSpecText),
    Make<&RunConfig::interval_seconds>("interval", kNoFlag, Positive),
    Make<&RunConfig::max_migrations_per_interval>("max_migrations", kNoFlag),
    Make<&RunConfig::mrc_opt_regret>("mrc_opt_regret", kFlag),
    Make<&RunConfig::mrc_sample_rate>("mrc_sample_rate", kFlag, Fraction),
    Make<&RunConfig::replacement>("replacement", kFlag),
    Make<&RunConfig::replica_pool_pages>("replica_pool_pages", kNoFlag,
                                         AtLeastOne),
    Make<&RunConfig::rubis_clients>("rubis_clients", kFlag, NonNegative),
    Make<&RunConfig::scenario>("scenario", kFlag),
    Make<&RunConfig::seed>("seed", kFlag),
    Make<&RunConfig::servers>("servers", kFlag, AtLeastOne),
    Make<&RunConfig::span_sample>("span_sample", kFlag),
    Make<&RunConfig::stats_guard>("stats_guard", kFlag),
    Make<&RunConfig::tier2_demote>("tier2_demote", kFlag),
    Make<&RunConfig::tier2_pages>("tier2_pages", kFlag),
    Make<&RunConfig::tier2_read_us>("tier2_read_us", kFlag, Positive),
    Make<&RunConfig::tpcw_clients>("tpcw_clients", kFlag, NonNegative),
};

}  // namespace

const char* ScenarioName(Scenario scenario) {
  return kScenarioNames[static_cast<size_t>(scenario)];
}

bool ParseScenarioName(const std::string& name, Scenario* out) {
  for (size_t i = 0; i < std::size(kScenarioNames); ++i) {
    if (name == kScenarioNames[i]) {
      *out = static_cast<Scenario>(i);
      return true;
    }
  }
  return false;
}

std::string RunConfig::ToString() const {
  std::string out;
  for (const Field& field : kFields) {
    if (!out.empty()) out += '\n';
    out += field.key;
    out += '=';
    out += field.print(*this);
  }
  return out;
}

bool RunConfig::Set(const std::string& key, const std::string& value,
                    std::string* error) {
  for (const Field& field : kFields) {
    if (key != field.key) continue;
    RunConfig set = *this;
    std::string why;
    if (!field.parse(value, &set, &why)) {
      return KvError(error, "bad run config value: " + key + "=" + value +
                                (why.empty() ? "" : " (" + why + ")"));
    }
    *this = std::move(set);
    return true;
  }
  return KvError(error, "unknown run config key: " + key);
}

std::vector<std::string> RunConfig::FlagKeys() {
  std::vector<std::string> keys;
  for (const Field& field : kFields) {
    if (field.flag) keys.emplace_back(field.key);
  }
  return keys;
}

bool RunConfig::Parse(const std::string& text, RunConfig* out,
                      std::string* error) {
  KvItems items;
  if (!SplitKvSpec(text, '\n', "run config", &items, error)) return false;
  RunConfig parsed;
  std::set<std::string> seen;
  for (const auto& [key, value] : items) {
    if (!parsed.Set(key, value, error)) return false;
    seen.insert(key);
  }
  for (const Field& field : kFields) {
    if (!seen.contains(field.key)) {
      return KvError(error, std::string("run config lacks key: ") + field.key);
    }
  }
  *out = std::move(parsed);
  return true;
}

}  // namespace fglb

#include "scenarios/run_config.h"

#include <functional>
#include <iterator>
#include <set>
#include <type_traits>
#include <utility>

#include "common/kv_spec.h"
#include "mrc/miss_ratio_curve.h"
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

// How each field type prints and parses; a field's codec follows from
// its type. Sub-configs go through their own ToString/Parse, and an
// absent optional sub-config prints as "".
std::string Print(double value) { return FormatKvNumber(value); }
std::string Print(uint64_t value) { return std::to_string(value); }
std::string Print(int value) { return std::to_string(value); }
std::string Print(const std::string& value) { return value; }
std::string Print(Scenario value) { return ScenarioName(value); }
std::string Print(ReplacementPolicy value) {
  return ReplacementPolicyName(value);
}
template <typename Config>
std::string Print(const Config& config) {
  return config.ToString();
}
template <typename Config>
std::string Print(const std::optional<Config>& config) {
  return config ? config->ToString() : std::string();
}

bool Read(const std::string& text, double* value, std::string*) {
  return ParseKvNumber(text, value);
}
bool Read(const std::string& text, uint64_t* value, std::string*) {
  return ParseKvCount(text, value);
}
bool Read(const std::string& text, int* value, std::string*) {
  return ParseKvCount(text, value);
}
bool Read(const std::string& text, std::string* value, std::string*) {
  *value = text;
  return true;
}
bool Read(const std::string& text, Scenario* value, std::string*) {
  return ParseScenarioName(text, value);
}
bool Read(const std::string& text, ReplacementPolicy* value, std::string*) {
  return ParseReplacementPolicy(text, value);
}
template <typename Config>
bool Read(const std::string& text, Config* config, std::string* error) {
  return Config::Parse(text, config, error);
}
template <typename Config>
bool Read(const std::string& text, std::optional<Config>* config,
          std::string* error) {
  config->reset();
  return text.empty() || Config::Parse(text, &config->emplace(), error);
}

// Range checks on parsed values.
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

// One RunConfig field: its key, how it prints, and how a printed value
// parses back (false = bad value; sub-config parsers also explain why
// in *error). ToString and Parse both walk one table of these, so a new
// field is one table entry.
struct Field {
  const char* key;
  std::function<std::string(const RunConfig&)> print;
  std::function<bool(const std::string&, RunConfig*, std::string*)> parse;
};

template <auto member>
using FieldType =
    std::remove_reference_t<decltype(std::declval<RunConfig&>().*member)>;

// The field at `member`, coded by its type and checked by `valid`.
template <auto member>
Field Make(const char* key,
           bool (*valid)(const FieldType<member>&, std::string*) = nullptr) {
  return {key, [](const RunConfig& run) { return Print(run.*member); },
          [valid](const std::string& text, RunConfig* run,
                  std::string* error) {
            return Read(text, &(run->*member), error) &&
                   (valid == nullptr || valid(run->*member, error));
          }};
}

// Sorted by key: ToString prints in table order.
const Field kFields[] = {
    Make<&RunConfig::admission>("admission"),
    Make<&RunConfig::ckpt_interval_seconds>("ckpt_interval", NonNegative),
    Make<&RunConfig::cohorts>("cohorts", CohortMode),
    Make<&RunConfig::duration_seconds>("duration", Positive),
    Make<&RunConfig::fault_seed>("fault_seed"),
    Make<&RunConfig::fault_spec>("fault_spec", FaultSpecText),
    Make<&RunConfig::interval_seconds>("interval", Positive),
    Make<&RunConfig::max_migrations_per_interval>("max_migrations"),
    // opt_regret travels as the MRC config's own spec string.
    {"mrc",
     [](const RunConfig& run) {
       MrcConfig mrc;
       mrc.opt_regret = run.opt_regret;
       return MrcSpecString(mrc);
     },
     [](const std::string& text, RunConfig* run, std::string* error) {
       MrcConfig mrc;
       if (!ParseMrcSpec(text, &mrc, error)) return false;
       run->opt_regret = mrc.opt_regret;
       return true;
     }},
    Make<&RunConfig::mrc_sample_rate>("mrc_sample_rate", Fraction),
    Make<&RunConfig::replacement>("replacement"),
    Make<&RunConfig::replica_pool_pages>("replica_pool_pages", AtLeastOne),
    Make<&RunConfig::rubis_clients>("rubis_clients", NonNegative),
    Make<&RunConfig::scenario>("scenario"),
    Make<&RunConfig::seed>("seed"),
    Make<&RunConfig::servers>("servers", AtLeastOne),
    Make<&RunConfig::spans>("spans"),
    Make<&RunConfig::stats>("stats"),
    Make<&RunConfig::tier>("tier"),
    Make<&RunConfig::tpcw_clients>("tpcw_clients", NonNegative),
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

bool RunConfig::Parse(const std::string& text, RunConfig* out,
                      std::string* error) {
  KvItems items;
  if (!SplitKvSpec(text, '\n', "run config", &items, error)) return false;
  RunConfig parsed;
  std::set<std::string> seen;
  for (const auto& [key, value] : items) {
    const Field* field = nullptr;
    for (const Field& candidate : kFields) {
      if (key == candidate.key) field = &candidate;
    }
    if (field == nullptr) {
      return KvError(error, "unknown run config key: " + key);
    }
    std::string field_error;
    if (!field->parse(value, &parsed, &field_error)) {
      return KvError(error, "bad run config value: " + key + "=" + value +
                  (field_error.empty() ? "" : " (" + field_error + ")"));
    }
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

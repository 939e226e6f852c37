// fglb_e2e: one run of the end-to-end benchmark (see README.md).
//
//   fglb_e2e --workload=consolidation --seed=1 --mode=timed
//            [--actions-out=F] [--trace-out=F]
//
// Assembles one named workload through ClusterHarness's public API in
// the order tools/fglb_sim uses, runs it under a benchmark-owned
// controller ticker that wall-clock-times every SelectiveRetuner::Tick,
// and prints one JSON object of raw measurements on stdout. Modes:
//   setup   build and arm the cluster, then exit (set-up time only)
//   timed   observability off: the end-to-end measurements
//   traced  observability on, decision trace buffered, recorders
//           attached; afterwards the recorded layer inputs are replayed
//           in isolation to time each layer (the "layers" object)
// --actions-out receives the action log as fglb_sim --output=actions-csv
// prints it; --trace-out (traced mode) the buffered decision trace.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/log_analyzer.h"
#include "mrc/mrc_tracker.h"
#include "scenarios/harness.h"
#include "scenarios/report.h"
#include "storage/partitioned_buffer_pool.h"
#include "storage/tiered_buffer_pool.h"
#include "workload/access_generator.h"
#include "workload/capture_hooks.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace {

using namespace fglb;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Simulated seconds per workload. Every workload keeps fglb_sim's
// default populations (120 TPC-W / 45 RUBiS clients, 4 servers).
// overload simulates ~5x the events per simulated second of the
// others, so it runs shorter to cost about the same wall time.
struct Workload {
  const char* name;
  double duration;
};
constexpr Workload kWorkloads[] = {
    {"consolidation", 1200},
    {"overload", 400},
    {"tier-thrash", 1200},
    {"chaos-net", 1200},
};
constexpr double kTpcwClients = 120;
constexpr double kRubisClients = 45;

// Caps on the layer inputs a traced run keeps for the isolated replays.
constexpr size_t kMaxSliceAccesses = 4'000'000;
constexpr size_t kMaxTemplates = 100'000;
constexpr uint64_t kHoldEvents = 2'000'000;

// Counts every engine's page accesses (all modes) and, in traced mode,
// keeps the inputs the isolated replays time: the query templates
// arriving and a slice of the page-access string each engine walked,
// both from `keep_from` on (the interfering tenant's arrival, so the
// slice sees the squeezed working set).
class LayerRecorder final : public ArrivalRecorder, public ExecutionRecorder {
 public:
  struct Access {
    PageId page;
    int32_t replica;
    AccessKind kind;
  };

  LayerRecorder(ClusterHarness* harness, bool keep, SimTime keep_from)
      : harness_(harness), keep_(keep), keep_from_(keep_from) {}

  void OnArrival(const QueryInstance& query) override {
    ++arrivals_;
    if (keep_ && templates_.size() < kMaxTemplates &&
        harness_->sim().Now() >= keep_from_) {
      templates_.push_back(query.tmpl);
    }
  }

  void OnExecution(int replica_id, ClassKey,
                   const std::vector<PageAccess>& accesses) override {
    accesses_ += accesses.size();
    if (!keep_ || harness_->sim().Now() < keep_from_) return;
    if (engines_.count(replica_id) == 0) {
      engines_[replica_id] =
          harness_->resources().FindReplica(replica_id)->engine().options();
    }
    for (const PageAccess& access : accesses) {
      if (slice_.size() == kMaxSliceAccesses) break;
      slice_.push_back({access.page, replica_id, access.kind});
    }
  }

  uint64_t arrivals() const { return arrivals_; }
  uint64_t accesses() const { return accesses_; }
  const std::vector<const QueryTemplate*>& templates() const {
    return templates_;
  }
  const std::vector<Access>& slice() const { return slice_; }
  const std::map<int, DatabaseEngine::Options>& engines() const {
    return engines_;
  }

 private:
  ClusterHarness* harness_;
  bool keep_;
  SimTime keep_from_;
  uint64_t arrivals_ = 0;
  uint64_t accesses_ = 0;
  std::vector<const QueryTemplate*> templates_;
  std::vector<Access> slice_;
  std::map<int, DatabaseEngine::Options> engines_;
};

// The controller's interval ticker, owned here instead of by the
// retuner so each Tick() can be timed from outside. It schedules and
// re-arms exactly as SelectiveRetuner::ArmTicker does (tick, then arm
// the next), so the event sequence — and every action — is the one
// fglb_sim produces. The bookkeeping after Tick() schedules nothing.
class TimedTicker {
 public:
  explicit TimedTicker(ClusterHarness* harness) : harness_(harness) {}

  void Arm() {
    harness_->sim().ScheduleAfter(
        harness_->retuner().config().interval_seconds, [this] { Fire(); });
  }

  const std::vector<double>& tick_us() const { return tick_us_; }
  const std::vector<double>& violating_tick_us() const {
    return violating_tick_us_;
  }
  double servers_avg() const {
    return tick_us_.empty() ? 0 : servers_sum_ / tick_us_.size();
  }

 private:
  void Fire() {
    const auto start = Clock::now();
    harness_->retuner().Tick();
    const double us = SecondsSince(start) * 1e6;
    tick_us_.push_back(us);
    const auto& samples = harness_->retuner().samples();
    if (!samples.empty()) {
      for (const auto& app : samples.back().apps) {
        if (!app.sla_met) {
          violating_tick_us_.push_back(us);
          break;
        }
      }
    }
    std::set<int> hosting;
    for (Replica* replica : harness_->resources().AllReplicas()) {
      hosting.insert(replica->server().id());
    }
    servers_sum_ += static_cast<double>(hosting.size());
    Arm();
  }

  ClusterHarness* harness_;
  std::vector<double> tick_us_;
  std::vector<double> violating_tick_us_;
  double servers_sum_ = 0;
};

struct Cluster {
  std::unique_ptr<ClusterHarness> harness;
  std::vector<ClientEmulator*> emulators;  // in creation order
};

// Builds the workload's cluster the way tools/fglb_sim's main() and
// Assemble() do for the same scenario, with --seed and --fault-seed
// both set to `seed`.
Cluster Assemble(const Workload& workload, uint64_t seed, bool observability) {
  const std::string name = workload.name;
  const double d = workload.duration;
  SelectiveRetuner::Config config;
  config.mrc.analysis_threads = static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  if (name == "chaos-net") config.max_migrations_per_interval = 2;
  TierConfig tier;
  if (name == "tier-thrash") tier.pages = 16384;

  Cluster cluster;
  cluster.harness = std::make_unique<ClusterHarness>(config, observability);
  ClusterHarness& harness = *cluster.harness;
  harness.resources().set_engine_defaults(ReplacementPolicy::kLru, tier);
  if (observability) harness.trace().EnableBuffering();
  harness.AddServers(4);
  ResourceManager& resources = harness.resources();
  PhysicalServer* first = resources.servers()[0].get();
  Scheduler* tpcw = harness.AddApplication(MakeTpcw());
  if (name == "overload") {
    tpcw->AddReplica(resources.CreateReplica(first, 8192));
    cluster.emulators.push_back(
        harness.AddConstantClients(tpcw, 7.5 * kTpcwClients, seed));
    harness.EnableAdmission(AdmissionConfig{});
    return cluster;
  }
  RubisOptions rubis_options;
  rubis_options.app_id = 2;
  Scheduler* rubis = harness.AddApplication(MakeRubis(rubis_options));
  Replica* shared = resources.CreateReplica(first, 8192);
  tpcw->AddReplica(shared);
  if (name == "chaos-net") {
    tpcw->AddReplica(
        resources.CreateReplica(resources.servers()[1].get(), 8192, 2));
  }
  rubis->AddReplica(shared);
  cluster.emulators.push_back(
      harness.AddConstantClients(tpcw, kTpcwClients, seed));
  if (name == "chaos-net") {
    cluster.emulators.push_back(
        harness.AddConstantClients(rubis, kRubisClients, seed + 1));
    harness.EnableStatsChannel(StatsChannelConfig{});
    char spec_text[160];
    std::snprintf(spec_text, sizeof(spec_text),
                  "net@%.0f:drop=0.08,dup=0.03,corrupt=0.02,reorder=0.05,"
                  "delay=1,duration=%.0f",
                  d / 3, d / 3);
    FaultSpec spec;
    std::string error;
    if (!FaultSpec::Parse(spec_text, &spec, &error)) {
      std::fprintf(stderr, "error: fault spec: %s\n", error.c_str());
      std::exit(1);
    }
    harness.InjectFaults(std::move(spec), seed);
    return cluster;
  }
  // tier-thrash steps RUBiS in sharper than consolidation does.
  const double step = name == "tier-thrash" ? 4.0 / 3.0 * kRubisClients
                                            : kRubisClients;
  cluster.emulators.push_back(harness.AddClients(
      rubis,
      std::make_unique<StepLoad>(
          std::vector<std::pair<SimTime, double>>{{d / 3, step}}),
      seed + 1));
  return cluster;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Sum of the registry counters named engine.<engine>.<infix>...<suffix>.
double SumEngineCounters(const JsonValue& counters, const std::string& infix,
                         const std::string& suffix) {
  double sum = 0;
  for (const auto& [name, value] : counters.object) {
    if (name.rfind("engine.", 0) != 0) continue;
    if (name.find(infix) == std::string::npos) continue;
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    sum += value.number;
  }
  return sum;
}

double NumberAt(const JsonValue& section, const std::string& name) {
  const JsonValue* value = section.Find(name);
  return value == nullptr ? 0 : value->number;
}

// DES hold model: `depth` pending events, each of which reschedules
// itself at an exponential delay until kHoldEvents have run.
double SimNsPerEvent(size_t depth, uint64_t seed) {
  Simulator sim;
  Rng rng(seed);
  uint64_t left = kHoldEvents;
  struct Hold {
    Simulator* sim;
    Rng* rng;
    uint64_t* left;
    void operator()() const {
      if (*left == 0) return;
      --*left;
      sim->ScheduleAfter(rng->Exponential(1.0), *this);
    }
  };
  for (size_t i = 0; i < std::max<size_t>(depth, 1); ++i) {
    sim.ScheduleAfter(rng.Exponential(1.0), Hold{&sim, &rng, &left});
  }
  const auto start = Clock::now();
  sim.RunToCompletion();
  return SecondsSince(start) * 1e9 /
         static_cast<double>(sim.executed_events());
}

// Access generation over the run's recorded query mix.
double WorkloadNsPerAccess(const std::vector<const QueryTemplate*>& templates,
                           uint64_t seed) {
  AccessGenerator generator;
  Rng rng(seed);
  std::vector<PageAccess> out;
  uint64_t generated = 0;
  const auto start = Clock::now();
  for (const QueryTemplate* tmpl : templates) {
    out.clear();
    generator.Generate(*tmpl, rng, &out);
    generated += out.size();
  }
  return generated == 0 ? 0 : SecondsSince(start) * 1e9 / generated;
}

// Replays the recorded access slice through fresh pools of each
// engine's size and tier, walking every access as
// DatabaseEngine::Execute does (extent read-ahead on sequential misses,
// tier-2 probe on random misses). No quotas: every access lands in the
// shared region. Returns ns per access and the replay's hit ratio.
std::pair<double, double> StorageReplay(const LayerRecorder& recorder) {
  struct Engine {
    std::unique_ptr<PartitionedBufferPool> pool;
    std::unique_ptr<TieredBufferPool> tier;
  };
  std::map<int, Engine> engines;
  for (const auto& [id, options] : recorder.engines()) {
    Engine& engine = engines[id];
    engine.pool = std::make_unique<PartitionedBufferPool>(
        options.buffer_pool_pages, options.replacement);
    if (options.tier.enabled()) {
      engine.tier = std::make_unique<TieredBufferPool>(options.tier);
      engine.pool->SetEvictionListener(
          [tier = engine.tier.get()](PartitionKey key, PageId page) {
            tier->Demote(key, page);
          });
    }
  }
  const auto start = Clock::now();
  for (const LayerRecorder::Access& access : recorder.slice()) {
    Engine& engine = engines[access.replica];
    PageCache& pool = engine.pool->PartitionOf(kSharedPartition);
    if (access.kind == AccessKind::kSequential) {
      if (!pool.Contains(access.page)) {
        const uint64_t offset = OffsetOf(access.page);
        const uint64_t extent_start = offset - offset % kExtentPages;
        for (uint64_t i = 0; i < kExtentPages; ++i) {
          pool.Insert(MakePageId(TableOf(access.page), extent_start + i));
        }
      }
      pool.Access(access.page);
    } else if (!pool.Access(access.page) && engine.tier != nullptr) {
      engine.tier->PromoteHit(kSharedPartition, access.page);
    }
  }
  const double seconds = SecondsSince(start);
  double hits = 0;
  double accesses = 0;
  for (const auto& [id, engine] : engines) {
    hits += static_cast<double>(engine.pool->shared_stats().hits);
    accesses += static_cast<double>(engine.pool->shared_stats().accesses);
  }
  const double n = static_cast<double>(recorder.slice().size());
  return {n == 0 ? 0 : seconds * 1e9 / n, accesses == 0 ? 0 : hits / accesses};
}

// Microseconds to recompute the MRC of every live class window once —
// the work one diagnosis of every class would cost. Median of 3.
double MrcRecomputeUs(ClusterHarness& harness) {
  std::vector<double> totals;
  for (int rep = 0; rep < 3; ++rep) {
    double total = 0;
    for (Replica* replica : harness.resources().AllReplicas()) {
      const StatsCollector& stats = replica->engine().stats();
      for (ClassKey key : stats.KnownClasses()) {
        const SpanPair<PageId> window = stats.AccessWindowSpans(key);
        if (window.size() < LogAnalyzer::kMinWindowForMrc) continue;
        MrcTracker tracker(harness.retuner().config().mrc);
        const auto start = Clock::now();
        tracker.Recompute(window);
        total += SecondsSince(start) * 1e6;
      }
    }
    totals.push_back(total);
  }
  return Median(totals);
}

class JsonObject {
 public:
  JsonObject& Num(const char* key, double value) {
    Key(key);
    out_ += JsonNumber(value);
    return *this;
  }
  JsonObject& Str(const char* key, const std::string& value) {
    Key(key);
    out_ += '"';
    out_ += JsonEscape(value);
    out_ += '"';
    return *this;
  }
  JsonObject& Raw(const char* key, const std::string& json) {
    Key(key);
    out_ += json;
    return *this;
  }
  std::string Done() const { return out_ + "}"; }

 private:
  void Key(const char* key) {
    out_ += out_.size() == 1 ? "\"" : ",\"";
    out_ += key;
    out_ += "\":";
  }
  std::string out_ = "{";
};

std::string NumberArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: fglb_e2e --workload=W --seed=N "
               "--mode=setup|timed|traced [--actions-out=F] "
               "[--trace-out=F]\nworkloads:",
               error);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string mode;
  std::string actions_out;
  std::string trace_out;
  uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
    } else if (key == "--mode") {
      mode = value;
    } else if (key == "--actions-out") {
      actions_out = value;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      const std::string error = "unknown argument " + arg;
      return Usage(error.c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown --workload");
  if (mode != "setup" && mode != "timed" && mode != "traced") {
    return Usage("--mode must be setup, timed or traced");
  }
  const bool traced = mode == "traced";
  SetGlobalLogLevel(LogLevel::kQuiet);

  // Set-up: harness construction through the armed fault schedule.
  // This is ClusterHarness::Start() step by step, with the retuner's
  // own ticker (SelectiveRetuner::Start) replaced by TimedTicker.
  const auto setup_start = Clock::now();
  Cluster cluster = Assemble(*workload, seed, traced);
  ClusterHarness& harness = *cluster.harness;
  LayerRecorder recorder(&harness, traced, workload->duration / 3);
  harness.AttachRecorders(&recorder, &recorder);
  for (ClientEmulator* emulator : cluster.emulators) emulator->Start();
  for (const auto& server : harness.resources().servers()) {
    server->ResetUtilizationWindow();
  }
  TimedTicker ticker(&harness);
  ticker.Arm();
  if (harness.fault_injector() != nullptr) harness.fault_injector()->Arm();
  harness.StartMetricsSampler();  // no-op with observability off
  const double setup_s = SecondsSince(setup_start);

  JsonObject result;
  result.Str("workload", workload->name).Num("seed", seed).Str("mode", mode);
  result.Num("sim_s", workload->duration).Num("setup_s", setup_s);
  if (mode == "setup") {
    std::printf("%s\n", result.Done().c_str());
    return 0;
  }

  const auto run_start = Clock::now();
  harness.RunFor(workload->duration);
  const double wall_s = SecondsSince(run_start);

  uint64_t completed = 0;
  uint64_t sla_ok = 0;
  uint64_t shed = 0;
  for (const auto& scheduler : harness.schedulers()) {
    completed += scheduler->total_completed();
    sla_ok += scheduler->total_sla_ok();
    shed += scheduler->total_shed();
  }
  double violation_intervals = 0;
  for (const auto& sample : harness.retuner().samples()) {
    for (const auto& app : sample.apps) {
      if (!app.sla_met) ++violation_intervals;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  result.Num("wall_s", wall_s)
      .Num("accesses", static_cast<double>(recorder.accesses()))
      .Num("submitted", static_cast<double>(recorder.arrivals()))
      .Num("completed", static_cast<double>(completed))
      .Num("sla_ok", static_cast<double>(sla_ok))
      .Num("shed", static_cast<double>(shed))
      .Num("violation_intervals", violation_intervals)
      .Num("servers_avg", ticker.servers_avg())
      .Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0)
      .Raw("tick_us", NumberArray(ticker.tick_us()));
  if (!actions_out.empty() &&
      !WriteFile(actions_out, ActionsCsv(harness.retuner().actions()))) {
    std::fprintf(stderr, "error: cannot write %s\n", actions_out.c_str());
    return 1;
  }
  if (!traced) {
    std::printf("%s\n", result.Done().c_str());
    return 0;
  }

  // Traced run: counters the program publishes, then isolated replays
  // of the recorded layer inputs.
  std::string trace_text;
  for (const std::string& line : harness.trace().BufferedLines()) {
    trace_text += line;
    trace_text += '\n';
  }
  if (!trace_out.empty() && !WriteFile(trace_out, trace_text)) {
    std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  harness.resources().PublishMetrics();
  JsonValue snapshot;
  std::string error;
  if (!JsonValue::Parse(harness.metrics().ToJson(), &snapshot, &error)) {
    std::fprintf(stderr, "error: metrics snapshot: %s\n", error.c_str());
    return 1;
  }
  const JsonValue empty;
  const JsonValue* counters_p = snapshot.Find("counters");
  const JsonValue* gauges_p = snapshot.Find("gauges");
  const JsonValue* histograms_p = snapshot.Find("histograms");
  const JsonValue& counters = counters_p != nullptr ? *counters_p : empty;
  const JsonValue& gauges = gauges_p != nullptr ? *gauges_p : empty;
  const JsonValue* mrc_hist =
      histograms_p != nullptr ? histograms_p->Find("controller.diagnose.mrc_us")
                              : nullptr;

  const double events = static_cast<double>(harness.sim().executed_events());
  const double depth_max = NumberAt(gauges, "sim.queue_depth_max");
  const double sim_ns = SimNsPerEvent(static_cast<size_t>(depth_max), seed);
  const double queries = static_cast<double>(recorder.arrivals());
  const double accesses = static_cast<double>(recorder.accesses());
  const double gen_ns = WorkloadNsPerAccess(recorder.templates(), seed);
  const auto [pool_ns, replay_hit_ratio] = StorageReplay(recorder);
  const double pool_accesses =
      SumEngineCounters(counters, ".bufferpool.", ".accesses");
  const double pool_hits = SumEngineCounters(counters, ".bufferpool.", ".hits");
  const double promotions =
      SumEngineCounters(counters, ".tier.", ".promotions");
  const double tier_misses = SumEngineCounters(counters, ".tier.", ".misses");
  const double tick_sum_us =
      std::accumulate(ticker.tick_us().begin(), ticker.tick_us().end(), 0.0);
  const double violating = static_cast<double>(
      ticker.violating_tick_us().size());
  const double actions =
      static_cast<double>(harness.retuner().actions().size());
  const double wall_ns = wall_s * 1e9;
  const double sim_share = sim_ns * events / wall_ns;
  const double workload_share = gen_ns * accesses / wall_ns;
  const double storage_share = pool_ns * accesses / wall_ns;
  const double core_share = tick_sum_us * 1e3 / wall_ns;

  JsonObject layers;
  layers.Num("sim.events", events)
      .Num("sim.events_per_s", events / wall_s)
      .Num("sim.queue_depth_max", depth_max)
      .Num("sim.ns_per_event", sim_ns)
      .Num("sim.est_share", sim_share)
      .Num("workload.queries", queries)
      .Num("workload.accesses_per_query",
           queries == 0 ? 0 : accesses / queries)
      .Num("workload.ns_per_access", gen_ns)
      .Num("workload.est_share", workload_share)
      .Num("storage.accesses", accesses)
      .Num("storage.hit_ratio", pool_accesses == 0 ? 0 : pool_hits /
                                                             pool_accesses)
      .Num("storage.evictions",
           SumEngineCounters(counters, ".bufferpool.", ".evictions"))
      .Num("storage.tier.demotions",
           SumEngineCounters(counters, ".tier.", ".demotions"))
      .Num("storage.tier.promotions", promotions)
      .Num("storage.tier.hit_ratio",
           promotions + tier_misses == 0
               ? 0
               : promotions / (promotions + tier_misses))
      .Num("storage.ns_per_access", pool_ns)
      .Num("storage.replay_hit_ratio", replay_hit_ratio)
      .Num("storage.est_share", storage_share)
      .Num("cluster.submitted", queries)
      .Num("cluster.completed", static_cast<double>(completed))
      .Num("cluster.shed", static_cast<double>(shed))
      .Num("cluster.shed_share",
           completed + shed == 0 ? 0
                                 : static_cast<double>(shed) /
                                       static_cast<double>(completed + shed))
      .Num("cluster.retries_denied", NumberAt(counters, "admission.retry.denied"))
      .Num("cluster.stats.reports",
           NumberAt(counters, "stats_channel.published"))
      .Num("cluster.stats.lost", NumberAt(counters, "stats_channel.dropped"))
      .Num("cluster.stats.rejected",
           NumberAt(counters, "stats_channel.corrupt_rejected") +
               NumberAt(counters, "stats_channel.late_rejected"))
      .Num("engine.queries", SumEngineCounters(counters, "", ".queries"))
      .Num("engine.timeouts", SumEngineCounters(counters, "", ".timeouts"))
      .Num("mrc.diagnoses",
           mrc_hist != nullptr ? mrc_hist->NumberOr("count", 0) : 0)
      .Num("mrc.recompute_us", MrcRecomputeUs(harness))
      .Num("core.ticks", static_cast<double>(ticker.tick_us().size()))
      .Num("core.tick_p50_us", Median(ticker.tick_us()))
      .Num("core.violating_ticks", violating)
      .Num("core.violating_tick_p50_us", Median(ticker.violating_tick_us()))
      .Num("core.sla_violation_intervals", violation_intervals)
      .Num("core.actions", actions)
      .Num("core.diagnosis_yield", violating == 0 ? 0 : actions / violating)
      .Num("core.share", core_share)
      .Num("dataplane.unattributed_share",
           1 - sim_share - workload_share - storage_share - core_share);
  result.Raw("layers", layers.Done());
  std::printf("%s\n", result.Done().c_str());
  return 0;
}

#ifndef FGLB_SIM_FAULT_INJECTOR_H_
#define FGLB_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/random.h"
#include "common/trace_log.h"
#include "sim/simulator.h"

namespace fglb {

// Deterministic, schedule-driven fault injection for the cluster
// simulation. The injector itself knows nothing about replicas or
// servers — it owns the schedule (parsed from a spec string or
// generated from a seed), fires each fault at its simulated time, and
// calls into a FaultBackend that applies the fault to the cluster.
// Everything is deterministic per (spec, seed): the schedule, the
// firing order (simulator tie-breaking) and every migration-fault
// decision (seeded Rng). Applied faults are recorded in the
// observability layer as "fault" trace events and fault.* counters.

// Each kind is one row of the grammar table in fault_injector.cc, in
// this order; a new kind goes last.
enum class FaultKind {
  kCrash,      // replica crash (optionally restarted later)
  kDisk,       // disk-latency spike on one server's I/O channel
  kSlow,       // slow-replica degradation (CPU demand multiplier)
  kStats,      // stats-collector dropout (missing/partial metrics)
  kMigration,  // window in which class migrations are delayed/failed
  kTier,       // second-tier cache failure (cold) or degradation (slow)
  kNet,        // window of lossy stats transport (drop/dup/corrupt/...)
  kCtl,        // controller crash (optionally restarted later)
};

// Stats dropout severities carried by kStats events (mirrors
// StatsDropout in engine/stats_collector.h; kept as int here so the
// sim library stays free of engine dependencies).
inline constexpr int kStatsDropAll = 1;
inline constexpr int kStatsPartial = 2;

// Tier fault modes carried by kTier events: fail drops the tier's
// contents and serves nothing until reverted (recovery is cold);
// degrade multiplies every tier-2 hit's service time by `factor`.
inline constexpr int kTierFail = 1;
inline constexpr int kTierDegrade = 2;

// One scheduled fault. Which fields a kind sets is its row of the
// grammar table (README shows the same rows); the others keep their
// defaults.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  SimTime time = 0;
  int replica = -1;
  int server = -1;
  double factor = 1.0;
  double duration = 0;        // <= 0 = never reverted
  double restart_after = -1;  // < 0 = never restarted
  int mode = 0;  // kStatsDropAll/kStatsPartial, kTierFail/kTierDegrade
  double delay_seconds = 0;
  double fail_rate = 0;
  // kNet per-report Bernoulli rates (each in [0, 1]).
  double drop_rate = 0;
  double dup_rate = 0;
  double corrupt_rate = 0;
  double reorder_rate = 0;

  bool operator==(const FaultEvent&) const = default;
};

// A full fault schedule. The textual grammar (see README):
//
//   spec   := entry (';' entry)*
//   entry  := kind '@' seconds ':' key '=' value (',' key '=' value)*
//
//   crash@120:replica=1,restart=60
//   disk@300:server=0,factor=8,duration=120
//   slow@200:replica=0,factor=3,duration=100
//   stats@250:replica=0,mode=drop,duration=50
//   migration@100:delay=5,fail=0.5,duration=300
//   tier@150:replica=0,mode=fail,duration=60
//   tier@150:replica=0,mode=degrade,factor=10,duration=60
//   net@200:drop=0.1,dup=0.05,corrupt=0.02,reorder=0.1,delay=2,duration=120
//   ctl@400:restart=30
struct FaultSpec {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  // Canonical serialization: events sorted by (time, insertion order),
  // fields in a fixed order, numbers in the shortest form that parses
  // back exactly. Two specs describing the same schedule serialize
  // byte-identically — the determinism tests compare these.
  std::string ToString() const;

  // Parses the grammar above; params use the common/kv_spec grammar,
  // and a kind takes only the params of its row in README's table,
  // the unbracketed ones required (`mode` is drop|partial for stats,
  // fail|degrade for tier). Ids are digit strings, factors finite
  // numbers > 0, rates finite numbers in [0, 1] and seconds finite
  // numbers >= 0; nothing may carry a space. An empty entry or param,
  // a repeated key, another kind's param or a trailing comma is
  // rejected with a message naming the offending token. On failure
  // returns false with a one-line message in *error; *out is left
  // untouched. Parse(ToString()) returns the same events.
  static bool Parse(const std::string& text, FaultSpec* out,
                    std::string* error);
};

// Knobs for seed-generated random schedules (chaos soak testing).
// Event times land in [min_time_fraction, max_time_fraction] of
// `duration`; targets are drawn uniformly from the id ranges.
struct RandomFaultProfile {
  int replicas = 2;  // replica ids drawn from [0, replicas)
  int servers = 2;   // server ids drawn from [0, servers)
  int crashes = 1;
  int disk_spikes = 1;
  int slowdowns = 1;
  int stats_dropouts = 1;
  int migration_windows = 1;
  // Off by default: pre-tier seeds must keep expanding to the
  // byte-identical schedules they always did.
  int tier_faults = 0;
  // Likewise off by default; drawn after tier faults for the same
  // seed-stability reason.
  int net_windows = 0;
  int ctl_crashes = 0;
  double min_time_fraction = 0.2;
  double max_time_fraction = 0.8;
};

// Deterministically expands (seed, duration, profile) into a schedule:
// the same seed always yields the byte-identical spec.
FaultSpec MakeRandomFaultSpec(uint64_t seed, double duration,
                              const RandomFaultProfile& profile = {});

// The cluster-side effector the injector drives. Implemented by
// ClusterHarness (scenarios layer); each hook returns false when the
// target no longer exists (e.g. a random schedule names a replica that
// already crashed) — the injector counts these as no-ops.
class FaultBackend {
 public:
  virtual ~FaultBackend() = default;
  virtual bool CrashReplica(int replica_id) = 0;
  // Re-provisions capacity for the applications `crashed_replica_id`
  // served when it crashed.
  virtual bool RestartReplica(int crashed_replica_id) = 0;
  virtual bool SetDiskLatencyFactor(int server_id, double factor) = 0;
  virtual bool SetReplicaSlowdown(int replica_id, double factor) = 0;
  // mode: 0 = none (restore), kStatsDropAll, kStatsPartial.
  virtual bool SetStatsDropout(int replica_id, int mode) = 0;
  // mode: 0 = restore, kTierFail, kTierDegrade (`factor` scales tier-2
  // hit latency).
  virtual bool SetTierFault(int replica_id, int mode, double factor) = 0;
  // kCtl hooks: halt the controller's diagnosis loop mid-run, then
  // bring it back (restoring from a checkpoint when one exists).
  virtual bool CrashController() = 0;
  virtual bool RestartController() = 0;
};

class FaultInjector {
 public:
  // What a migration attempt should experience right now (consulted by
  // the controller's migration interceptor).
  struct MigrationDecision {
    bool fail = false;
    double delay_seconds = 0;
  };

  // What one published interval report should experience in transit
  // (consulted by the StatsChannel). Outside any net window every
  // field stays at its default and the report is delivered untouched.
  struct NetDecision {
    bool drop = false;
    bool duplicate = false;
    bool corrupt = false;
    bool reorder = false;
    double delay_seconds = 0;
  };

  FaultInjector(Simulator* sim, FaultBackend* backend, FaultSpec spec,
                uint64_t seed);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Optional: record applied faults as fault.* counters and "fault"
  // trace events. Call before Arm().
  void BindObservability(MetricsRegistry* metrics, TraceLog* trace);

  // Schedules every event (at max(now, event time)). Idempotent.
  void Arm();

  // Decides the fate of one migration attempt. Outside any active
  // migration-fault window this returns {false, 0}; inside, failure is
  // a seeded Bernoulli draw and the delay is the window's. The draw
  // sequence is deterministic per seed and per attempt order.
  MigrationDecision OnMigrationAttempt();

  // Decides the fate of one stats report in transit. Outside any net
  // window this returns the all-default (deliver untouched) decision;
  // inside, each effect is a seeded Bernoulli draw on the window's
  // rate. A dropped report draws nothing further, so the decision
  // stream stays deterministic per seed and publish order.
  NetDecision OnStatsReport();

  bool migration_window_active() const { return migration_windows_ > 0; }
  bool net_window_active() const { return net_windows_ > 0; }
  const FaultSpec& spec() const { return spec_; }
  uint64_t faults_injected() const { return injected_; }
  // Events whose target no longer existed when they fired.
  uint64_t noop_faults() const { return noops_; }

 private:
  void Fire(const FaultEvent& event);
  void Revert(const FaultEvent& event);
  // Counts + traces one applied/noop (sub-)fault.
  void Note(const char* kind, int target, double factor, bool applied,
            bool revert);
  // One seeded Bernoulli draw on `rate` (none when it is 0), counted
  // under `counter` when it hits.
  bool Draw(double rate, const char* counter);

  Simulator* sim_;
  FaultBackend* backend_;
  FaultSpec spec_;
  Rng rng_;
  bool armed_ = false;
  uint64_t injected_ = 0;
  uint64_t noops_ = 0;
  // Open migration and net windows, each with the last one armed,
  // whose rates every decision uses while any window is open.
  int migration_windows_ = 0;
  FaultEvent migration_window_;
  int net_windows_ = 0;
  FaultEvent net_window_;
  MetricsRegistry* metrics_ = nullptr;
  TraceLog* trace_ = nullptr;
};

}  // namespace fglb

#endif  // FGLB_SIM_FAULT_INJECTOR_H_

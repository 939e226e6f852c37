#ifndef FGLB_CLUSTER_RESOURCE_MANAGER_H_
#define FGLB_CLUSTER_RESOURCE_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cluster/physical_server.h"
#include "cluster/replica.h"
#include "cluster/scheduler.h"
#include "common/metrics_registry.h"
#include "common/trace_log.h"
#include "sim/simulator.h"

namespace fglb {

// Global replica-allocation authority (the paper's resource manager in
// the scheduler tier): owns the shared pool of physical servers and
// every replica created on them, and makes cross-application
// allocation decisions. Schedulers hold borrowed Replica pointers.
class ResourceManager {
 public:
  explicit ResourceManager(Simulator* sim);
  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  // Adds a machine to the shared pool.
  PhysicalServer* AddServer(const PhysicalServer::Options& options);

  // Creates a database engine + replica on `server`. The engine's pool
  // holds `buffer_pool_pages` (must fit in the server's free memory).
  // Returns nullptr if memory does not fit.
  Replica* CreateReplica(PhysicalServer* server, uint64_t buffer_pool_pages,
                         uint64_t engine_seed = 1);

  // Provisions one more replica for `scheduler`'s application from the
  // pool: prefers an empty server, then the least-loaded server with
  // memory to spare that does not already host this application.
  // Returns nullptr if the pool is exhausted. The replica is added to
  // the scheduler's default set.
  Replica* ProvisionReplica(Scheduler* scheduler, uint64_t buffer_pool_pages);

  // Detaches `replica` from `scheduler` and destroys it, returning its
  // memory to the server. In-flight queries on it complete first in
  // simulated time, but no new queries are routed to it. If the replica
  // has not drained within `drain_timeout_seconds()` it is parked as a
  // zombie: its memory is released for placement purposes, destruction
  // waits for ResourceManager teardown (in-flight completion callbacks
  // reference the replica, so freeing it earlier would be unsound), and
  // the bounded poll keeps a stuck query from pinning the event queue —
  // and thus RunToCompletion — forever.
  void Decommission(Scheduler* scheduler, Replica* replica);

  // Destroys a replica that is no longer routed to (same drain rules as
  // Decommission, without touching any scheduler). Used by the fault
  // injector's crash path after it has detached the replica itself.
  void DestroyReplica(Replica* replica);

  // Live (non-zombie) replica by id, or nullptr.
  Replica* FindReplica(int id) const;

  double drain_timeout_seconds() const { return drain_timeout_seconds_; }
  void set_drain_timeout_seconds(double seconds) {
    drain_timeout_seconds_ = seconds;
  }
  // Replicas whose drain timed out and that now await teardown.
  size_t zombie_count() const { return zombies_.size(); }

  const std::vector<std::unique_ptr<PhysicalServer>>& servers() const {
    return servers_;
  }
  std::vector<Replica*> ReplicasOn(const PhysicalServer* server) const;
  std::vector<Replica*> AllReplicas() const;
  uint64_t FreeMemoryPages(const PhysicalServer* server) const;

  // Number of distinct servers hosting replicas of `scheduler`'s app.
  int ServersUsedBy(const Scheduler& scheduler) const;

  // Registry new replicas' engines bind their metrics to. Existing
  // replicas are bound retroactively; null stops binding new ones.
  void set_metrics(MetricsRegistry* registry);

  // Decision trace a drain-deadline event (phase="fault",
  // kind="drain_timeout") is emitted into when a replica fails to
  // drain; null disables.
  void set_trace(TraceLog* trace) { trace_ = trace; }

  // Execution timeout applied to every engine this manager owns —
  // existing replicas immediately, future ones at creation. 0 disables.
  void set_execution_timeout_seconds(double seconds);
  double execution_timeout_seconds() const {
    return execution_timeout_seconds_;
  }

  // The second-tier cache config baked into every engine created from
  // now on (controller provisioning and fault restarts included).
  // Unlike the settings above it cannot be applied retroactively — an
  // engine's pools are built in its constructor — so scenarios set it
  // before the first replica exists. The policy parameter is unread;
  // bench/e2e/fglb_e2e.cc passes one.
  void set_engine_defaults(ReplacementPolicy, const TierConfig& tier) {
    engine_tier_ = tier;
  }
  const TierConfig& engine_tier() const { return engine_tier_; }

  // Observer invoked for every replica this manager creates — existing
  // ones immediately, future ones (controller provisioning, fault
  // restarts) at creation. The capture/replay subsystem uses it to wire
  // engine recorder/source hooks onto replicas born mid-run. Empty
  // clears it.
  void set_replica_observer(std::function<void(Replica*)> observer);

  // Publishes every engine's buffer-pool stats into the bound registry.
  // The first publish after a replica is destroyed (released, crashed
  // or parked as a zombie) sets its engine's bufferpool and tier gauges
  // to 0 once; its counters keep their totals.
  void PublishMetrics();

 private:
  Simulator* sim_;
  MetricsRegistry* metrics_ = nullptr;
  TraceLog* trace_ = nullptr;
  double execution_timeout_seconds_ = 0;
  TierConfig engine_tier_;
  std::function<void(Replica*)> replica_observer_;
  std::vector<std::unique_ptr<PhysicalServer>> servers_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<Replica>> zombies_;
  // Engines of replicas destroyed since the last PublishMetrics.
  std::vector<std::string> destroyed_engines_;
  int next_replica_id_ = 0;
  double drain_timeout_seconds_ = 60;
};

}  // namespace fglb

#endif  // FGLB_CLUSTER_RESOURCE_MANAGER_H_

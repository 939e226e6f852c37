#include "cluster/resource_manager.h"

#include <algorithm>
#include <cassert>

namespace fglb {

ResourceManager::ResourceManager(Simulator* sim) : sim_(sim) {
  assert(sim_ != nullptr);
}

PhysicalServer* ResourceManager::AddServer(
    const PhysicalServer::Options& options) {
  const int id = static_cast<int>(servers_.size());
  servers_.push_back(std::make_unique<PhysicalServer>(sim_, id, options));
  return servers_.back().get();
}

std::vector<Replica*> ResourceManager::ReplicasOn(
    const PhysicalServer* server) const {
  std::vector<Replica*> result;
  for (const auto& replica : replicas_) {
    if (&replica->server() == server) result.push_back(replica.get());
  }
  return result;
}

std::vector<Replica*> ResourceManager::AllReplicas() const {
  std::vector<Replica*> result;
  result.reserve(replicas_.size());
  for (const auto& replica : replicas_) result.push_back(replica.get());
  return result;
}

uint64_t ResourceManager::FreeMemoryPages(const PhysicalServer* server) const {
  uint64_t used = 0;
  for (const auto& replica : replicas_) {
    if (&replica->server() == server) {
      used += replica->engine().pool().capacity();
    }
  }
  return used >= server->memory_pages() ? 0 : server->memory_pages() - used;
}

Replica* ResourceManager::CreateReplica(PhysicalServer* server,
                                        uint64_t buffer_pool_pages,
                                        uint64_t engine_seed) {
  assert(server != nullptr);
  if (FreeMemoryPages(server) < buffer_pool_pages) return nullptr;
  DatabaseEngine::Options options;
  options.buffer_pool_pages = buffer_pool_pages;
  options.seed = engine_seed;
  options.tier = engine_tier_;
  const int id = next_replica_id_++;
  auto engine = std::make_unique<DatabaseEngine>(
      "engine-" + std::to_string(id), options, &server->disk_model());
  if (metrics_ != nullptr) engine->BindMetrics(metrics_);
  engine->set_execution_timeout_seconds(execution_timeout_seconds_);
  replicas_.push_back(
      std::make_unique<Replica>(id, sim_, server, std::move(engine)));
  if (replica_observer_) replica_observer_(replicas_.back().get());
  return replicas_.back().get();
}

void ResourceManager::set_replica_observer(
    std::function<void(Replica*)> observer) {
  replica_observer_ = std::move(observer);
  if (!replica_observer_) return;
  for (const auto& replica : replicas_) replica_observer_(replica.get());
}

void ResourceManager::set_execution_timeout_seconds(double seconds) {
  execution_timeout_seconds_ = seconds;
  for (const auto& replica : replicas_) {
    replica->engine().set_execution_timeout_seconds(seconds);
  }
}

void ResourceManager::set_metrics(MetricsRegistry* registry) {
  metrics_ = registry;
  for (const auto& replica : replicas_) {
    replica->engine().BindMetrics(registry);
  }
}

void ResourceManager::PublishMetrics() {
  if (metrics_ == nullptr) return;
  for (const std::string& engine : destroyed_engines_) {
    metrics_->ZeroGauges("engine." + engine + ".bufferpool.");
    metrics_->ZeroGauges("engine." + engine + ".tier.");
  }
  destroyed_engines_.clear();
  for (const auto& replica : replicas_) {
    replica->engine().PublishMetrics();
  }
}

Replica* ResourceManager::ProvisionReplica(Scheduler* scheduler,
                                           uint64_t buffer_pool_pages) {
  assert(scheduler != nullptr);
  // Servers already hosting this application are not candidates: a new
  // replica there would share the very resources that are saturated.
  std::set<const PhysicalServer*> hosting;
  for (const Replica* r : scheduler->replicas()) hosting.insert(&r->server());

  PhysicalServer* best = nullptr;
  size_t best_load = 0;
  for (const auto& server : servers_) {
    if (hosting.contains(server.get())) continue;
    if (FreeMemoryPages(server.get()) < buffer_pool_pages) continue;
    const size_t load = ReplicasOn(server.get()).size();
    if (best == nullptr || load < best_load) {
      best = server.get();
      best_load = load;
    }
  }
  if (best == nullptr) return nullptr;
  Replica* replica = CreateReplica(best, buffer_pool_pages,
                                   /*engine_seed=*/0x1000 +
                                       static_cast<uint64_t>(
                                           next_replica_id_));
  if (replica == nullptr) return nullptr;
  scheduler->AddReplica(replica);
  return replica;
}

void ResourceManager::Decommission(Scheduler* scheduler, Replica* replica) {
  assert(scheduler != nullptr && replica != nullptr);
  scheduler->RemoveReplica(replica);
  DestroyReplica(replica);
}

void ResourceManager::DestroyReplica(Replica* replica) {
  assert(replica != nullptr);
  // Destroy only once drained; with the discrete-event model, queries
  // already admitted hold no pointer back into the replica after their
  // completion callbacks run, but those callbacks do reference it, so
  // defer destruction until the replica is idle.
  auto it = std::find_if(
      replicas_.begin(), replicas_.end(),
      [replica](const std::unique_ptr<Replica>& r) { return r.get() == replica; });
  if (it == replicas_.end()) return;
  if (metrics_ != nullptr) {
    destroyed_engines_.push_back(replica->engine().name());
  }
  if (replica->inflight() == 0) {
    replicas_.erase(it);
    return;
  }
  // Poll for drain, but only until the deadline: a query wedged on a
  // never-released lock must not keep the event queue — and with it
  // RunToCompletion — alive forever. Past the deadline the replica is
  // parked as a zombie owned by this manager, freed at teardown.
  std::unique_ptr<Replica> owned = std::move(*it);
  replicas_.erase(it);
  auto held = std::make_shared<std::unique_ptr<Replica>>(std::move(owned));
  const SimTime deadline = sim_->Now() + drain_timeout_seconds_;
  struct Drainer {
    static void Wait(ResourceManager* rm,
                     std::shared_ptr<std::unique_ptr<Replica>> held,
                     SimTime deadline) {
      if ((*held)->inflight() == 0) return;  // destroyed when held dies
      if (rm->sim_->Now() >= deadline) {
        if (rm->metrics_ != nullptr) {
          rm->metrics_->counter("cluster.drain_timeouts")->Increment();
        }
        Replica* r = held->get();
        rm->zombies_.push_back(std::move(*held));
        if (rm->trace_ != nullptr && rm->trace_->enabled()) {
          rm->trace_->Emit(TraceEvent("fault")
                               .Str("kind", "drain_timeout")
                               .Num("t", rm->sim_->Now())
                               .Int("replica", r->id())
                               .Uint("inflight", r->inflight())
                               .Uint("zombies", rm->zombies_.size()));
        }
        return;
      }
      rm->sim_->ScheduleAfter(1.0, [rm, held, deadline] {
        Wait(rm, held, deadline);
      });
    }
  };
  Drainer::Wait(this, held, deadline);
}

Replica* ResourceManager::FindReplica(int id) const {
  for (const auto& replica : replicas_) {
    if (replica->id() == id) return replica.get();
  }
  return nullptr;
}

int ResourceManager::ServersUsedBy(const Scheduler& scheduler) const {
  std::set<const PhysicalServer*> hosting;
  for (const Replica* r : scheduler.replicas()) hosting.insert(&r->server());
  return static_cast<int>(hosting.size());
}

}  // namespace fglb

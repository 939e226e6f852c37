#include "storage/partitioned_buffer_pool.h"

#include <cassert>

#include "storage/arc_buffer_pool.h"
#include "storage/buffer_pool.h"
#include "storage/clock_buffer_pool.h"

namespace fglb {

PartitionedBufferPool::PartitionedBufferPool(uint64_t capacity_pages,
                                             ReplacementPolicy policy)
    : capacity_(capacity_pages),
      policy_(policy),
      shared_(MakePool(kSharedPartition, capacity_pages)) {}

std::unique_ptr<PageCache> PartitionedBufferPool::MakePool(
    PartitionKey key, uint64_t capacity_pages) const {
  std::unique_ptr<PageCache> pool;
  switch (policy_) {
    case ReplacementPolicy::kLru:
      pool = std::make_unique<BufferPool>(capacity_pages);
      break;
    case ReplacementPolicy::kClock:
      pool = std::make_unique<ClockBufferPool>(capacity_pages);
      break;
    case ReplacementPolicy::kArc:
      pool = std::make_unique<ArcBufferPool>(capacity_pages);
      break;
  }
  BindSink(key, pool.get());
  return pool;
}

void PartitionedBufferPool::BindSink(PartitionKey key, PageCache* pool) const {
  if (listener_) {
    pool->set_eviction_sink(
        [listener = listener_, key](PageId page) { listener(key, page); });
  } else {
    pool->set_eviction_sink(nullptr);
  }
}

void PartitionedBufferPool::SetEvictionListener(EvictionListener listener) {
  listener_ = std::move(listener);
  BindSink(kSharedPartition, shared_.get());
  for (auto& [key, pool] : dedicated_) BindSink(key, pool.get());
}

bool PartitionedBufferPool::SetQuota(PartitionKey key, uint64_t quota_pages) {
  assert(key != kSharedPartition);
  auto it = dedicated_.find(key);
  const uint64_t current = it != dedicated_.end() ? it->second->capacity() : 0;
  const uint64_t new_total = dedicated_total_ - current + quota_pages;
  if (new_total > capacity_) return false;
  if (it != dedicated_.end()) {
    it->second->Resize(quota_pages);
  } else {
    dedicated_.emplace(key, MakePool(key, quota_pages));
  }
  dedicated_total_ = new_total;
  shared_->Resize(capacity_ - dedicated_total_);
  return true;
}

void PartitionedBufferPool::DropQuota(PartitionKey key) {
  auto it = dedicated_.find(key);
  if (it == dedicated_.end()) return;
  dedicated_total_ -= it->second->capacity();
  dedicated_.erase(it);
  dropped_.insert(key);
  shared_->Resize(capacity_ - dedicated_total_);
}

bool PartitionedBufferPool::HasQuota(PartitionKey key) const {
  return dedicated_.contains(key);
}

uint64_t PartitionedBufferPool::QuotaOf(PartitionKey key) const {
  auto it = dedicated_.find(key);
  return it != dedicated_.end() ? it->second->capacity() : 0;
}

PageCache* PartitionedBufferPool::PoolFor(PartitionKey key) {
  auto it = dedicated_.find(key);
  return it != dedicated_.end() ? it->second.get() : shared_.get();
}

const PageCache* PartitionedBufferPool::PoolFor(PartitionKey key) const {
  auto it = dedicated_.find(key);
  return it != dedicated_.end() ? it->second.get() : shared_.get();
}

bool PartitionedBufferPool::Access(PartitionKey key, PageId page) {
  return PoolFor(key)->Access(page);
}

bool PartitionedBufferPool::Insert(PartitionKey key, PageId page) {
  return PoolFor(key)->Insert(page);
}

bool PartitionedBufferPool::Contains(PartitionKey key, PageId page) const {
  return PoolFor(key)->Contains(page);
}

std::string PartitionMetricsPrefix(const std::string& prefix,
                                   PartitionKey key) {
  // PartitionKey is a ClassKey: (app << 32) | class.
  return prefix + "class_" + std::to_string(key >> 32) + "_" +
         std::to_string(key & 0xFFFFFFFFULL) + ".";
}

const BufferPoolStats& PartitionedBufferPool::StatsOf(PartitionKey key) const {
  return PoolFor(key)->stats();
}

std::vector<PartitionKey> PartitionedBufferPool::DedicatedKeys() const {
  std::vector<PartitionKey> keys;
  keys.reserve(dedicated_.size());
  for (const auto& [key, pool] : dedicated_) keys.push_back(key);
  return keys;
}

void PartitionedBufferPool::ResetStats() {
  shared_->ResetStats();
  for (auto& [key, pool] : dedicated_) pool->ResetStats();
}

namespace {

void PublishPool(MetricsRegistry* registry, const std::string& prefix,
                 const PageCache& pool) {
  const BufferPoolStats& stats = pool.stats();
  registry->counter(prefix + "accesses")->Set(stats.accesses);
  registry->counter(prefix + "hits")->Set(stats.hits);
  registry->counter(prefix + "misses")->Set(stats.misses);
  registry->counter(prefix + "evictions")->Set(stats.evictions);
  registry->counter(prefix + "read_ahead_inserts")
      ->Set(stats.prefetch_inserts);
  registry->gauge(prefix + "resident_pages")
      ->Set(static_cast<double>(pool.resident_pages()));
  registry->gauge(prefix + "capacity_pages")
      ->Set(static_cast<double>(pool.capacity()));
}

}  // namespace

void PartitionedBufferPool::PublishMetrics(MetricsRegistry* registry,
                                           const std::string& prefix) {
  if (registry == nullptr) return;
  // Zeroed first, so a partition dropped and set again since the last
  // publish reports its live values below.
  for (PartitionKey key : dropped_) {
    const std::string part = PartitionMetricsPrefix(prefix, key);
    registry->gauge(part + "resident_pages")->Set(0);
    registry->gauge(part + "capacity_pages")->Set(0);
  }
  dropped_.clear();
  PublishPool(registry, prefix + "shared.", *shared_);
  registry->gauge(prefix + "partitions")
      ->Set(static_cast<double>(dedicated_.size()));
  registry->gauge(prefix + "dedicated_pages")
      ->Set(static_cast<double>(dedicated_total_));
  for (const auto& [key, pool] : dedicated_) {
    PublishPool(registry, PartitionMetricsPrefix(prefix, key), *pool);
  }
}

}  // namespace fglb

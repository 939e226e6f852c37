#include "storage/tiered_buffer_pool.h"

namespace fglb {

TieredBufferPool::TieredBufferPool(const TierConfig& config)
    : config_(config), shared_(config.pages) {}

BufferPool* TieredBufferPool::PoolFor(PartitionKey key) {
  auto it = dedicated_.find(key);
  return it != dedicated_.end() ? it->second.get() : &shared_;
}

const BufferPool* TieredBufferPool::PoolFor(PartitionKey key) const {
  auto it = dedicated_.find(key);
  return it != dedicated_.end() ? it->second.get() : &shared_;
}

bool TieredBufferPool::SetQuota(PartitionKey key, uint64_t quota_pages) {
  if (key == kSharedPartition) return false;
  auto it = dedicated_.find(key);
  const uint64_t current = it != dedicated_.end() ? it->second->capacity() : 0;
  const uint64_t new_total = dedicated_total_ - current + quota_pages;
  if (new_total > config_.pages) return false;
  if (it != dedicated_.end()) {
    it->second->Resize(quota_pages);
  } else {
    dedicated_.emplace(key, std::make_unique<BufferPool>(quota_pages));
  }
  dedicated_total_ = new_total;
  shared_.Resize(config_.pages - dedicated_total_);
  return true;
}

void TieredBufferPool::DropQuota(PartitionKey key) {
  auto it = dedicated_.find(key);
  if (it == dedicated_.end()) return;
  dedicated_total_ -= it->second->capacity();
  dedicated_.erase(it);
  dropped_.insert(key);
  shared_.Resize(config_.pages - dedicated_total_);
}

uint64_t TieredBufferPool::QuotaOf(PartitionKey key) const {
  auto it = dedicated_.find(key);
  return it != dedicated_.end() ? it->second->capacity() : 0;
}

void TieredBufferPool::Demote(PartitionKey key, PageId page) {
  if (failed_ || !config_.demote) {
    ++dropped_demotions_;
    return;
  }
  if (PoolFor(key)->Insert(page)) ++demotions_;
}

bool TieredBufferPool::PromoteHit(PartitionKey key, PageId page) {
  if (failed_) {
    ++tier_misses_;
    return false;
  }
  auto it = dedicated_.find(key);
  if (it != dedicated_.end() && it->second->Erase(page)) {
    ++promotions_;
    return true;
  }
  if (shared_.Erase(page)) {
    ++promotions_;
    return true;
  }
  ++tier_misses_;
  return false;
}

bool TieredBufferPool::Contains(PartitionKey key, PageId page) const {
  if (failed_) return false;
  auto it = dedicated_.find(key);
  if (it != dedicated_.end() && it->second->Contains(page)) return true;
  return shared_.Contains(page);
}

void TieredBufferPool::SetFailed(bool failed) {
  if (failed && !failed_) {
    // Device loss: residency is gone, recovery starts cold.
    shared_.Clear();
    for (auto& [key, pool] : dedicated_) pool->Clear();
  }
  failed_ = failed;
}

uint64_t TieredBufferPool::resident_pages() const {
  uint64_t total = shared_.resident_pages();
  for (const auto& [key, pool] : dedicated_) total += pool->resident_pages();
  return total;
}

void TieredBufferPool::PublishMetrics(MetricsRegistry* registry,
                                      const std::string& prefix) {
  if (registry == nullptr) return;
  // Zeroed first, so a partition dropped and set again since the last
  // publish reports its live values below.
  for (PartitionKey key : dropped_) {
    const std::string part = PartitionMetricsPrefix(prefix, key);
    registry->gauge(part + "quota_pages")->Set(0);
    registry->gauge(part + "resident_pages")->Set(0);
  }
  dropped_.clear();
  registry->counter(prefix + "demotions")->Set(demotions_);
  registry->counter(prefix + "dropped_demotions")->Set(dropped_demotions_);
  registry->counter(prefix + "promotions")->Set(promotions_);
  registry->counter(prefix + "misses")->Set(tier_misses_);
  registry->gauge(prefix + "capacity_pages")
      ->Set(static_cast<double>(config_.pages));
  registry->gauge(prefix + "resident_pages")
      ->Set(static_cast<double>(resident_pages()));
  registry->gauge(prefix + "dedicated_pages")
      ->Set(static_cast<double>(dedicated_total_));
  registry->gauge(prefix + "partitions")
      ->Set(static_cast<double>(dedicated_.size()));
  registry->gauge(prefix + "latency_factor")->Set(latency_factor_);
  registry->gauge(prefix + "failed")->Set(failed_ ? 1.0 : 0.0);
  for (const auto& [key, pool] : dedicated_) {
    const std::string part = PartitionMetricsPrefix(prefix, key);
    registry->gauge(part + "quota_pages")
        ->Set(static_cast<double>(pool->capacity()));
    registry->gauge(part + "resident_pages")
        ->Set(static_cast<double>(pool->resident_pages()));
  }
}

}  // namespace fglb

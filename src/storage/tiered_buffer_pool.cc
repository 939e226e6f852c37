#include "storage/tiered_buffer_pool.h"

#include <vector>

namespace fglb {

TieredBufferPool::TieredBufferPool(const TierConfig& config)
    : config_(config), regions_(config.pages) {}

void TieredBufferPool::Demote(PartitionKey key, PageId page) {
  if (failed_ || !config_.demote) {
    ++dropped_demotions_;
    return;
  }
  if (regions_.Insert(key, page)) ++demotions_;
}

bool TieredBufferPool::PromoteHit(PartitionKey key, PageId page) {
  if (failed_) {
    ++tier_misses_;
    return false;
  }
  BufferPool& own = regions_.PartitionOf(key);
  BufferPool& shared = regions_.PartitionOf(kSharedPartition);
  if (own.Erase(page) || (&own != &shared && shared.Erase(page))) {
    ++promotions_;
    return true;
  }
  ++tier_misses_;
  return false;
}

bool TieredBufferPool::Contains(PartitionKey key, PageId page) const {
  return !failed_ && (regions_.Contains(key, page) ||
                      regions_.Contains(kSharedPartition, page));
}

void TieredBufferPool::SetFailed(bool failed) {
  // Device loss: residency is gone, recovery starts cold.
  if (failed && !failed_) regions_.Clear();
  failed_ = failed;
}

void TieredBufferPool::PublishMetrics(MetricsRegistry* registry,
                                      const std::string& prefix) {
  if (registry == nullptr) return;
  // Every partition's gauges are zeroed first, so a partition that no
  // longer exists reads 0 and the live ones are set below.
  registry->ZeroGauges(prefix + "class_");
  registry->counter(prefix + "demotions")->Set(demotions_);
  registry->counter(prefix + "dropped_demotions")->Set(dropped_demotions_);
  registry->counter(prefix + "promotions")->Set(promotions_);
  registry->counter(prefix + "misses")->Set(tier_misses_);
  registry->gauge(prefix + "capacity_pages")
      ->Set(static_cast<double>(config_.pages));
  registry->gauge(prefix + "resident_pages")
      ->Set(static_cast<double>(resident_pages()));
  registry->gauge(prefix + "dedicated_pages")
      ->Set(static_cast<double>(dedicated_total()));
  const std::vector<PartitionKey> keys = regions_.DedicatedKeys();
  registry->gauge(prefix + "partitions")
      ->Set(static_cast<double>(keys.size()));
  registry->gauge(prefix + "latency_factor")->Set(latency_factor_);
  registry->gauge(prefix + "failed")->Set(failed_ ? 1.0 : 0.0);
  for (PartitionKey key : keys) {
    const std::string part = PartitionMetricsPrefix(prefix, key);
    registry->gauge(part + "quota_pages")
        ->Set(static_cast<double>(regions_.QuotaOf(key)));
    registry->gauge(part + "resident_pages")
        ->Set(static_cast<double>(regions_.PartitionOf(key).resident_pages()));
  }
}

}  // namespace fglb

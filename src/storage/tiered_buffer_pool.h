#ifndef FGLB_STORAGE_TIERED_BUFFER_POOL_H_
#define FGLB_STORAGE_TIERED_BUFFER_POOL_H_

#include <cstdint>
#include <string>

#include "common/metrics_registry.h"
#include "storage/page.h"
#include "storage/partitioned_buffer_pool.h"

namespace fglb {

// Configuration of the SSD/NVM second-tier block cache that sits
// between the DRAM buffer pool and disk. A run records it as the
// tier2_pages, tier2_read_us and tier2_demote rows of its RunConfig,
// so a replayed run rebuilds the exact same tier. Zero pages means the
// tier is absent — the pre-tier behaviour.
struct TierConfig {
  // Total tier-2 capacity in pages; 0 disables the tier entirely.
  uint64_t pages = 0;
  // Service time of one tier-2 hit in microseconds (SSD random read).
  // Compare DiskModel's 2000us disk random read: a tier-2 hit is meant
  // to be an order of magnitude or two cheaper than a miss to disk.
  double read_us = 100.0;
  // Whether pages evicted from DRAM are demoted into the tier (the
  // write path that fills it). Off = the tier only drains; useful for
  // isolating the demote rung's effect in benchmarks.
  bool demote = true;

  bool enabled() const { return pages > 0; }
};

// The second-tier block cache itself: a PartitionedBufferPool of LRU
// regions, so the tier has the DRAM pool's shared region plus
// per-class quotas by construction, filled by demote-on-DRAM-evict and
// drained by promote-on-tier-2-hit. Purely a containment simulator
// like the DRAM pools — the engine turns PromoteHit into SSD service
// time via HitServiceSeconds() instead of charging the disk model.
//
// Fault hooks model an SSD device failing (SetFailed: the tier serves
// nothing and comes back cold) or degrading (SetLatencyFactor: hits
// still land but cost more), driven by the injector's `tier` fault.
class TieredBufferPool {
 public:
  explicit TieredBufferPool(const TierConfig& config);
  TieredBufferPool(const TieredBufferPool&) = delete;
  TieredBufferPool& operator=(const TieredBufferPool&) = delete;

  // Creates (or resizes) the dedicated tier-2 partition for `key`.
  // Returns false if the combined quotas would exceed the tier size or
  // `key` is kSharedPartition. QuotaOf is 0 for a key without one.
  bool SetQuota(PartitionKey key, uint64_t quota_pages) {
    return key != kSharedPartition && regions_.SetQuota(key, quota_pages);
  }
  void DropQuota(PartitionKey key) { regions_.DropQuota(key); }
  uint64_t QuotaOf(PartitionKey key) const { return regions_.QuotaOf(key); }

  // Demote landing for a page evicted from `key`'s DRAM partition.
  // Lands in the key's dedicated tier-2 partition when one exists,
  // else the shared region; dropped outright while the tier is failed
  // or when demotion is configured off.
  void Demote(PartitionKey key, PageId page);

  // Tier-2 lookup on a DRAM miss. On a hit the page is *removed* from
  // the tier (it is being promoted back into DRAM by the caller) and
  // true is returned; the caller charges HitServiceSeconds() instead
  // of a disk read. Checks the dedicated partition first, then the
  // shared region (a page demoted before the class had a quota still
  // counts). Always a miss while the tier is failed.
  bool PromoteHit(PartitionKey key, PageId page);

  bool Contains(PartitionKey key, PageId page) const;

  // --- fault hooks ---
  // Failing the tier drops every resident page (recovery is cold).
  void SetFailed(bool failed);
  bool failed() const { return failed_; }
  void SetLatencyFactor(double factor) { latency_factor_ = factor; }
  double latency_factor() const { return latency_factor_; }

  // Cost of one tier-2 hit under the current degradation factor.
  double HitServiceSeconds() const {
    return config_.read_us * 1e-6 * latency_factor_;
  }

  const TierConfig& config() const { return config_; }
  uint64_t capacity() const { return config_.pages; }
  uint64_t dedicated_total() const { return regions_.dedicated_total(); }
  uint64_t resident_pages() const { return regions_.resident_pages(); }
  uint64_t demotions() const { return demotions_; }
  uint64_t dropped_demotions() const { return dropped_demotions_; }
  uint64_t promotions() const { return promotions_; }
  uint64_t tier_misses() const { return tier_misses_; }

  // Publishes tier.* counters and gauges under `prefix` (cumulative;
  // per sampling interval, never per access). A partition that no
  // longer exists publishes 0 quota and resident pages.
  void PublishMetrics(MetricsRegistry* registry, const std::string& prefix);

 private:
  TierConfig config_;
  bool failed_ = false;
  double latency_factor_ = 1.0;
  uint64_t demotions_ = 0;
  uint64_t dropped_demotions_ = 0;
  uint64_t promotions_ = 0;
  uint64_t tier_misses_ = 0;
  PartitionedBufferPool regions_;
};

}  // namespace fglb

#endif  // FGLB_STORAGE_TIERED_BUFFER_POOL_H_

#ifndef FGLB_STORAGE_PARTITIONED_BUFFER_POOL_H_
#define FGLB_STORAGE_PARTITIONED_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace fglb {

// Every partition is LRU. This one-value policy remains only because
// bench/e2e/fglb_e2e.cc names it; nothing in src reads it.
enum class ReplacementPolicy { kLru };
// The partition type under the name bench/e2e/fglb_e2e.cc spells.
using PageCache = BufferPool;

// Key selecting which partition an access is charged to. The engine
// maps query classes to partition keys; kSharedPartition is the default
// partition holding every class without a dedicated quota.
using PartitionKey = uint64_t;
inline constexpr PartitionKey kSharedPartition = 0;

// "<prefix>class_<app>_<cls>.": where the per-class metrics of
// partition `key` live.
std::string PartitionMetricsPrefix(const std::string& prefix,
                                   PartitionKey key);

// A buffer pool divided into a shared region plus zero or more
// dedicated per-query-class partitions with fixed page quotas — the
// paper's memory-quota enforcement mechanism (§3.3.2, Table 1). The
// shared region always owns whatever capacity the dedicated quotas do
// not take. Every partition is an LRU BufferPool, the policy the
// planner's Mattson curves describe. The engine's DRAM pool is one;
// TieredBufferPool's SSD tier is another.
class PartitionedBufferPool {
 public:
  // Observes every page evicted under capacity pressure, tagged with
  // the partition it left — the tiered pool's demote feed.
  using EvictionListener = std::function<void(PartitionKey, PageId)>;

  // The policy parameter is unread; bench/e2e/fglb_e2e.cc passes one.
  explicit PartitionedBufferPool(uint64_t capacity_pages,
                                 ReplacementPolicy = ReplacementPolicy::kLru);
  PartitionedBufferPool(const PartitionedBufferPool&) = delete;
  PartitionedBufferPool& operator=(const PartitionedBufferPool&) = delete;

  // Creates (or resizes) the dedicated partition for `key` with
  // `quota_pages`. Returns false (and changes nothing) if the combined
  // quotas would exceed total capacity. `key` must not be
  // kSharedPartition.
  bool SetQuota(PartitionKey key, uint64_t quota_pages);

  // Removes a dedicated partition; its pages are dropped and its quota
  // returns to the shared region. No-op if absent.
  void DropQuota(PartitionKey key);

  bool HasQuota(PartitionKey key) const;
  uint64_t QuotaOf(PartitionKey key) const;  // 0 if no dedicated quota

  // References a page on behalf of `key`, hitting that key's partition
  // (dedicated if present, shared otherwise). Returns true on a hit.
  bool Access(PartitionKey key, PageId page);

  // Read-ahead landing for `key`'s partition. Returns true if the page
  // was actually brought in (false if already resident).
  bool Insert(PartitionKey key, PageId page);

  // Whether `page` is resident in the partition `key` maps to.
  bool Contains(PartitionKey key, PageId page) const;

  // Resolves the partition `key`'s accesses land in (dedicated when one
  // exists, shared otherwise). Valid until the next SetQuota/DropQuota.
  // The engine resolves once per query and walks the access string
  // against the pool directly, instead of paying the partition lookup
  // on every page access.
  BufferPool& PartitionOf(PartitionKey key) { return PoolFor(key); }

  // Installs (or replaces) the eviction listener on the shared region
  // and every dedicated partition, current and future.
  void SetEvictionListener(EvictionListener listener);

  uint64_t capacity() const { return capacity_; }
  uint64_t shared_capacity() const { return shared_.capacity(); }
  uint64_t dedicated_total() const { return dedicated_total_; }

  // Stats for a key's partition: the dedicated partition if one exists,
  // otherwise the shared region's aggregate stats.
  const BufferPoolStats& StatsOf(PartitionKey key) const;
  const BufferPoolStats& shared_stats() const { return shared_.stats(); }

  // Keys of all dedicated partitions, in key order.
  std::vector<PartitionKey> DedicatedKeys() const;

  void ResetStats();

  // Pages resident across the shared region and every partition.
  uint64_t resident_pages() const;

  // Drops every partition's resident pages (quotas and counters stay).
  void Clear();

  // Publishes cumulative stats into `registry` under `prefix`
  // ("<prefix>shared.misses", "<prefix>class_<app>_<cls>.hits", ...,
  // plus "<prefix>partitions" / "<prefix>dedicated_pages" gauges).
  // A partition that no longer exists publishes 0 resident and
  // capacity pages. Called once per sampling interval, not per access,
  // so the hot access path stays untouched.
  void PublishMetrics(MetricsRegistry* registry, const std::string& prefix);

 private:
  BufferPool& PoolFor(PartitionKey key);
  const BufferPool& PoolFor(PartitionKey key) const;
  // Points `pool`'s eviction sink at the current listener, tagged with
  // `key`.
  void BindSink(PartitionKey key, BufferPool& pool) const;

  uint64_t capacity_;
  uint64_t dedicated_total_ = 0;
  EvictionListener listener_;
  BufferPool shared_;
  // Map nodes never move, so a partition keeps its address while it
  // exists, as PartitionOf's contract needs.
  std::map<PartitionKey, BufferPool> dedicated_;
};

}  // namespace fglb

#endif  // FGLB_STORAGE_PARTITIONED_BUFFER_POOL_H_

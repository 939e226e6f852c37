#ifndef FGLB_STORAGE_CLOCK_BUFFER_POOL_H_
#define FGLB_STORAGE_CLOCK_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace fglb {

// CLOCK (second-chance) page cache, a subject of ablation A5
// (bench_ablation_replacement) beside BufferPool. Real engines often
// approximate LRU with CLOCK because it avoids list maintenance on
// every hit; but CLOCK does *not* satisfy the inclusion property
// Mattson's stack algorithm depends on, so MRC predictions are only
// approximate for it. A5 quantifies that gap — the sensitivity of the
// paper's whole memory-diagnosis pipeline to its LRU assumption.
class ClockBufferPool {
 public:
  explicit ClockBufferPool(uint64_t capacity_pages) : frames_(capacity_pages) {}

  // References `page`, setting its reference bit. Returns true on hit.
  bool Access(PageId page);

  bool Contains(PageId page) const { return map_.contains(page); }

  uint64_t resident_pages() const { return map_.size(); }
  const BufferPoolStats& stats() const { return stats_; }

 private:
  struct Frame {
    PageId page = 0;
    bool occupied = false;
    bool referenced = false;
  };

  // Finds a victim frame index, advancing the hand and clearing
  // reference bits (second chance). Requires capacity > 0.
  size_t FindVictim();

  BufferPoolStats stats_;
  // One frame per page of capacity.
  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t> map_;
  size_t hand_ = 0;
};

}  // namespace fglb

#endif  // FGLB_STORAGE_CLOCK_BUFFER_POOL_H_

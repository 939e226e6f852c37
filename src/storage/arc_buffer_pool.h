#ifndef FGLB_STORAGE_ARC_BUFFER_POOL_H_
#define FGLB_STORAGE_ARC_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>

#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace fglb {

// ARC (Adaptive Replacement Cache, Megiddo & Modha, FAST'03) page
// cache, a subject of ablation A5 (bench_ablation_replacement) beside
// BufferPool and ClockBufferPool. ARC splits residency into a recency
// list T1 (pages seen once) and a frequency list T2 (pages seen at
// least twice), shadowed by ghost lists B1/B2 of recently evicted page
// ids, and adapts the target size `p` of T1 from ghost hits. A one-shot
// scan marches through T1 without ever touching T2, so the hot set
// survives — the scan-resistance a pure LRU/CLOCK pool lacks. ARC is
// not a stack algorithm, so a Mattson miss-ratio curve does not
// describe it; the engines run LRU, and A5 measures how far ARC strays
// from the curve.
class ArcBufferPool {
 public:
  explicit ArcBufferPool(uint64_t capacity_pages)
      : capacity_(capacity_pages) {}

  // References `page`. Returns true on hit (page was in T1 or T2).
  // On a miss the page is brought in (unless capacity is zero),
  // adapting `p` when the page id is remembered in a ghost list.
  bool Access(PageId page);

  bool Contains(PageId page) const {
    auto it = map_.find(page);
    return it != map_.end() &&
           (it->second.where == List::kT1 || it->second.where == List::kT2);
  }

  uint64_t resident_pages() const { return t1_.size() + t2_.size(); }
  uint64_t capacity() const { return capacity_; }
  const BufferPoolStats& stats() const { return stats_; }

  // Current adaptation target for |T1| (observable for tests).
  uint64_t target_t1() const { return p_; }

 private:
  enum class List : uint8_t { kT1, kT2, kB1, kB2 };
  struct Slot {
    List where;
    std::list<PageId>::iterator it;
  };

  std::list<PageId>& ListOf(List which);
  // Moves the page in `slot` to the MRU end of `to`.
  void MoveTo(Slot& slot, List to);
  // Drops the LRU entry of `which` from the list and the map.
  void DropLru(List which);
  // ARC's REPLACE: evicts the LRU page of T1 or T2 into its ghost
  // list, steered by the target p. `ghost_hit_in_b2` biases toward
  // evicting from T1 on the |T1| == p boundary, per the paper.
  void Replace(bool ghost_hit_in_b2);

  uint64_t capacity_;
  BufferPoolStats stats_;
  uint64_t p_ = 0;  // adaptation target for |T1|
  std::list<PageId> t1_, t2_, b1_, b2_;  // front = MRU
  std::unordered_map<PageId, Slot> map_;
};

}  // namespace fglb

#endif  // FGLB_STORAGE_ARC_BUFFER_POOL_H_

#ifndef FGLB_STORAGE_BUFFER_POOL_H_
#define FGLB_STORAGE_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/page.h"
#include "storage/page_cache.h"

namespace fglb {

// LRU page cache modeling one InnoDB buffer pool (or one partition of
// it). Purely a containment simulator: it answers hit/miss and tracks
// counters; I/O timing for misses is the disk model's job.
//
// Pages live in an open-addressing table (linear probing, backward-shift
// deletion), and the recency list is doubly linked through the table's
// own slot indices, so a hit touches the page's slot and its two
// neighbours, an eviction takes the tail slot without a lookup, and a
// miss or an eviction allocates nothing once the table has grown to
// the pool's working size. The table grows on demand; it is never
// sized from the capacity.
class BufferPool : public PageCache {
 public:
  explicit BufferPool(uint64_t capacity_pages);

  // References `page`, promoting it to most-recently-used. Returns true
  // on a hit. On a miss the page is brought in, evicting the LRU page
  // if the pool is full.
  bool Access(PageId page) override;

  // Inserts a page without counting an access (read-ahead landing).
  // Returns true if the page was actually brought in; no-op returning
  // false if already resident (residency is refreshed to MRU by real
  // accesses only, matching InnoDB's treatment of prefetched pages).
  // A zero-capacity pool also returns false.
  bool Insert(PageId page) override;

  bool Contains(PageId page) const override;

  bool Erase(PageId page) override;

  // Shrinks or grows the pool, evicting LRU pages as needed. A zero
  // capacity pool misses every access and caches nothing.
  void Resize(uint64_t capacity_pages) override;

  // Drops all resident pages (counters are retained).
  void Clear() override;

  uint64_t resident_pages() const override { return resident_; }

 private:
  using Index = uint32_t;
  static constexpr Index kNil = ~Index{0};         // no neighbour
  static constexpr Index kVacant = kNil - 1;       // marks an empty slot

  struct Slot {
    PageId page = 0;
    Index prev = kVacant;  // toward the MRU end
    Index next = kNil;     // toward the LRU end
  };

  // The slot holding `page`, or the empty slot that ends its probe run.
  size_t FindSlot(PageId page) const;
  size_t HomeSlot(PageId page) const;
  // Makes `page` resident at the MRU end; `slot` is the empty slot
  // FindSlot returned for it.
  void PushFront(PageId page, size_t slot);
  // Drops the page in `slot` from the list and the table.
  void Remove(size_t slot);
  void Unlink(size_t slot);
  void LinkFront(size_t slot);
  // Points the entry's neighbours (or head_/tail_) at `slot`, where it
  // now sits.
  void Relink(size_t slot);
  // The link that names the entry after `prev` (head_ after kNil), and
  // the one that names the entry before `next` (tail_ before kNil).
  Index& NextLink(Index prev) {
    return prev != kNil ? slots_[prev].next : head_;
  }
  Index& PrevLink(Index next) {
    return next != kNil ? slots_[next].prev : tail_;
  }
  // Empties `slot`, shifting later members of its probe run back.
  void EraseSlot(size_t slot);
  void GrowTable();
  void EvictIfNeeded();

  Index head_ = kNil;  // most recently used
  Index tail_ = kNil;  // least recently used
  uint64_t resident_ = 0;
  // Power-of-two sized, at most three quarters full.
  std::vector<Slot> slots_;
  int hash_shift_ = 0;
};

}  // namespace fglb

#endif  // FGLB_STORAGE_BUFFER_POOL_H_

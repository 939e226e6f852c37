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
// The recency list is doubly linked through indices into a node slab
// (freed nodes go on a free list), and pages are found through an
// open-addressing PageId -> node table (linear probing, backward-shift
// deletion), so a miss or an eviction allocates nothing once the slab
// and table have grown to the pool's working size. Both grow on demand;
// neither is sized from the capacity.
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
  static constexpr Index kNil = ~Index{0};

  struct Node {
    PageId page = 0;
    Index prev = kNil;  // toward the MRU end
    Index next = kNil;  // toward the LRU end; free-list link when free
  };
  struct Slot {
    PageId page = 0;
    Index node = kNil;  // kNil marks an empty slot
  };

  // The slot holding `page`, or the empty slot that ends its probe run.
  size_t FindSlot(PageId page) const;
  size_t HomeSlot(PageId page) const;
  // Makes `page` resident at the MRU end; `slot` is the empty slot
  // FindSlot returned for it.
  void PushFront(PageId page, size_t slot);
  // Drops the page in `slot` from the table and the list.
  void Remove(size_t slot);
  void Unlink(Index node);
  void LinkFront(Index node);
  // Empties `slot`, shifting later members of its probe run back.
  void EraseSlot(size_t slot);
  void GrowTable();
  void EvictIfNeeded();

  std::vector<Node> nodes_;
  Index free_ = kNil;
  Index head_ = kNil;  // most recently used
  Index tail_ = kNil;  // least recently used
  uint64_t resident_ = 0;
  // Power-of-two sized, at most three quarters full.
  std::vector<Slot> slots_;
  int hash_shift_ = 0;
};

}  // namespace fglb

#endif  // FGLB_STORAGE_BUFFER_POOL_H_

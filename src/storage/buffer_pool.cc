#include "storage/buffer_pool.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace fglb {

namespace {

constexpr int kInitialSlotBits = 4;

}  // namespace

BufferPool::BufferPool(uint64_t capacity_pages)
    : capacity_(capacity_pages),
      slots_(size_t{1} << kInitialSlotBits),
      hash_shift_(64 - kInitialSlotBits) {}

size_t BufferPool::HomeSlot(PageId page) const {
  // Fibonacci hashing: the product's top bits depend on every bit of
  // the id, so ids differing only in their table bits still spread.
  return static_cast<size_t>((page * 0x9E3779B97F4A7C15ULL) >> hash_shift_);
}

size_t BufferPool::FindSlot(PageId page) const {
  const size_t mask = slots_.size() - 1;
  size_t i = HomeSlot(page);
  while (slots_[i].prev != kVacant && slots_[i].page != page) {
    i = (i + 1) & mask;
  }
  return i;
}

bool BufferPool::Access(PageId page) {
  ++stats_.accesses;
  const size_t slot = FindSlot(page);
  if (slots_[slot].prev != kVacant) {
    ++stats_.hits;
    if (slot != head_) {
      Unlink(slot);
      LinkFront(slot);
    }
    return true;
  }
  ++stats_.misses;
  if (capacity_ == 0) return false;
  PushFront(page, slot);
  EvictIfNeeded();
  return false;
}

bool BufferPool::Insert(PageId page) {
  if (capacity_ == 0) return false;
  const size_t slot = FindSlot(page);
  if (slots_[slot].prev != kVacant) return false;
  ++stats_.prefetch_inserts;
  PushFront(page, slot);
  EvictIfNeeded();
  return true;
}

bool BufferPool::Contains(PageId page) const {
  return slots_[FindSlot(page)].prev != kVacant;
}

bool BufferPool::Erase(PageId page) {
  const size_t slot = FindSlot(page);
  if (slots_[slot].prev == kVacant) return false;
  Remove(slot);
  return true;
}

void BufferPool::Resize(uint64_t capacity_pages) {
  capacity_ = capacity_pages;
  EvictIfNeeded();
}

void BufferPool::Clear() {
  head_ = tail_ = kNil;
  resident_ = 0;
  std::fill(slots_.begin(), slots_.end(), Slot{});
}

void BufferPool::PushFront(PageId page, size_t slot) {
  if ((resident_ + 1) * 4 > slots_.size() * 3) {
    GrowTable();
    slot = FindSlot(page);
  }
  slots_[slot].page = page;
  LinkFront(slot);
  ++resident_;
}

void BufferPool::Remove(size_t slot) {
  Unlink(slot);
  EraseSlot(slot);
  --resident_;
}

void BufferPool::Unlink(size_t slot) {
  const Slot& s = slots_[slot];
  NextLink(s.prev) = s.next;
  PrevLink(s.next) = s.prev;
}

void BufferPool::LinkFront(size_t slot) {
  slots_[slot].prev = kNil;
  slots_[slot].next = head_;
  Relink(slot);
}

void BufferPool::Relink(size_t slot) {
  const Slot& s = slots_[slot];
  NextLink(s.prev) = static_cast<Index>(slot);
  PrevLink(s.next) = static_cast<Index>(slot);
}

void BufferPool::EraseSlot(size_t hole) {
  const size_t mask = slots_.size() - 1;
  for (size_t i = (hole + 1) & mask; slots_[i].prev != kVacant;
       i = (i + 1) & mask) {
    // An entry may fill the hole unless its home lies cyclically in
    // (hole, i], where a lookup would start past the hole.
    const size_t home = HomeSlot(slots_[i].page);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      Relink(hole);
      hole = i;
    }
  }
  slots_[hole].prev = kVacant;
}

void BufferPool::GrowTable() {
  // Slot indices are 32-bit, with the top two values reserved.
  if (slots_.size() * 2 > kVacant) {
    throw std::length_error("BufferPool: slot index space exhausted");
  }
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
  --hash_shift_;
  // Re-thread the list in recency order, pushing LRU first.
  Index at = tail_;
  head_ = tail_ = kNil;
  for (; at != kNil; at = old[at].prev) {
    const size_t slot = FindSlot(old[at].page);
    slots_[slot].page = old[at].page;
    LinkFront(slot);
  }
}

void BufferPool::EvictIfNeeded() {
  while (resident_ > capacity_) {
    const size_t victim = tail_;
    const PageId page = slots_[victim].page;
    Remove(victim);
    ++stats_.evictions;
    if (sink_) sink_(page);
  }
}

}  // namespace fglb

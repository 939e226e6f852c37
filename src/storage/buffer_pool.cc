#include "storage/buffer_pool.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace fglb {

namespace {

constexpr int kInitialSlotBits = 4;

}  // namespace

BufferPool::BufferPool(uint64_t capacity_pages)
    : PageCache(capacity_pages),
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
  while (slots_[i].node != kNil && slots_[i].page != page) i = (i + 1) & mask;
  return i;
}

bool BufferPool::Access(PageId page) {
  ++stats_.accesses;
  const size_t slot = FindSlot(page);
  const Index node = slots_[slot].node;
  if (node != kNil) {
    ++stats_.hits;
    if (node != head_) {
      Unlink(node);
      LinkFront(node);
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
  if (slots_[slot].node != kNil) return false;
  ++stats_.prefetch_inserts;
  PushFront(page, slot);
  EvictIfNeeded();
  return true;
}

bool BufferPool::Contains(PageId page) const {
  return slots_[FindSlot(page)].node != kNil;
}

bool BufferPool::Erase(PageId page) {
  const size_t slot = FindSlot(page);
  if (slots_[slot].node == kNil) return false;
  Remove(slot);
  return true;
}

void BufferPool::Resize(uint64_t capacity_pages) {
  capacity_ = capacity_pages;
  EvictIfNeeded();
}

void BufferPool::Clear() {
  nodes_.clear();
  free_ = head_ = tail_ = kNil;
  resident_ = 0;
  std::fill(slots_.begin(), slots_.end(), Slot{});
}

void BufferPool::PushFront(PageId page, size_t slot) {
  if ((resident_ + 1) * 4 > slots_.size() * 3) {
    GrowTable();
    slot = FindSlot(page);
  }
  Index node = free_;
  if (node != kNil) {
    free_ = nodes_[node].next;
    nodes_[node].page = page;
  } else {
    if (nodes_.size() >= kNil) {
      throw std::length_error("BufferPool: node index space exhausted");
    }
    node = static_cast<Index>(nodes_.size());
    nodes_.push_back(Node{page, kNil, kNil});
  }
  LinkFront(node);
  slots_[slot] = Slot{page, node};
  ++resident_;
}

void BufferPool::Remove(size_t slot) {
  const Index node = slots_[slot].node;
  EraseSlot(slot);
  Unlink(node);
  nodes_[node].next = free_;
  free_ = node;
  --resident_;
}

void BufferPool::Unlink(Index node) {
  const Node& n = nodes_[node];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
}

void BufferPool::LinkFront(Index node) {
  Node& n = nodes_[node];
  n.prev = kNil;
  n.next = head_;
  if (head_ != kNil) {
    nodes_[head_].prev = node;
  } else {
    tail_ = node;
  }
  head_ = node;
}

void BufferPool::EraseSlot(size_t hole) {
  const size_t mask = slots_.size() - 1;
  for (size_t i = (hole + 1) & mask; slots_[i].node != kNil;
       i = (i + 1) & mask) {
    // An entry may fill the hole unless its home lies cyclically in
    // (hole, i], where a lookup would start past the hole.
    const size_t home = HomeSlot(slots_[i].page);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole].node = kNil;
}

void BufferPool::GrowTable() {
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
  --hash_shift_;
  for (const Slot& s : old) {
    if (s.node != kNil) slots_[FindSlot(s.page)] = s;
  }
}

void BufferPool::EvictIfNeeded() {
  while (resident_ > capacity_) {
    const PageId victim = nodes_[tail_].page;
    Remove(FindSlot(victim));
    ++stats_.evictions;
    NotifyEvicted(victim);
  }
}

}  // namespace fglb

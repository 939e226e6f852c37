#include "storage/arc_buffer_pool.h"

#include <algorithm>
#include <cassert>

namespace fglb {

std::list<PageId>& ArcBufferPool::ListOf(List which) {
  switch (which) {
    case List::kT1:
      return t1_;
    case List::kT2:
      return t2_;
    case List::kB1:
      return b1_;
    case List::kB2:
      return b2_;
  }
  return t1_;
}

void ArcBufferPool::MoveTo(Slot& slot, List to) {
  std::list<PageId>& dest = ListOf(to);
  dest.splice(dest.begin(), ListOf(slot.where), slot.it);
  slot.where = to;
  slot.it = dest.begin();
}

void ArcBufferPool::DropLru(List which) {
  std::list<PageId>& list = ListOf(which);
  assert(!list.empty());
  map_.erase(list.back());
  list.pop_back();
}

void ArcBufferPool::Replace(bool ghost_hit_in_b2) {
  assert(!t1_.empty() || !t2_.empty());
  const bool from_t1 =
      !t1_.empty() &&
      (t1_.size() > p_ || (ghost_hit_in_b2 && t1_.size() == p_) ||
       t2_.empty());
  const PageId victim = from_t1 ? t1_.back() : t2_.back();
  MoveTo(map_.at(victim), from_t1 ? List::kB1 : List::kB2);
  ++stats_.evictions;
}

bool ArcBufferPool::Access(PageId page) {
  ++stats_.accesses;
  if (capacity_ == 0) {
    ++stats_.misses;
    return false;
  }
  const uint64_t c = capacity_;
  auto it = map_.find(page);
  if (it != map_.end() &&
      (it->second.where == List::kT1 || it->second.where == List::kT2)) {
    // Case I: resident hit — promote to the frequency list.
    MoveTo(it->second, List::kT2);
    ++stats_.hits;
    return true;
  }
  ++stats_.misses;
  if (it != map_.end() && it->second.where == List::kB1) {
    // Case II: ghost hit in B1 — recency is paying off, grow p.
    const uint64_t delta =
        std::max<uint64_t>(1, b2_.size() / std::max<size_t>(1, b1_.size()));
    p_ = std::min(c, p_ + delta);
    Replace(false);
    MoveTo(it->second, List::kT2);
    return false;
  }
  if (it != map_.end() && it->second.where == List::kB2) {
    // Case III: ghost hit in B2 — frequency is paying off, shrink p.
    const uint64_t delta =
        std::max<uint64_t>(1, b1_.size() / std::max<size_t>(1, b2_.size()));
    p_ = p_ > delta ? p_ - delta : 0;
    Replace(true);
    MoveTo(it->second, List::kT2);
    return false;
  }
  // Case IV: cold miss.
  if (t1_.size() + b1_.size() == c) {
    if (t1_.size() < c) {
      DropLru(List::kB1);
      Replace(false);
    } else {
      // B1 empty and T1 full: the LRU of T1 leaves without a ghost.
      DropLru(List::kT1);
      ++stats_.evictions;
    }
  } else if (t1_.size() + b1_.size() < c &&
             t1_.size() + t2_.size() + b1_.size() + b2_.size() >= c) {
    if (t1_.size() + t2_.size() + b1_.size() + b2_.size() >= 2 * c) {
      DropLru(List::kB2);
    }
    if (t1_.size() + t2_.size() >= c) Replace(false);
  }
  t1_.push_front(page);
  map_[page] = Slot{List::kT1, t1_.begin()};
  return false;
}

}  // namespace fglb

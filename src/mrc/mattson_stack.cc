#include "mrc/mattson_stack.h"

#include <algorithm>
#include <cassert>

namespace fglb {

namespace {

void RecordHit(std::vector<uint64_t>& hits, uint64_t depth) {
  assert(depth >= 1);
  if (hits.size() < depth) hits.resize(depth, 0);
  ++hits[depth - 1];
}

}  // namespace

// --- ListMattsonStack ---

uint64_t ListMattsonStack::Access(PageId page) {
  ++total_;
  auto it = index_.find(page);
  if (it == index_.end()) {
    ++cold_misses_;
    stack_.push_front(page);
    index_[page] = stack_.begin();
    return 0;
  }
  uint64_t depth = 1;
  for (auto pos = stack_.begin(); pos != it->second; ++pos) ++depth;
  RecordHit(hits_, depth);
  stack_.splice(stack_.begin(), stack_, it->second);
  return depth;
}

void ListMattsonStack::Reset() {
  stack_.clear();
  index_.clear();
  hits_.clear();
  cold_misses_ = 0;
  total_ = 0;
}

// --- FenwickMattsonStack ---

namespace {

size_t FenwickSizeFor(size_t expected_accesses) {
  size_t size = 1025;
  while (expected_accesses + 2 > size) size *= 2;
  return size;
}

}  // namespace

FenwickMattsonStack::FenwickMattsonStack(size_t expected_accesses)
    : tree_(FenwickSizeFor(expected_accesses), 0) {}

void FenwickMattsonStack::EnsureCapacity(size_t slot) {
  if (slot + 2 <= tree_.size()) return;
  size_t new_size = tree_.size();
  while (slot + 2 > new_size) new_size *= 2;
  tree_.assign(new_size, 0);
  // Fenwick trees cannot simply be resized: rebuild from the marks
  // (last_slot_ holds exactly the marked slots). Writing each mark's
  // point value and folding children into parents in one sweep is
  // O(new_size), versus O(marks * log) for re-inserting mark by mark.
  for (const auto& [page, s] : last_slot_) tree_[s + 1] = 1;
  for (size_t i = 1; i < tree_.size(); ++i) {
    const size_t parent = i + (i & (~i + 1));
    if (parent < tree_.size()) tree_[parent] += tree_[i];
  }
  ++capacity_rebuilds_;
}

void FenwickMattsonStack::Reset() {
  std::fill(tree_.begin(), tree_.end(), 0);
  last_slot_.clear();
  next_slot_ = 0;
  marked_ = 0;
  hits_.clear();
  cold_misses_ = 0;
  total_ = 0;
  capacity_rebuilds_ = 0;
}

void FenwickMattsonStack::FenwickAdd(size_t slot, int64_t delta) {
  for (size_t i = slot + 1; i < tree_.size(); i += i & (~i + 1)) {
    tree_[i] += delta;
  }
}

uint64_t FenwickMattsonStack::FenwickPrefixSum(size_t slot) const {
  int64_t sum = 0;
  for (size_t i = slot + 1; i > 0; i -= i & (~i + 1)) sum += tree_[i];
  assert(sum >= 0);
  return static_cast<uint64_t>(sum);
}

void FenwickMattsonStack::CompactIfSparse() {
  if (next_slot_ < 4096 || next_slot_ < 4 * last_slot_.size()) return;
  // Reassign slots densely, preserving recency order.
  std::vector<std::pair<size_t, PageId>> by_slot;
  by_slot.reserve(last_slot_.size());
  for (const auto& [page, slot] : last_slot_) by_slot.emplace_back(slot, page);
  std::sort(by_slot.begin(), by_slot.end());
  std::fill(tree_.begin(), tree_.end(), 0);
  next_slot_ = 0;
  for (const auto& [old_slot, page] : by_slot) {
    last_slot_[page] = next_slot_;
    FenwickAdd(next_slot_, +1);
    ++next_slot_;
  }
}

uint64_t FenwickMattsonStack::Access(PageId page) {
  ++total_;
  auto it = last_slot_.find(page);
  uint64_t depth = 0;
  if (it != last_slot_.end()) {
    const size_t old_slot = it->second;
    // Pages referenced after this one's last reference sit above it.
    const uint64_t newer = marked_ - FenwickPrefixSum(old_slot);
    depth = newer + 1;
    RecordHit(hits_, depth);
    FenwickAdd(old_slot, -1);
    --marked_;
    // Drop the stale mapping so a tree rebuild inside EnsureCapacity
    // sees last_slot_ == the set of marked slots.
    last_slot_.erase(it);
  } else {
    ++cold_misses_;
  }
  const size_t slot = next_slot_++;
  EnsureCapacity(slot);
  last_slot_.emplace(page, slot);
  FenwickAdd(slot, +1);
  ++marked_;
  CompactIfSparse();
  return depth;
}

}  // namespace fglb

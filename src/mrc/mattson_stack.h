#ifndef FGLB_MRC_MATTSON_STACK_H_
#define FGLB_MRC_MATTSON_STACK_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "storage/page.h"

namespace fglb {

// Mattson's stack algorithm (Mattson et al., IBM Systems Journal 1970)
// for LRU. Replaying a page-reference trace through it yields, in one
// pass, the hit count an LRU cache of *every* size would have achieved,
// thanks to LRU's inclusion property. hit_counts()[d] is the number of
// references that hit at stack depth d+1, i.e. that a cache of at least
// d+1 pages would have satisfied; cold_misses() counts first-ever
// references (the paper's Hit[infinity]).
class MattsonStack {
 public:
  virtual ~MattsonStack() = default;

  // Replays one reference. Returns the 1-based stack depth of the page,
  // or 0 if this is the first reference to it.
  virtual uint64_t Access(PageId page) = 0;

  // Returns the stack to its freshly-constructed state while keeping
  // allocated capacity, so one instance can be reused as a scratch
  // structure across recomputations instead of reallocating.
  virtual void Reset() = 0;

  virtual const std::vector<uint64_t>& hit_counts() const = 0;
  virtual uint64_t cold_misses() const = 0;
  virtual uint64_t total_accesses() const = 0;
  virtual uint64_t distinct_pages() const = 0;
};

// Reference implementation: explicit LRU list, linear depth search.
// O(depth) per access — simple and obviously correct, used as the
// oracle in tests and for short traces.
class ListMattsonStack final : public MattsonStack {
 public:
  uint64_t Access(PageId page) override;
  void Reset() override;
  const std::vector<uint64_t>& hit_counts() const override { return hits_; }
  uint64_t cold_misses() const override { return cold_misses_; }
  uint64_t total_accesses() const override { return total_; }
  uint64_t distinct_pages() const override { return index_.size(); }

 private:
  std::list<PageId> stack_;  // front = most recently used
  std::unordered_map<PageId, std::list<PageId>::iterator> index_;
  std::vector<uint64_t> hits_;
  uint64_t cold_misses_ = 0;
  uint64_t total_ = 0;
};

// Production implementation: O(log n) per access using a Fenwick tree
// over reference timestamps. Each page's most recent reference owns a
// marked slot; the stack depth of a page equals the number of marked
// slots after its own (= pages referenced more recently). This is what
// makes per-query-class on-line MRC tracking cheap enough to run inside
// the engine.
class FenwickMattsonStack final : public MattsonStack {
 public:
  // `expected_accesses` presizes the tree so a replay of that many
  // references never triggers a capacity rebuild; 0 starts small and
  // grows geometrically on demand.
  explicit FenwickMattsonStack(size_t expected_accesses = 0);

  uint64_t Access(PageId page) override;
  void Reset() override;
  const std::vector<uint64_t>& hit_counts() const override { return hits_; }
  uint64_t cold_misses() const override { return cold_misses_; }
  uint64_t total_accesses() const override { return total_; }
  uint64_t distinct_pages() const override { return last_slot_.size(); }

  // Times the tree had to grow and be rebuilt (0 when presized
  // adequately) — observable so benchmarks can assert the presized
  // path stays rebuild-free.
  uint64_t capacity_rebuilds() const { return capacity_rebuilds_; }

 private:
  void FenwickAdd(size_t slot, int64_t delta);
  uint64_t FenwickPrefixSum(size_t slot) const;  // sum of slots [0, slot]
  void EnsureCapacity(size_t slot);
  void CompactIfSparse();

  std::vector<int64_t> tree_;                    // 1-based Fenwick tree
  std::unordered_map<PageId, size_t> last_slot_;  // page -> newest slot
  size_t next_slot_ = 0;
  uint64_t marked_ = 0;  // number of live (marked) slots
  std::vector<uint64_t> hits_;
  uint64_t cold_misses_ = 0;
  uint64_t total_ = 0;
  uint64_t capacity_rebuilds_ = 0;
};

}  // namespace fglb

#endif  // FGLB_MRC_MATTSON_STACK_H_

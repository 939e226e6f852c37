#ifndef FGLB_COMMON_RING_WINDOW_H_
#define FGLB_COMMON_RING_WINDOW_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "common/span_pair.h"

namespace fglb {

// Fixed-capacity sliding window over the most recent values pushed.
// The paper keeps "a window of the most recent page accesses issued by
// the DBMS on behalf of the queries belonging to each specific query
// class"; this is that window. Oldest entries are overwritten once the
// window is full.
template <typename T>
class RingWindow {
 public:
  explicit RingWindow(size_t capacity) : buffer_(capacity) {
    assert(capacity > 0);
  }

  void Push(const T& value) {
    buffer_[head_] = value;
    if (++head_ == buffer_.size()) head_ = 0;
    if (size_ < buffer_.size()) ++size_;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return buffer_.size(); }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == buffer_.size(); }

  // Element i of the window in arrival order: 0 is the oldest retained
  // value, size() - 1 the newest.
  const T& operator[](size_t i) const {
    assert(i < size_);
    const size_t start = (head_ + buffer_.size() - size_) % buffer_.size();
    return buffer_[(start + i) % buffer_.size()];
  }

  // Zero-copy wrap-aware snapshot of the window contents, oldest
  // first: one span when the live region is contiguous, two when it
  // wraps past the end of the buffer. Valid until the next Push or
  // Clear.
  SpanPair<T> AsSpans() const {
    if (size_ == 0) return {};
    const size_t start = (head_ + buffer_.size() - size_) % buffer_.size();
    const size_t first_len = std::min(size_, buffer_.size() - start);
    return SpanPair<T>(
        std::span<const T>(buffer_.data() + start, first_len),
        std::span<const T>(buffer_.data(), size_ - first_len));
  }

  // Copies the window contents (oldest first) into a vector.
  std::vector<T> ToVector() const { return AsSpans().ToVector(); }

  void Clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::vector<T> buffer_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace fglb

#endif  // FGLB_COMMON_RING_WINDOW_H_

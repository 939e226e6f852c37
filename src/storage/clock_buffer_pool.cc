#include "storage/clock_buffer_pool.h"

#include <cassert>

namespace fglb {

size_t ClockBufferPool::FindVictim() {
  assert(!frames_.empty());
  for (;;) {
    Frame& frame = frames_[hand_];
    const size_t index = hand_;
    hand_ = (hand_ + 1) % frames_.size();
    if (!frame.occupied || !frame.referenced) return index;
    frame.referenced = false;  // second chance
  }
}

bool ClockBufferPool::Access(PageId page) {
  ++stats_.accesses;
  auto it = map_.find(page);
  if (it != map_.end()) {
    ++stats_.hits;
    frames_[it->second].referenced = true;
    return true;
  }
  ++stats_.misses;
  if (frames_.empty()) return false;
  const size_t index = FindVictim();
  Frame& frame = frames_[index];
  if (frame.occupied) {
    map_.erase(frame.page);
    ++stats_.evictions;
  }
  frame = Frame{.page = page, .occupied = true, .referenced = true};
  map_[page] = index;
  return false;
}

}  // namespace fglb

#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace fglb {
namespace {

constexpr size_t kChunkNodes = 1024;   // pool growth granularity
constexpr size_t kMinBuckets = 32;     // calendar never shrinks below this
// Largest double we trust to convert to uint64_t without overflow.
constexpr double kMaxVirtualBucket = 9.0e18;

}  // namespace

Simulator::Simulator() {
  calendar_.heads.assign(kMinBuckets, nullptr);
  calendar_.tails.assign(kMinBuckets, nullptr);
  calendar_.mask = kMinBuckets - 1;
}

Simulator::~Simulator() {
  for (EventNode* head : calendar_.heads) {
    for (EventNode* node = head; node != nullptr; node = node->next) {
      node->destroy(node);
    }
  }
}

Simulator::EventNode* Simulator::PrepareNode(SimTime when) {
  EventNode* node = free_list_;
  if (node != nullptr) {
    free_list_ = node->next;
  } else {
    chunks_.push_back(std::make_unique<EventNode[]>(kChunkNodes));
    EventNode* chunk = chunks_.back().get();
    for (size_t i = kChunkNodes - 1; i > 0; --i) {
      chunk[i].next = free_list_;
      free_list_ = &chunk[i];
    }
    node = &chunk[0];
  }
  node->when = when;
  node->seq = next_sequence_++;
  node->next = nullptr;
  return node;
}

void Simulator::ReleaseNode(EventNode* node) {
  node->next = free_list_;
  free_list_ = node;
}

void Simulator::CommitNode(EventNode* node) {
  ++pending_;
  if (queue_depth_max_ != nullptr) {
    queue_depth_max_->Update(static_cast<double>(pending_));
  }
  CalendarInsert(node);
}

uint64_t Simulator::VirtualBucketOf(SimTime when) const {
  double quotient = when / calendar_.width;
  if (quotient >= kMaxVirtualBucket) {
    return static_cast<uint64_t>(kMaxVirtualBucket);
  }
  if (quotient < 0) return 0;
  return static_cast<uint64_t>(quotient);
}

void Simulator::CalendarInsert(EventNode* node) {
  Calendar& c = calendar_;
  node->vbucket = VirtualBucketOf(node->when);
  // An empty calendar leaves the cursor wherever the last drain ended;
  // snap it to the incoming event so the next dequeue starts on target.
  // The `<` arm is defensive: ScheduleAt's `when >= now_` contract
  // already keeps new events at or ahead of the cursor's bucket.
  if (c.count == 0 || node->vbucket < c.cursor) c.cursor = node->vbucket;
  const size_t index = node->vbucket & c.mask;
  EventNode*& head = c.heads[index];
  EventNode*& tail = c.tails[index];
  if (head == nullptr) {
    node->next = nullptr;
    head = tail = node;
  } else if (EventLess(tail, node)) {
    // Common case: keys arrive mostly in (when, seq) order — batch
    // floods of same-timestamp events append in O(1) instead of
    // walking the whole bucket list.
    node->next = nullptr;
    tail->next = node;
    tail = node;
  } else if (EventLess(node, head)) {
    node->next = head;
    head = node;
  } else {
    EventNode* prev = head;
    while (prev->next != nullptr && EventLess(prev->next, node)) {
      prev = prev->next;
    }
    node->next = prev->next;
    prev->next = node;
  }
  ++c.count;
  if (c.count > 2 * c.heads.size()) CalendarResize(2 * c.heads.size());
}

Simulator::EventNode* Simulator::PeekMin() {
  Calendar& c = calendar_;
  if (c.count == 0) return nullptr;
  const size_t nbuckets = c.heads.size();
  // Scan one full year of virtual buckets from the cursor. A bucket's
  // list is (when, seq)-sorted, which also sorts it by year, so the
  // head's cached vbucket tells us whether this bucket has an event in
  // the cursor's year.
  for (size_t scanned = 0; scanned < nbuckets; ++scanned) {
    EventNode* head = c.heads[c.cursor & c.mask];
    if (head != nullptr && head->vbucket == c.cursor) return head;
    ++c.cursor;
  }
  // Sparse tail: nothing within a whole year of the cursor. Direct
  // search across bucket heads (each is its bucket's minimum) and jump
  // the cursor to the winner.
  EventNode* best = nullptr;
  for (EventNode* head : c.heads) {
    if (head != nullptr && (best == nullptr || EventLess(head, best))) {
      best = head;
    }
  }
  assert(best != nullptr);
  c.cursor = best->vbucket;
  return best;
}

void Simulator::CalendarResize(size_t new_buckets) {
  Calendar& c = calendar_;
  EventNode* all = nullptr;
  double min_when = std::numeric_limits<double>::infinity();
  double max_when = -std::numeric_limits<double>::infinity();
  for (EventNode*& head : c.heads) {
    while (head != nullptr) {
      EventNode* node = head;
      head = node->next;
      node->next = all;
      all = node;
      min_when = std::min(min_when, node->when);
      max_when = std::max(max_when, node->when);
    }
  }
  const size_t count = c.count;
  c.heads.assign(new_buckets, nullptr);
  c.tails.assign(new_buckets, nullptr);
  c.mask = new_buckets - 1;
  // Brown's rule of thumb: bucket width near the mean inter-event gap
  // keeps ~1 event per bucket per year. Degenerate spans (all events at
  // one instant) keep the previous width; same-key events chain in one
  // bucket where the tail fast path keeps inserts O(1).
  const double span = max_when - min_when;
  if (count > 1 && span > 0) {
    c.width = std::max(span / static_cast<double>(count), 1e-9);
  }
  c.count = 0;
  c.cursor = count > 0 ? VirtualBucketOf(min_when) : 0;
  while (all != nullptr) {
    EventNode* node = all;
    all = all->next;
    CalendarInsert(node);
  }
}

void Simulator::PopMin(EventNode* node) {
  --pending_;
  Calendar& c = calendar_;
  const size_t index = node->vbucket & c.mask;
  assert(c.heads[index] == node);
  c.heads[index] = node->next;
  if (c.heads[index] == nullptr) c.tails[index] = nullptr;
  --c.count;
  const size_t nbuckets = c.heads.size();
  if (nbuckets > kMinBuckets && c.count < nbuckets / 2) {
    CalendarResize(nbuckets / 2);
  }
}

void Simulator::BindMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    events_executed_ = nullptr;
    queue_depth_ = nullptr;
    queue_depth_max_ = nullptr;
    return;
  }
  events_executed_ = registry->counter("sim.events_executed");
  queue_depth_ = registry->gauge("sim.queue_depth");
  queue_depth_max_ = registry->max_gauge("sim.queue_depth_max");
}

void Simulator::RunUntil(SimTime until) {
  while (true) {
    EventNode* node = PeekMin();
    if (node == nullptr || node->when > until) break;
    PopMin(node);
    now_ = node->when;
    NoteExecuted();
    node->run(this, node);
  }
  if (now_ < until) {
    // Nothing left before `until`; advance the clock so callers can
    // keep stepping in fixed intervals.
    now_ = until;
  }
}

void Simulator::RunToCompletion() {
  while (EventNode* node = PeekMin()) {
    PopMin(node);
    now_ = node->when;
    NoteExecuted();
    node->run(this, node);
  }
}

}  // namespace fglb

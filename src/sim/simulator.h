#ifndef FGLB_SIM_SIMULATOR_H_
#define FGLB_SIM_SIMULATOR_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/metrics_registry.h"

namespace fglb {

// Simulated time, in seconds.
using SimTime = double;

// Discrete-event simulation kernel. Events are closures ordered by
// firing time; ties break by scheduling order so runs are fully
// deterministic. The whole cluster model (clients, schedulers, CPU and
// disk queues, the retuning controller) is driven off one Simulator.
//
// Hot-path design (the million-client scale work): events are
// pool-allocated intrusively-linked nodes whose callback lives in a
// small inline buffer (heap fallback only for oversized captures), and
// the pending set is a calendar queue (Brown '88) — O(1) amortized
// insert/dequeue against the O(log n) binary heap, with no per-event
// malloc/free and no std::function type-erasure overhead.
// sim_determinism_test checks its dispatch order against a reference
// priority queue over (when, seq).
class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (>= Now()). Any
  // callable, including move-only ones; callables up to
  // kInlineCallbackBytes are stored inside the pooled event node.
  template <typename F>
  void ScheduleAt(SimTime when, F&& fn) {
    assert(when >= now_);
    EventNode* node = PrepareNode(when);
    BindCallback(node, std::forward<F>(fn));
    CommitNode(node);
  }

  // Schedules `fn` to run `delay` (>= 0) seconds from now.
  template <typename F>
  void ScheduleAfter(SimTime delay, F&& fn) {
    assert(delay >= 0);
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Runs events in time order until the queue drains or the next event
  // would fire after `until`. The clock is left at max(Now(), until);
  // events beyond `until` stay queued.
  void RunUntil(SimTime until);

  // Runs until the event queue is empty.
  void RunToCompletion();

  size_t pending_events() const { return pending_; }
  uint64_t executed_events() const { return executed_; }

  // Registers "sim.queue_depth", "sim.queue_depth_max" and
  // "sim.events_executed" in `registry` and updates them as the event
  // loop runs. The executed counter is exact (one relaxed add per
  // dispatched event); the queue-depth gauge is sampled every
  // kQueueDepthSampleEvery events — storing it per event is measurable
  // overhead at calendar-queue event rates. The sampled gauge misses
  // bursts between samples, so the max gauge tracks the true high-water
  // mark from every insert and resets on snapshot read. A null registry
  // unbinds and costs one branch.
  void BindMetrics(MetricsRegistry* registry);

  // Callables at most this big (and at most max_align_t-aligned) are
  // stored inline in the pooled event node; bigger ones cost one heap
  // allocation per event. Sized for the cluster's fattest hot-path
  // closure (a scheduler completion chain holding a CompletionCallback).
  static constexpr size_t kInlineCallbackBytes = 104;
  static constexpr uint64_t kQueueDepthSampleEvery = 64;

 private:
  struct EventNode {
    SimTime when;
    uint64_t seq;
    // Virtual (un-wrapped) calendar bucket index; cached at insert so
    // the dequeue scan never re-derives bucket membership from floats.
    uint64_t vbucket;
    EventNode* next;
    // Moves the callback out, destroys it, releases the node back to
    // the pool, then invokes — so the callback itself may schedule new
    // events straight into the freed node.
    void (*run)(Simulator*, EventNode*);
    // Destroys the callback without invoking (simulator teardown).
    void (*destroy)(EventNode*);
    alignas(std::max_align_t) unsigned char storage[kInlineCallbackBytes];
  };

  static bool EventLess(const EventNode* a, const EventNode* b) {
    if (a->when != b->when) return a->when < b->when;
    return a->seq < b->seq;
  }

  // Calendar queue state (Brown '88): power-of-two bucket array of
  // (when, seq)-sorted intrusive lists, a cursor walking virtual
  // buckets, and width/occupancy-driven resizing.
  struct Calendar {
    std::vector<EventNode*> heads;
    std::vector<EventNode*> tails;
    uint64_t mask = 0;  // heads.size() - 1
    double width = 1e-3;
    uint64_t cursor = 0;  // virtual bucket the next dequeue scans from
    size_t count = 0;
  };

  template <typename F>
  void BindCallback(EventNode* node, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCallbackBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(node->storage)) Fn(std::forward<F>(fn));
      node->run = &RunInline<Fn>;
      node->destroy = &DestroyInline<Fn>;
    } else {
      ::new (static_cast<void*>(node->storage))
          Fn*(new Fn(std::forward<F>(fn)));
      node->run = &RunHeap<Fn>;
      node->destroy = &DestroyHeap<Fn>;
    }
  }

  template <typename Fn>
  static void RunInline(Simulator* sim, EventNode* node) {
    Fn* stored = std::launder(reinterpret_cast<Fn*>(node->storage));
    Fn fn = std::move(*stored);
    stored->~Fn();
    sim->ReleaseNode(node);
    fn();
  }
  template <typename Fn>
  static void DestroyInline(EventNode* node) {
    std::launder(reinterpret_cast<Fn*>(node->storage))->~Fn();
  }
  template <typename Fn>
  static void RunHeap(Simulator* sim, EventNode* node) {
    Fn* fn = *std::launder(reinterpret_cast<Fn**>(node->storage));
    sim->ReleaseNode(node);
    (*fn)();
    delete fn;
  }
  template <typename Fn>
  static void DestroyHeap(EventNode* node) {
    delete *std::launder(reinterpret_cast<Fn**>(node->storage));
  }

  // Pool + queue plumbing (simulator.cc).
  EventNode* PrepareNode(SimTime when);
  void CommitNode(EventNode* node);
  void ReleaseNode(EventNode* node);
  // Next event in (when, seq) order, or null; stays queued.
  EventNode* PeekMin();
  // Unlinks `node`, which must be the node PeekMin just returned.
  void PopMin(EventNode* node);

  uint64_t VirtualBucketOf(SimTime when) const;
  void CalendarInsert(EventNode* node);
  void CalendarResize(size_t new_buckets);

  void NoteExecuted() {
    ++executed_;
    if (events_executed_ != nullptr) {
      events_executed_->Increment();
      if ((executed_ & (kQueueDepthSampleEvery - 1)) == 0) {
        queue_depth_->Set(static_cast<double>(pending_));
      }
    }
  }

  SimTime now_ = 0;
  uint64_t next_sequence_ = 0;
  uint64_t executed_ = 0;
  size_t pending_ = 0;

  // Node pool: chunked storage plus an intrusive free list.
  std::vector<std::unique_ptr<EventNode[]>> chunks_;
  EventNode* free_list_ = nullptr;

  Calendar calendar_;

  // Bound together: events_executed_ != nullptr implies queue_depth_
  // and queue_depth_max_.
  Counter* events_executed_ = nullptr;
  Gauge* queue_depth_ = nullptr;
  MaxGauge* queue_depth_max_ = nullptr;
};

}  // namespace fglb

#endif  // FGLB_SIM_SIMULATOR_H_

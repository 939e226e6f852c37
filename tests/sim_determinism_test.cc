// Determinism properties of the DES kernel, checked differentially
// between the calendar-queue scheduler and a test-local reference: the
// binary-heap discipline the calendar queue replaced, re-implemented
// here as a std::priority_queue over (when, seq). The
// deterministic-replay contract rests on one queue invariant: events
// execute in (timestamp, scheduling order), with ties broken strictly
// by the order ScheduleAt was called — under every insertion pattern,
// including same-timestamp floods and schedule-from-callback chains.

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sim/simulator.h"

namespace fglb {
namespace {

using ExecutionLog = std::vector<std::pair<double, int>>;

// The reference queue: the textbook (when, seq) heap over type-erased
// callbacks, with the slice of Simulator's interface the schedule
// generators below use.
class ReferenceQueue {
 public:
  SimTime Now() const { return now_; }

  void ScheduleAt(SimTime when, std::function<void()> fn) {
    events_.push(Event{when, next_seq_++, std::move(fn)});
  }
  void ScheduleAfter(SimTime delay, std::function<void()> fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  void RunToCompletion() {
    while (!events_.empty()) {
      const Event event = events_.top();
      events_.pop();
      now_ = event.when;
      event.fn();
    }
  }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;
    std::function<void()> fn;
  };
  // std::priority_queue keeps the "largest" on top, so order by later.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> events_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
};

// Schedules `count` events with timestamps drawn from a small discrete
// set (forcing heavy tie collisions) in a random order, and returns
// the (time, id) execution log.
template <typename Queue>
ExecutionLog RunFlatSchedule(Queue& queue, uint64_t seed, int count) {
  Rng rng(seed);
  ExecutionLog log;
  for (int id = 0; id < count; ++id) {
    // 8 distinct timestamps over `count` events: ~count/8 ties each.
    const double when = static_cast<double>(rng.NextUint64(8)) * 0.5;
    queue.ScheduleAt(when, [&log, when, id] { log.emplace_back(when, id); });
  }
  queue.RunToCompletion();
  EXPECT_EQ(log.size(), static_cast<size_t>(count));
  return log;
}

// Self-expanding schedule: every event may schedule up to two children
// at randomized delays (including zero — a same-timestamp tie created
// *during* execution), until the budget runs out.
template <typename Queue>
ExecutionLog RunRecursiveSchedule(Queue& queue, uint64_t seed, int budget) {
  Rng rng(seed);
  ExecutionLog log;
  int next_id = 0;
  int remaining = budget;
  struct Spawn {
    Queue* queue;
    Rng* rng;
    ExecutionLog* log;
    int* next_id;
    int* remaining;
    int id;
    void operator()() const {
      log->emplace_back(queue->Now(), id);
      const uint64_t children = rng->NextUint64(3);
      for (uint64_t c = 0; c < children; ++c) {
        if (*remaining == 0) return;
        --*remaining;
        static constexpr double kDelays[] = {0.0, 0.125, 1.0, 37.5};
        const double delay = kDelays[rng->NextUint64(4)];
        Spawn child = *this;
        child.id = (*next_id)++;
        queue->ScheduleAfter(delay, child);
      }
    }
  };
  for (int i = 0; i < 4 && remaining > 0; ++i) {
    --remaining;
    queue.ScheduleAt(0.0, Spawn{&queue, &rng, &log, &next_id, &remaining,
                                next_id});
    ++next_id;
  }
  queue.RunToCompletion();
  return log;
}

TEST(SimDeterminismTest, SameTimestampExecutesInSchedulingOrder) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Simulator sim;
    const ExecutionLog log = RunFlatSchedule(sim, seed, 512);
    EXPECT_EQ(sim.executed_events(), 512u);
    EXPECT_EQ(sim.pending_events(), 0u);
    for (size_t i = 1; i < log.size(); ++i) {
      ASSERT_LE(log[i - 1].first, log[i].first)
          << "time went backwards at step " << i << " (seed " << seed
          << ")";
      if (log[i - 1].first == log[i].first) {
        // Tie: ids were assigned in scheduling order, so they must
        // execute in ascending order.
        ASSERT_LT(log[i - 1].second, log[i].second)
            << "tie broke out of scheduling order at step " << i
            << " (seed " << seed << ")";
      }
    }
  }
}

TEST(SimDeterminismTest, CalendarMatchesLegacyHeapOnFlatSchedules) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Simulator sim;
    ReferenceQueue reference;
    EXPECT_EQ(RunFlatSchedule(sim, seed, 512),
              RunFlatSchedule(reference, seed, 512))
        << "calendar queue diverged from the reference (seed " << seed
        << ")";
  }
}

TEST(SimDeterminismTest, CalendarMatchesLegacyHeapOnRecursiveSchedules) {
  // The recursive schedule spans delays from 0 to 37.5s, so the
  // calendar queue resizes (grow on the initial flood, shrink on the
  // drain) and rotates through many bucket years mid-run.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Simulator sim;
    ReferenceQueue reference;
    const ExecutionLog calendar = RunRecursiveSchedule(sim, seed, 4000);
    const ExecutionLog expected = RunRecursiveSchedule(reference, seed, 4000);
    ASSERT_EQ(calendar.size(), expected.size()) << "seed " << seed;
    EXPECT_EQ(calendar, expected)
        << "calendar queue diverged from the reference (seed " << seed
        << ")";
  }
}

TEST(SimDeterminismTest, RunUntilAdvancesClockWithAndWithoutEvents) {
  Simulator sim;
  // No events: the clock still advances to the boundary.
  sim.RunUntil(5.0);
  EXPECT_EQ(sim.Now(), 5.0);
  // An event exactly at the boundary executes; one past it does not.
  int fired = 0;
  sim.ScheduleAt(7.0, [&] { ++fired; });
  sim.ScheduleAt(7.0 + 1e-9, [&] { ++fired; });
  sim.RunUntil(7.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 7.0);
  EXPECT_EQ(sim.pending_events(), 1u);
  // A boundary in the past never moves the clock backwards.
  sim.RunUntil(2.0);
  EXPECT_EQ(sim.Now(), 7.0);
  sim.RunToCompletion();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(SimDeterminismTest, ExecutedCountStaysExact) {
  // sim.events_executed must count every event, not every 64th (only
  // the queue-depth gauge is sampled).
  MetricsRegistry registry;
  Simulator sim;
  sim.BindMetrics(&registry);
  constexpr int kEvents = 1000;  // deliberately not a multiple of 64
  for (int i = 0; i < kEvents; ++i) {
    sim.ScheduleAt(0.25 * static_cast<double>(i % 7), [] {});
  }
  sim.RunToCompletion();
  EXPECT_EQ(sim.executed_events(), static_cast<uint64_t>(kEvents));
  EXPECT_EQ(registry.counter("sim.events_executed")->value(),
            static_cast<uint64_t>(kEvents));
}

}  // namespace
}  // namespace fglb

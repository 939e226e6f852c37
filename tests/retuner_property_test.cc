// Property tests for the retuner's decision core: the ControlState
// codec, the interval verdict and the placement gate, driven with
// seeded random states and requests. Nothing here builds a Simulator
// or a cluster; every loop is bounded.

#include "core/control_state.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/varint.h"

namespace fglb {
namespace {

constexpr int kIterations = 400;

using Rng = std::mt19937_64;

double Uniform(Rng& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

// A clock that is "never" a quarter of the time, otherwise a
// full-precision time in [0, 1000).
SimTime RandomClock(Rng& rng) {
  return rng() % 4 == 0 ? ControlState::kNever : Uniform(rng, 0, 1000);
}

AppId RandomApp(Rng& rng) {
  return rng() % 16 == 0 ? std::numeric_limits<AppId>::max()
                         : static_cast<AppId>(rng() % 6);
}

ClassKey RandomClass(Rng& rng) {
  return rng() % 16 == 0 ? std::numeric_limits<ClassKey>::max()
                         : MakeClassKey(RandomApp(rng), rng() % 12);
}

ControlState RandomState(Rng& rng) {
  ControlState s;
  const int apps = static_cast<int>(rng() % 6);
  for (int i = 0; i < apps; ++i) {
    ControlState::App& app = s.apps[RandomApp(rng)];
    // Streaks stay far from INT_MAX: the verdict increments them.
    app.violation_streak = static_cast<int>(rng() % 2 == 0 ? 0 : rng() % 50);
    app.calm_streak =
        static_cast<int>(app.violation_streak > 0 ? 0 : rng() % 50);
    app.topology_changed_at = RandomClock(rng);
    app.replicas_seen =
        rng() % 4 == 0 ? ControlState::kUnseen : rng() % 10;
    app.coarse_fallback_at = RandomClock(rng);
  }
  const int classes = static_cast<int>(rng() % 10);
  for (int i = 0; i < classes; ++i) {
    const ClassKey key = RandomClass(rng);
    s.placed_at[key] = RandomClock(rng);
    if (rng() % 3 == 0) s.in_flight.insert(key);
  }
  if (rng() % 4 == 0) s.in_flight.insert(RandomClass(rng));
  return s;
}

ControlPolicy RandomPolicy(Rng& rng) {
  ControlPolicy p;
  p.act = rng() % 4 != 0;
  p.shed_escalation = rng() % 2 == 0;
  p.overload_shed_share = Uniform(rng, 0.05, 0.6);
  p.warmup = Uniform(rng, 0, 200);
  p.cooldown = Uniform(rng, 0, 300);
  p.move_budget = static_cast<int>(rng() % 4);
  p.guard = rng() % 4 != 0;
  p.act_threshold = Uniform(rng, 0.5, 1.0);
  return p;
}

bool DecodeBytes(const std::string& bytes, ControlState* out) {
  Reader r{reinterpret_cast<const uint8_t*>(bytes.data()),
           reinterpret_cast<const uint8_t*>(bytes.data()) + bytes.size()};
  return ControlState::Decode(r, out);
}

std::string EncodeState(const ControlState& s) {
  std::string out;
  s.Encode(&out);
  return out;
}

// --- the codec ---

TEST(ControlStateTest, EmptyStateEncodesAsThreeZeroCounts) {
  EXPECT_EQ(EncodeState(ControlState{}), std::string(3, '\0'));
}

TEST(ControlStateTest, DecodeOfEncodeIsIdentityAndReencodesIdentically) {
  Rng rng(11);
  for (int i = 0; i < kIterations; ++i) {
    const ControlState s = RandomState(rng);
    const std::string bytes = EncodeState(s);
    ControlState decoded;
    ASSERT_TRUE(DecodeBytes(bytes, &decoded)) << "iteration " << i;
    EXPECT_EQ(decoded, s) << "iteration " << i;
    EXPECT_EQ(EncodeState(decoded), bytes) << "iteration " << i;
  }
}

TEST(ControlStateTest, EveryProperPrefixIsRejectedAndLeavesTheOutputAlone) {
  Rng rng(12);
  ControlState sentinel;
  sentinel.in_flight.insert(42);
  for (int i = 0; i < kIterations / 4; ++i) {
    const std::string bytes = EncodeState(RandomState(rng));
    for (size_t n = 0; n < bytes.size(); ++n) {
      ControlState out = sentinel;
      EXPECT_FALSE(DecodeBytes(bytes.substr(0, n), &out))
          << "prefix " << n << " of " << bytes.size();
      EXPECT_EQ(out, sentinel);
    }
  }
}

TEST(ControlStateTest, RandomAndMutatedBytesNeverCrashTheDecoder) {
  Rng rng(13);
  for (int i = 0; i < kIterations * 4; ++i) {
    std::string bytes;
    if (i % 2 == 0) {
      bytes.resize(rng() % 64);
      for (char& c : bytes) c = static_cast<char>(rng());
    } else {
      bytes = EncodeState(RandomState(rng));
      if (bytes.empty()) continue;
      for (int flips = 1 + static_cast<int>(rng() % 3); flips > 0; --flips) {
        bytes[rng() % bytes.size()] ^= static_cast<char>(1 + rng() % 255);
      }
    }
    ControlState decoded;
    if (!DecodeBytes(bytes, &decoded)) continue;
    // Whatever decodes is a canonical state: it survives its own round
    // trip.
    ControlState again;
    ASSERT_TRUE(DecodeBytes(EncodeState(decoded), &again));
    EXPECT_EQ(again, decoded);
  }
}

TEST(ControlStateTest, DecodeRejectsNonCanonicalEntries) {
  auto clock = [](std::string* out, double t) {
    PutFixed64(out, DoubleToBits(t));
  };
  auto one_placement = [&](uint64_t key, double t) {
    std::string bytes;
    PutVarint64(&bytes, 0);  // apps
    PutVarint64(&bytes, 1);  // one placement clock
    PutVarint64(&bytes, key);
    clock(&bytes, t);
    PutVarint64(&bytes, 0);  // in flight
    return bytes;
  };
  ControlState out;
  EXPECT_TRUE(DecodeBytes(one_placement(7, 12.5), &out));
  EXPECT_TRUE(DecodeBytes(one_placement(7, ControlState::kNever), &out));
  EXPECT_FALSE(DecodeBytes(one_placement(7, std::nan("")), &out));
  EXPECT_FALSE(DecodeBytes(
      one_placement(7, std::numeric_limits<double>::infinity()), &out));

  std::string repeated;  // an in-flight set naming one class twice
  PutVarint64(&repeated, 0);
  PutVarint64(&repeated, 0);
  PutVarint64(&repeated, 2);
  PutVarint64(&repeated, 9);
  PutVarint64(&repeated, 9);
  EXPECT_FALSE(DecodeBytes(repeated, &out));

  auto one_app = [&](uint64_t id, int64_t streak) {
    std::string bytes;
    PutVarint64(&bytes, 1);
    PutVarint64(&bytes, id);
    PutVarint64(&bytes, ZigZagEncode(streak));
    PutVarint64(&bytes, 0);
    clock(&bytes, ControlState::kNever);
    PutVarint64(&bytes, 0);  // replicas_seen: unseen
    clock(&bytes, ControlState::kNever);
    PutVarint64(&bytes, 0);
    PutVarint64(&bytes, 0);
    return bytes;
  };
  ASSERT_TRUE(DecodeBytes(one_app(3, 4), &out));
  EXPECT_EQ(out.apps.at(3).violation_streak, 4);
  EXPECT_EQ(out.apps.at(3).replicas_seen, ControlState::kUnseen);
  EXPECT_FALSE(DecodeBytes(one_app(uint64_t{1} << 32, 4), &out));
  EXPECT_FALSE(DecodeBytes(one_app(3, int64_t{1} << 40), &out));
}

// --- the placement gate ---

// The gate's contract, restated guard by guard.
Hold ExpectedHold(const ControlState& s, const ControlPolicy& p, SimTime now,
                  const GateRequest& q) {
  const bool move = q.ask == GateRequest::kMove;
  if (q.ask != GateRequest::kEvidence) {
    const auto app = s.apps.find(AppOf(q.key));
    if (app != s.apps.end() &&
        app->second.topology_changed_at != ControlState::kNever &&
        now - app->second.topology_changed_at < p.warmup) {
      return Hold::kWarmup;
    }
  }
  if (move) {
    const auto placed = s.placed_at.find(q.key);
    if (placed != s.placed_at.end() &&
        placed->second != ControlState::kNever &&
        now - placed->second < p.cooldown) {
      return Hold::kCooldown;
    }
  }
  if (p.guard && q.confidence < p.act_threshold) return Hold::kLowConfidence;
  if (move && s.in_flight.contains(q.key)) return Hold::kInFlight;
  if (move && p.move_budget > 0 && q.moves_started >= p.move_budget) {
    return Hold::kBudget;
  }
  return Hold::kNone;
}

GateRequest RandomRequest(Rng& rng, const ControlState& s) {
  GateRequest q;
  q.ask = static_cast<GateRequest::Ask>(rng() % 3);
  // Half the requests name a class the state knows about.
  if (!s.placed_at.empty() && rng() % 2 == 0) {
    auto it = s.placed_at.begin();
    std::advance(it, rng() % s.placed_at.size());
    q.key = it->first;
  } else {
    q.key = RandomClass(rng);
  }
  q.confidence = rng() % 3 == 0 ? 1.0 : Uniform(rng, 0, 1);
  q.moves_started = static_cast<int>(rng() % 4);
  return q;
}

TEST(RetunerPropertyTest, GateAdmitsExactlyWhenNoGuardHolds) {
  Rng rng(21);
  int admitted_moves = 0;
  int held[6] = {};
  for (int i = 0; i < kIterations * 10; ++i) {
    const ControlState s = RandomState(rng);
    const ControlPolicy p = RandomPolicy(rng);
    const SimTime now = Uniform(rng, 0, 1200);
    const GateRequest q = RandomRequest(rng, s);
    const Hold hold = PlacementGate(s, p, now, q);
    ASSERT_EQ(hold, ExpectedHold(s, p, now, q)) << "iteration " << i;
    ++held[static_cast<int>(hold)];
    if (hold != Hold::kNone || q.ask != GateRequest::kMove) continue;
    ++admitted_moves;
    // An admitted move is confident, out of warmup and cooldown, not in
    // flight and inside the budget.
    EXPECT_TRUE(!p.guard || q.confidence >= p.act_threshold);
    EXPECT_FALSE(s.in_flight.contains(q.key));
    EXPECT_TRUE(p.move_budget == 0 || q.moves_started < p.move_budget);
    if (const auto it = s.placed_at.find(q.key); it != s.placed_at.end()) {
      EXPECT_GE(now - it->second, p.cooldown);
    }
    if (const auto it = s.apps.find(AppOf(q.key)); it != s.apps.end()) {
      EXPECT_GE(now - it->second.topology_changed_at, p.warmup);
    }
  }
  // The random mix reaches every outcome.
  EXPECT_GT(admitted_moves, 0);
  for (int h = 0; h < 6; ++h) EXPECT_GT(held[h], 0) << "hold " << h;
}

TEST(RetunerPropertyTest, NeverClocksOpenNoWindow) {
  ControlState s;
  s.apps[1].topology_changed_at = ControlState::kNever;
  s.placed_at[MakeClassKey(1, 2)] = ControlState::kNever;
  ControlPolicy p;
  p.warmup = 1e300;
  p.cooldown = 1e300;
  const GateRequest move{GateRequest::kMove, MakeClassKey(1, 2)};
  for (SimTime now : {0.0, 1.0, 1e9}) {
    EXPECT_EQ(PlacementGate(s, p, now, move), Hold::kNone);
  }
}

// --- the interval verdict ---

IntervalView RandomView(Rng& rng) {
  IntervalView v;
  v.queries = rng() % 4 == 0 ? 0 : rng() % 1000;
  v.shed = rng() % 2 == 0 ? 0 : rng() % 1000;
  v.sla_met = rng() % 2 == 0;
  v.has_replicas = rng() % 5 != 0;
  return v;
}

TEST(RetunerPropertyTest, VerdictStreaksFollowTheirRules) {
  Rng rng(31);
  int seen[5] = {};
  for (int i = 0; i < kIterations; ++i) {
    const ControlPolicy p = RandomPolicy(rng);
    ControlState::App app;
    app.topology_changed_at = RandomClock(rng);
    SimTime now = Uniform(rng, 0, 300);
    for (int step = 0; step < 40; ++step) {
      now += Uniform(rng, 0, 20);
      if (rng() % 8 == 0) app.topology_changed_at = now;
      const ControlState::App before = app;
      const IntervalView view = RandomView(rng);
      const Verdict verdict = JudgeInterval(p, now, view, &app);
      ++seen[static_cast<int>(verdict)];
      EXPECT_FALSE(app.violation_streak > 0 && app.calm_streak > 0);
      const bool warming = now - before.topology_changed_at < p.warmup;
      switch (verdict) {
        case Verdict::kOverloadShed:
        case Verdict::kViolation:
          EXPECT_EQ(app.violation_streak, before.violation_streak + 1);
          EXPECT_EQ(app.calm_streak, 0);
          EXPECT_FALSE(warming);
          break;
        case Verdict::kBootstrap:
          EXPECT_TRUE(p.act && !view.has_replicas);
          [[fallthrough]];
        case Verdict::kWarmup:
          EXPECT_EQ(app.violation_streak, before.violation_streak);
          EXPECT_EQ(app.calm_streak, 0);
          if (verdict == Verdict::kWarmup) {
            EXPECT_TRUE(warming);
          }
          break;
        case Verdict::kCalm:
          EXPECT_EQ(app.violation_streak, 0);
          EXPECT_EQ(app.calm_streak, before.calm_streak + 1);
          EXPECT_TRUE(view.queries == 0 || view.sla_met);
          break;
      }
      // Only the streaks move; the clocks belong to the caller.
      EXPECT_EQ(app.topology_changed_at, before.topology_changed_at);
      EXPECT_EQ(app.replicas_seen, before.replicas_seen);
      EXPECT_EQ(app.coarse_fallback_at, before.coarse_fallback_at);
    }
  }
  for (int v = 0; v < 5; ++v) EXPECT_GT(seen[v], 0) << "verdict " << v;
}

// Drives a state through a seeded sequence of verdicts, gate calls and
// the bookkeeping the retuner does around them (moves start and land,
// topology changes open warmups); returns every outcome in order.
std::vector<int> Drive(ControlState* s, uint64_t seed) {
  Rng rng(seed);
  const ControlPolicy p = RandomPolicy(rng);
  std::vector<int> outcomes;
  SimTime now = Uniform(rng, 0, 1000);
  int moves = 0;
  for (int step = 0; step < 60; ++step) {
    now += Uniform(rng, 0, 15);
    switch (rng() % 4) {
      case 0: {
        ControlState::App& app = s->apps[RandomApp(rng)];
        outcomes.push_back(
            static_cast<int>(JudgeInterval(p, now, RandomView(rng), &app)));
        break;
      }
      case 1: {
        GateRequest q = RandomRequest(rng, *s);
        q.moves_started = moves;
        const Hold hold = PlacementGate(*s, p, now, q);
        outcomes.push_back(100 + static_cast<int>(hold));
        if (hold == Hold::kNone && q.ask == GateRequest::kMove) {
          s->in_flight.insert(q.key);
          ++moves;
        }
        break;
      }
      case 2:
        if (!s->in_flight.empty()) {
          const ClassKey key = *s->in_flight.begin();
          s->in_flight.erase(key);
          s->placed_at[key] = now;
          s->apps[AppOf(key)].topology_changed_at = now;
        }
        break;
      default:
        s->apps[RandomApp(rng)].topology_changed_at = now;
        moves = 0;  // a new interval
        break;
    }
  }
  return outcomes;
}

TEST(RetunerPropertyTest, RestoredStateDecidesExactlyLikeTheOriginal) {
  Rng rng(41);
  for (int i = 0; i < kIterations; ++i) {
    ControlState original = RandomState(rng);
    ControlState restored;
    ASSERT_TRUE(DecodeBytes(EncodeState(original), &restored));
    const uint64_t seed = rng();
    EXPECT_EQ(Drive(&original, seed), Drive(&restored, seed))
        << "iteration " << i;
    EXPECT_EQ(original, restored) << "iteration " << i;
  }
}

}  // namespace
}  // namespace fglb

// Property tests for the retuner's decision core: the ControlState
// codec, the interval verdict, the placement gate and each rung's
// choice (decision.h), driven with seeded random states, requests and
// evidence and checked against test-local restatements; every random
// Decision must render to a trace the checker accepts. Nothing here
// builds a Simulator or a cluster; every loop is bounded.

#include "core/control_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/trace_check.h"
#include "common/trace_log.h"
#include "common/varint.h"
#include "core/decision.h"

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

// --- the rung choices (decision.h) ---

// Random evidence: three apps' classes on one engine, each metric a
// small integer (so ties and zeros are common) or, for read-aheads, a
// value around the scan threshold of 10.
ClassSnapshot RandomSnapshot(Rng& rng) {
  ClassSnapshot snapshot;
  const int classes = static_cast<int>(rng() % 12);
  for (int i = 0; i < classes; ++i) {
    MetricVector& v = snapshot[MakeClassKey(1 + rng() % 3, rng() % 8)];
    for (Metric m : kAllMetrics) At(v, m) = static_cast<double>(rng() % 6);
    At(v, Metric::kReadAheads) = rng() % 4 == 0 ? 9.5 : rng() % 20;
  }
  return snapshot;
}

ClassKey RandomKeyOf(Rng& rng, const ClassSnapshot& snapshot) {
  if (snapshot.empty() || rng() % 5 == 0) {
    return MakeClassKey(1 + rng() % 3, rng() % 8);
  }
  auto it = snapshot.begin();
  std::advance(it, rng() % snapshot.size());
  return it->first;
}

OutlierReport RandomReport(Rng& rng, const ClassSnapshot& snapshot) {
  OutlierReport report;
  const int outliers = rng() % 2 == 0 ? 0 : static_cast<int>(rng() % 4);
  for (int i = 0; i < outliers; ++i) {
    MetricOutlier o;
    o.key = RandomKeyOf(rng, snapshot);
    o.metric = kAllMetrics[rng() % kAllMetrics.size()];
    o.high_side = rng() % 3 != 0;
    report.outliers.push_back(o);
  }
  if (rng() % 4 == 0) report.new_classes.push_back(RandomKeyOf(rng, snapshot));
  return report;
}

std::set<ClassKey> ExpectedCandidates(AppId app, const OutlierReport& report,
                                      const ClassSnapshot& snapshot,
                                      const std::set<ClassKey>& baselines) {
  std::set<ClassKey> expected = report.MemoryProblemContexts();
  expected.insert(report.new_classes.begin(), report.new_classes.end());
  if (expected.empty()) {
    // The app's three heaviest classes by buffer misses (ties to the
    // larger key), each with misses.
    std::vector<ClassKey> heavy;
    for (const auto& [key, v] : snapshot) {
      if (AppOf(key) == app) heavy.push_back(key);
    }
    auto misses = [&](ClassKey k) {
      return At(snapshot.at(k), Metric::kBufferMisses);
    };
    std::ranges::stable_sort(heavy, [&](ClassKey a, ClassKey b) {
      return misses(a) != misses(b) ? misses(a) > misses(b) : a > b;
    });
    for (size_t i = 0; i < heavy.size() && i < 3; ++i) {
      if (misses(heavy[i]) > 0) expected.insert(heavy[i]);
    }
  }
  for (const auto& [key, v] : snapshot) {
    if (AppOf(key) != app && !baselines.contains(key)) expected.insert(key);
  }
  return expected;
}

TEST(RetunerPropertyTest, MemoryCandidatesMatchTheirRestatement) {
  Rng rng(51);
  int fallbacks = 0;
  for (int i = 0; i < kIterations * 2; ++i) {
    const ClassSnapshot snapshot = RandomSnapshot(rng);
    const OutlierReport report = RandomReport(rng, snapshot);
    std::set<ClassKey> baselines;
    for (const auto& [key, v] : snapshot) {
      if (rng() % 2 == 0) baselines.insert(key);
    }
    const AppId app = 1 + rng() % 3;
    const auto has_baseline = [&](ClassKey k) { return baselines.contains(k); };
    const std::set<ClassKey> got =
        MemoryCandidates(app, report, snapshot, has_baseline);
    ASSERT_EQ(got, ExpectedCandidates(app, report, snapshot, baselines))
        << "iteration " << i;
    EXPECT_EQ(MemoryCandidates(app, report, snapshot, has_baseline), got);
    fallbacks += report.MemoryProblemContexts().empty() &&
                 report.new_classes.empty();
  }
  EXPECT_GT(fallbacks, kIterations / 2);
}

ClassMemoryProfile RandomProfile(Rng& rng, ClassKey key) {
  ClassMemoryProfile p;
  p.key = key;
  p.params.acceptable_memory_pages = rng() % 600;
  p.params.total_memory_pages = p.params.acceptable_memory_pages + rng() % 900;
  if (rng() % 3 == 0) p.regret_vs_opt = Uniform(rng, 0, 0.5);
  return p;
}

LogAnalyzer::MemoryDiagnosis RandomDiagnosis(Rng& rng,
                                             const ClassSnapshot& snapshot) {
  LogAnalyzer::MemoryDiagnosis diagnosis;
  std::set<ClassKey> used;
  for (int i = static_cast<int>(rng() % 5); i > 0; --i) {
    const ClassKey key = RandomKeyOf(rng, snapshot);
    if (!used.insert(key).second) continue;
    (rng() % 3 == 0 ? diagnosis.cleared : diagnosis.suspects)
        .push_back(RandomProfile(rng, key));
  }
  if (rng() % 3 == 0) diagnosis.insufficient_data.push_back(RandomKeyOf(rng, snapshot));
  return diagnosis;
}

QuotaPlan RandomPlan(Rng& rng, const LogAnalyzer::MemoryDiagnosis& diagnosis,
                     const ClassSnapshot& snapshot) {
  QuotaPlan plan;
  plan.placement_fits = rng() % 3 == 0;
  plan.infeasible = rng() % 4 == 0;
  for (int i = static_cast<int>(rng() % 4); i > 0; --i) {
    const ClassKey key = rng() % 2 == 0 && !diagnosis.suspects.empty()
                             ? diagnosis.suspects[rng() % diagnosis.suspects.size()].key
                             : RandomKeyOf(rng, snapshot);
    plan.quotas[key] = 256 + rng() % 4000;
    if (rng() % 2 == 0) plan.tier2_quotas[key] = rng() % 9000;
  }
  for (int i = static_cast<int>(rng() % 3); i > 0; --i) {
    plan.reschedule.push_back(
        rng() % 2 == 0 && !diagnosis.suspects.empty()
            ? diagnosis.suspects[rng() % diagnosis.suspects.size()].key
            : RandomKeyOf(rng, snapshot));
  }
  return plan;
}

std::vector<Proposal> ExpectedProposals(
    const LogAnalyzer::MemoryDiagnosis& diagnosis, const QuotaPlan& plan,
    const ClassSnapshot& snapshot) {
  std::vector<Proposal> expected;
  if (plan.placement_fits) {
    for (const ClassMemoryProfile& s : diagnosis.suspects) {
      const auto v = snapshot.find(s.key);
      if (v == snapshot.end() || !(At(v->second, Metric::kReadAheads) >= 10)) {
        continue;
      }
      Proposal p;
      p.kind = Proposal::kContainment;
      p.key = s.key;
      p.pages = std::max<uint64_t>(s.params.acceptable_memory_pages, 256);
      expected.push_back(p);
    }
    return expected;
  }
  for (const auto& [key, pages] : plan.quotas) {
    Proposal p;
    p.kind = Proposal::kQuota;
    p.key = key;
    p.pages = pages;
    if (plan.tier2_quotas.contains(key)) p.tier2_pages = plan.tier2_quotas.at(key);
    expected.push_back(p);
  }
  for (ClassKey key : plan.reschedule) {
    for (const ClassMemoryProfile& s : diagnosis.suspects) {
      if (s.key != key) continue;
      Proposal p;
      p.kind = Proposal::kReschedule;
      p.key = key;
      expected.push_back(p);
      break;
    }
  }
  return expected;
}

TEST(RetunerPropertyTest, ProposeMemoryMatchesItsRestatement) {
  Rng rng(52);
  int containments = 0, demotes = 0, plain_quotas = 0, moves = 0;
  for (int i = 0; i < kIterations * 2; ++i) {
    const ClassSnapshot snapshot = RandomSnapshot(rng);
    const LogAnalyzer::MemoryDiagnosis diagnosis =
        RandomDiagnosis(rng, snapshot);
    const QuotaPlan plan = RandomPlan(rng, diagnosis, snapshot);
    const std::vector<Proposal> got =
        ProposeMemory(diagnosis, plan, snapshot, 256);
    ASSERT_EQ(got, ExpectedProposals(diagnosis, plan, snapshot))
        << "iteration " << i;
    EXPECT_EQ(ProposeMemory(diagnosis, plan, snapshot, 256), got);
    for (const Proposal& p : got) {
      EXPECT_EQ(p.hold, Hold::kNone);
      EXPECT_FALSE(p.committed);
      containments += p.kind == Proposal::kContainment;
      demotes += p.kind == Proposal::kQuota && p.tier2_pages.has_value();
      plain_quotas += p.kind == Proposal::kQuota && !p.tier2_pages;
      moves += p.kind == Proposal::kReschedule;
    }
  }
  EXPECT_GT(containments, 0);
  EXPECT_GT(demotes, 0);
  EXPECT_GT(plain_quotas, 0);
  EXPECT_GT(moves, 0);
}

TEST(RetunerPropertyTest, IoChoiceMatchesItsRestatement) {
  Rng rng(53);
  int seen[3] = {};  // nothing, replica, eviction
  int lone_heavy = 0;
  for (int i = 0; i < kIterations * 4; ++i) {
    std::map<ClassKey, double> requests;
    for (int c = static_cast<int>(rng() % 6); c > 0; --c) {
      requests[MakeClassKey(1 + rng() % 2, rng() % 10)] +=
          rng() % 4 == 0 ? 0 : static_cast<double>(rng() % (rng() % 2 ? 50 : 1000));
    }
    const double io_util = Uniform(rng, 0.85, 1.0);
    double total = 0;
    for (const auto& [key, n] : requests) total += n;
    IoChoice expected;
    std::map<ClassKey, double> rates;
    int significant = 0;
    double top = 0;
    for (const auto& [key, n] : requests) {
      rates[key] = n * (io_util / total);
      significant += rates[key] > 0.1 * io_util;
      top = std::max(top, rates[key]);
    }
    if (total > 0 && significant >= 2) {
      if (top / io_util < 0.4) {
        expected.replica = true;
      } else {
        expected.evict = PlanIoEviction(rates, io_util, 0.6);
      }
    }
    lone_heavy += total > 0 && significant == 1 && top / io_util >= 0.4;
    const IoChoice got = ChooseIo(requests, io_util);
    ASSERT_EQ(got, expected) << "iteration " << i;
    EXPECT_EQ(ChooseIo(requests, io_util), got);
    ++seen[got.replica ? 1 : got.evict.empty() ? 0 : 2];
  }
  for (int k = 0; k < 3; ++k) EXPECT_GT(seen[k], 0) << "choice " << k;
  EXPECT_GT(lone_heavy, 0);
}

// A random Decision: its verdict, mode flags, diagnosed engines,
// proposals and actions, each consistent with what the shell records.
Decision RandomDecision(Rng& rng, SimTime t) {
  static constexpr Verdict kVerdicts[] = {
      Verdict::kOverloadShed, Verdict::kBootstrap, Verdict::kWarmup,
      Verdict::kViolation};
  static constexpr Hold kHolds[] = {Hold::kNone, Hold::kWarmup,
                                    Hold::kCooldown, Hold::kLowConfidence,
                                    Hold::kInFlight, Hold::kBudget};
  Decision d;
  d.t = t;
  d.app = 1 + rng() % 3;
  d.verdict = kVerdicts[rng() % 4];
  d.monitoring = rng() % 8 == 0;
  d.coarse_only = rng() % 8 == 0;
  d.no_stats = rng() % 6 == 0;
  d.queries = rng() % 500;
  d.streak = static_cast<int>(rng() % 6);
  d.stats_conf = Uniform(rng, 0, 1);
  if (d.verdict == Verdict::kViolation && !d.no_stats && !d.coarse_only) {
    const ClassSnapshot snapshot = RandomSnapshot(rng);
    for (int e = static_cast<int>(rng() % 4); e > 0; --e) {
      EngineDiagnosis& engine = d.engines.emplace_back();
      engine.replica_id = static_cast<int>(d.engines.size()) * 3 - 1;
      engine.outliers = RandomReport(rng, snapshot);
      if (rng() % 2 == 0) continue;  // the mrc phase never ran
      engine.memory = RandomDiagnosis(rng, snapshot);
      engine.candidates = 1 + engine.memory.suspects.size() +
                          engine.memory.cleared.size();
      for (const ClassMemoryProfile& p : engine.memory.suspects) {
        if (rng() % 2 == 0) engine.stable[p.key] = RandomProfile(rng, p.key).params;
      }
      if (rng() % 3 == 0) {
        engine.tier2 = TierView{16384, rng() % 16385, 100};
      }
      engine.evidence =
          rng() % 4 == 0 ? Hold::kLowConfidence : Hold::kNone;
    }
  }
  if (!d.monitoring && !d.no_stats) {
    for (int p = static_cast<int>(rng() % 4); p > 0; --p) {
      Proposal& proposal = d.proposals.emplace_back();
      proposal.kind = static_cast<Proposal::Kind>(rng() % 5);
      proposal.hold = kHolds[rng() % 6];
      proposal.committed = proposal.hold == Hold::kNone && rng() % 2 == 0;
    }
  }
  for (int a = static_cast<int>(rng() % 3); a > 0; --a) {
    d.actions.push_back({t, static_cast<ActionKind>(rng() % 8),
                         static_cast<AppId>(1 + rng() % 3), "did something"});
  }
  return d;
}

// The cascade's reason, as its control flow runs: a verdict that held
// fire names itself; monitoring; coarse only; a fine-grained rung that
// acted; no statistics; then a held stale piece of evidence, or nothing.
std::string ExpectedWhy(const Decision& d) {
  if (d.verdict == Verdict::kOverloadShed) return "overload_shed";
  if (d.verdict == Verdict::kBootstrap) return "bootstrap";
  if (d.verdict == Verdict::kWarmup) return "warmup";
  if (d.monitoring) return "monitoring";
  if (!d.coarse_only) {
    for (const Proposal& p : d.proposals) {
      if (p.committed) return "no_action";
    }
    if (d.no_stats) return "no_stats";
  } else {
    return "coarse_only";
  }
  bool stale = false;
  for (const EngineDiagnosis& e : d.engines) {
    stale |= e.evidence == Hold::kLowConfidence;
  }
  for (const Proposal& p : d.proposals) {
    stale |= p.hold == Hold::kLowConfidence;
  }
  return stale ? "low_confidence" : "no_action";
}

TEST(RetunerPropertyTest, WhyFollowsTheCascadeRule) {
  Rng rng(54);
  std::set<std::string> seen;
  for (int i = 0; i < kIterations * 4; ++i) {
    const Decision d = RandomDecision(rng, 10.0 * i);
    ASSERT_EQ(Why(d), ExpectedWhy(d)) << "iteration " << i;
    seen.insert(Why(d));
  }
  EXPECT_EQ(seen.size(), 8u);  // every reason
}

TEST(RetunerPropertyTest, EveryDecisionRendersToACheckedChain) {
  Rng rng(55);
  TraceLog trace;
  trace.EnableBuffering();
  for (int i = 0; i < kIterations; ++i) {
    const SimTime t = 10.0 * (i / 2);  // two apps decide per tick
    const Decision d = RandomDecision(rng, t);
    const std::vector<TraceEvent> events = RenderDecision(d);
    // sla, then impact+iqr per engine, mrc per recomputation and three
    // phases' back-fills at most, then the actions or one "none".
    size_t recomputed = 0;
    for (const EngineDiagnosis& e : d.engines) recomputed += e.candidates > 0;
    const size_t phases = 2 * d.engines.size() + recomputed +
                          (d.engines.empty() ? 2 : 0) + (recomputed ? 0 : 1);
    EXPECT_EQ(events.size(),
              1 + phases + std::max<size_t>(d.actions.size(), 1));
    for (const TraceEvent& event : events) trace.Emit(event);
    // Actions outside every decision (a release, a delayed migration)
    // and other phases may follow a chain.
    if (rng() % 4 == 0) {
      trace.Emit(ActionEvent({t, ActionKind::kCpuRelease, 1, "released"}));
    }
    if (rng() % 4 == 0) trace.Emit(TraceEvent("migration").Num("t", t));
  }
  std::string error;
  EXPECT_TRUE(CheckTraceLines(trace.BufferedLines(), &error)) << error;
}

}  // namespace
}  // namespace fglb

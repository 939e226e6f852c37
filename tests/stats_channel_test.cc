#include "cluster/stats_channel.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/control_state.h"
#include "scenarios/harness.h"
#include "scenarios/scenario.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"

namespace fglb {
namespace {

StatsChannel::Snapshot MakeSnapshot(double base) {
  StatsChannel::Snapshot snapshot;
  for (uint32_t cls = 1; cls <= 3; ++cls) {
    MetricVector v{};
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = base + static_cast<double>(cls * 10 + i) / 7.0;
    }
    snapshot[MakeClassKey(1, cls)] = v;
  }
  return snapshot;
}

// The placement gate's verdict on evidence from a feed at
// `confidence` under the channel's guard: the confidence rule the
// controller acts on.
Hold EvidenceHold(const StatsChannel& channel, double confidence) {
  return PlacementGate(
      ControlState{}, ControlPolicy{.guard = channel.config().guard},
      /*now=*/0,
      GateRequest{.ask = GateRequest::kEvidence, .confidence = confidence});
}

// --- lossless transport: the healthy path is a bit-exact handoff ---

TEST(StatsChannelTest, LosslessDeliveryIsBitExactAndFresh) {
  Simulator sim;
  StatsChannel channel(&sim, {});
  const StatsChannel::Snapshot sent = MakeSnapshot(3.14159);
  channel.Publish(7, sent, 10);
  const StatsChannel::Feed feed = channel.Collect(7);
  EXPECT_TRUE(feed.fresh);
  EXPECT_EQ(feed.stale_intervals, 0u);
  EXPECT_DOUBLE_EQ(feed.confidence, 1.0);
  EXPECT_EQ(feed.last_seq, 1u);
  ASSERT_NE(feed.snapshot, nullptr);
  EXPECT_EQ(*feed.snapshot, sent);  // IEEE-754 bit equality per double
}

TEST(StatsChannelTest, CollectWithoutReplicaHistoryIsStale) {
  Simulator sim;
  StatsChannel channel(&sim, {});
  const StatsChannel::Feed feed = channel.Collect(3);
  EXPECT_FALSE(feed.fresh);
  EXPECT_EQ(feed.stale_intervals, 1u);
  ASSERT_NE(feed.snapshot, nullptr);
  EXPECT_TRUE(feed.snapshot->empty());
}

// --- faulty transport: drops, corruption, duplication, reordering ---

TEST(StatsChannelTest, DroppedReportsDecayConfidenceAndResyncRecovers) {
  Simulator sim;
  StatsChannel channel(&sim, {});
  bool drop = false;
  channel.set_net_hook([&drop](int, uint64_t) {
    FaultInjector::NetDecision d;
    d.drop = drop;
    return d;
  });
  channel.Publish(1, MakeSnapshot(1.0), 10);
  EXPECT_TRUE(channel.Collect(1).fresh);

  drop = true;
  double last_confidence = 1.0;
  for (uint64_t i = 1; i <= 3; ++i) {
    channel.Publish(1, MakeSnapshot(1.0 + static_cast<double>(i)), 10);
    const StatsChannel::Feed feed = channel.Collect(1);
    EXPECT_FALSE(feed.fresh);
    EXPECT_EQ(feed.stale_intervals, i);
    EXPECT_LT(feed.confidence, last_confidence);
    last_confidence = feed.confidence;
    // Fallback serves the last-known-good snapshot, not garbage.
    EXPECT_EQ(*feed.snapshot, MakeSnapshot(1.0));
    EXPECT_EQ(EvidenceHold(channel, feed.confidence), Hold::kLowConfidence);
  }

  drop = false;
  channel.Publish(1, MakeSnapshot(9.0), 10);
  const StatsChannel::Feed feed = channel.Collect(1);
  EXPECT_TRUE(feed.fresh);
  EXPECT_EQ(feed.stale_intervals, 0u);
  EXPECT_EQ(*feed.snapshot, MakeSnapshot(9.0));
  EXPECT_GT(feed.confidence, last_confidence);
}

TEST(StatsChannelTest, CorruptReportsAreRejected) {
  Simulator sim;
  StatsChannel channel(&sim, {});
  channel.Publish(1, MakeSnapshot(1.0), 10);
  EXPECT_TRUE(channel.Collect(1).fresh);
  channel.set_net_hook([](int, uint64_t) {
    FaultInjector::NetDecision d;
    d.corrupt = true;
    return d;
  });
  channel.Publish(1, MakeSnapshot(2.0), 10);
  const StatsChannel::Feed feed = channel.Collect(1);
  EXPECT_FALSE(feed.fresh);  // the mangled report never reached the feed
  EXPECT_EQ(*feed.snapshot, MakeSnapshot(1.0));
}

TEST(StatsChannelTest, DuplicatesAndStaleSeqsAreIgnored) {
  Simulator sim;
  StatsChannel channel(&sim, {});
  channel.set_net_hook([](int, uint64_t) {
    FaultInjector::NetDecision d;
    d.duplicate = true;
    return d;
  });
  channel.Publish(1, MakeSnapshot(5.0), 10);
  StatsChannel::Feed feed = channel.Collect(1);
  EXPECT_TRUE(feed.fresh);
  EXPECT_EQ(feed.last_seq, 1u);
  // The duplicate copy must not register as a second fresh report.
  feed = channel.Collect(1);
  EXPECT_FALSE(feed.fresh);
}

TEST(StatsChannelTest, ReorderedReportLosesToItsSuccessor) {
  Simulator sim;
  StatsChannel channel(&sim, {});
  bool reorder = true;
  channel.set_net_hook([&reorder](int, uint64_t) {
    FaultInjector::NetDecision d;
    d.reorder = reorder;
    return d;
  });
  // seq 1 is pushed 1.5 intervals out; seq 2 arrives on time and wins.
  channel.Publish(1, MakeSnapshot(1.0), 10);
  reorder = false;
  sim.ScheduleAfter(10, [&channel] {
    channel.Publish(1, MakeSnapshot(2.0), 10);
  });
  sim.RunUntil(30);  // both copies are in by now
  const StatsChannel::Feed feed = channel.Collect(1);
  EXPECT_TRUE(feed.fresh);
  EXPECT_EQ(feed.last_seq, 2u);
  EXPECT_EQ(*feed.snapshot, MakeSnapshot(2.0));
}

// --- the guard: fence widening, act threshold, flap damping ---

TEST(StatsChannelTest, FenceScaleWidensAsConfidenceDecaysAndIsCapped) {
  Simulator sim;
  StatsChannel channel(&sim, {});
  EXPECT_DOUBLE_EQ(channel.FenceScale(1.0), 1.0);
  EXPECT_GT(channel.FenceScale(0.5), channel.FenceScale(0.9));
  EXPECT_LE(channel.FenceScale(1e-9), 8.0);  // long outage, finite fences
}

TEST(StatsChannelTest, GuardOffPinsFullConfidence) {
  Simulator sim;
  StatsChannelConfig config;
  config.guard = false;
  StatsChannel channel(&sim, config);
  channel.set_net_hook([](int, uint64_t) {
    FaultInjector::NetDecision d;
    d.drop = true;
    return d;
  });
  channel.Publish(1, MakeSnapshot(1.0), 10);
  const StatsChannel::Feed feed = channel.Collect(1);
  EXPECT_FALSE(feed.fresh);
  EXPECT_DOUBLE_EQ(feed.confidence, 1.0);  // the flapping ablation arm
  EXPECT_EQ(EvidenceHold(channel, feed.confidence), Hold::kNone);
}

TEST(StatsChannelTest, AlternatingLossNeverClearsActThreshold) {
  // Flap damping: a link that loses every other report oscillates
  // confidence strictly below the placement gate's act threshold, so
  // actions cannot ping-pong with the link state.
  Simulator sim;
  StatsChannel channel(&sim, {});
  bool drop = false;
  channel.set_net_hook([&drop](int, uint64_t) {
    FaultInjector::NetDecision d;
    d.drop = drop;
    return d;
  });
  channel.Publish(1, MakeSnapshot(0.0), 10);
  EXPECT_TRUE(channel.Collect(1).fresh);
  for (int i = 0; i < 20; ++i) {
    drop = !drop;
    channel.Publish(1, MakeSnapshot(static_cast<double>(i)), 10);
    const StatsChannel::Feed feed = channel.Collect(1);
    if (i > 0) {  // after the first loss the flap regime is reached
      EXPECT_EQ(EvidenceHold(channel, feed.confidence), Hold::kLowConfidence)
          << i;
    }
  }
}

// --- lifecycle: retention and restore ---

TEST(StatsChannelTest, RetainDropsDeadReplicas) {
  Simulator sim;
  StatsChannel channel(&sim, {});
  channel.Publish(1, MakeSnapshot(1.0), 10);
  channel.Publish(2, MakeSnapshot(2.0), 10);
  channel.Collect(1);
  channel.Collect(2);
  channel.Retain({2});
  // Replica 1's receiver state is gone: a fresh Collect starts over.
  EXPECT_TRUE(channel.Collect(1).snapshot->empty());
  EXPECT_EQ(*channel.Collect(2).snapshot, MakeSnapshot(2.0));
}

TEST(StatsChannelTest, ReceiverStateRoundTripsThroughRestore) {
  Simulator sim;
  StatsChannel channel(&sim, {});
  bool drop = false;
  channel.set_net_hook([&drop](int, uint64_t) {
    FaultInjector::NetDecision d;
    d.drop = drop;
    return d;
  });
  channel.Publish(1, MakeSnapshot(4.0), 10);
  channel.Collect(1);
  drop = true;
  channel.Publish(1, MakeSnapshot(5.0), 10);
  const StatsChannel::Feed before = channel.Collect(1);
  EXPECT_FALSE(before.fresh);

  const std::map<int, StatsChannel::Receiver> saved = channel.receivers();
  channel.RestoreReceivers({});
  EXPECT_TRUE(channel.Collect(1).snapshot->empty());

  // Restoring resumes the exact staleness episode: same last-known-good
  // snapshot, same confidence, and the next miss continues the count.
  channel.RestoreReceivers(saved);
  EXPECT_EQ(channel.receivers(), saved);
  channel.Publish(1, MakeSnapshot(6.0), 10);  // dropped
  const StatsChannel::Feed after = channel.Collect(1);
  EXPECT_FALSE(after.fresh);
  EXPECT_EQ(after.stale_intervals, before.stale_intervals + 1);
  EXPECT_EQ(*after.snapshot, MakeSnapshot(4.0));
}

TEST(StatsChannelTest, PublisherSequencesSurviveReceiverReset) {
  // Publisher seq is data-plane state: a ctl crash wipes the receiver
  // but the next report still carries the next sequence number, so a
  // restored controller cannot mistake a replayed-looking report for a
  // fresh one.
  Simulator sim;
  StatsChannel channel(&sim, {});
  channel.Publish(1, MakeSnapshot(1.0), 10);
  channel.Collect(1);
  channel.RestoreReceivers({});
  channel.Publish(1, MakeSnapshot(2.0), 10);
  const StatsChannel::Feed feed = channel.Collect(1);
  EXPECT_TRUE(feed.fresh);
  EXPECT_EQ(feed.last_seq, 2u);
}

// --- the channel is the controller's only stats transport ---

// TPC-W and RUBiS consolidated on one replica plus a TPC-W spare:
// violations, diagnoses and placement actions within a few minutes.
// The harness never calls EnableStatsChannel.
std::unique_ptr<ClusterHarness> MakeConsolidation() {
  auto h = std::make_unique<ClusterHarness>();
  h->trace().EnableBuffering();
  // fglb_sim's chaos topology on 3 servers with 40 RUBiS clients.
  RunConfig run;
  run.scenario = Scenario::kChaosReplica;
  run.servers = 3;
  run.rubis_clients = 40;
  run.seed = 7;
  AssembleScenario(run, h.get());
  return h;
}

std::vector<JsonValue> TraceEvents(ClusterHarness& h, const char* phase) {
  std::vector<JsonValue> events;
  for (const std::string& line : h.trace().BufferedLines()) {
    JsonValue event;
    std::string error;
    EXPECT_TRUE(JsonValue::Parse(line, &event, &error)) << error;
    if (event.StringOr("phase", "") == phase) events.push_back(event);
  }
  return events;
}

TEST(StatsChannelHarnessTest, ControllerReadsStatsThroughTheChannel) {
  auto h = MakeConsolidation();
  EXPECT_EQ(h->stats_channel(), &h->retuner().stats_channel());
  const double interval = h->retuner().config().interval_seconds;
  Counter* published = h->metrics().counter("stats_channel.published");
  h->Start();
  // One tick per step: every replica alive at the tick publishes
  // exactly one report (replicas provisioned by the tick publish from
  // the next one on).
  for (int tick = 0; tick < 30; ++tick) {
    const uint64_t before = published->value();
    const size_t live = h->resources().AllReplicas().size();
    h->RunFor(interval);
    EXPECT_EQ(published->value() - before, live) << "tick " << tick;
  }
  EXPECT_EQ(h->metrics().counter("stats_channel.delivered")->value(),
            published->value());
  EXPECT_FALSE(h->retuner().actions().empty());

  // A healthy feed never goes stale or resyncs, and every violating
  // interval reports full telemetry confidence.
  EXPECT_TRUE(TraceEvents(*h, "recovery").empty());
  const std::vector<JsonValue> sla = TraceEvents(*h, "sla");
  ASSERT_FALSE(sla.empty());
  for (const JsonValue& event : sla) {
    EXPECT_EQ(event.NumberOr("stats_conf", -1), 1.0);
    EXPECT_EQ(event.NumberOr("stale_replicas", -1), 0.0);
  }
}

TEST(StatsChannelHarnessTest, GuardOffReachesTheRetunersChannel) {
  // bench_recovery's unguarded ablation arm configures the channel on a
  // harness that already owns one. Under a report blackout the guarded
  // arm decays confidence; the unguarded arm stays at full confidence.
  auto lost_confidences = [](bool guard) {
    auto h = MakeConsolidation();
    StatsChannelConfig config;
    config.guard = guard;
    EXPECT_EQ(h->EnableStatsChannel(config), &h->retuner().stats_channel());
    EXPECT_EQ(h->retuner().stats_channel().config().guard, guard);
    FaultSpec spec;
    std::string error;
    EXPECT_TRUE(
        FaultSpec::Parse("net@100:drop=1,duration=60", &spec, &error))
        << error;
    h->InjectFaults(std::move(spec), /*seed=*/3);
    h->Start();
    h->RunFor(200);
    std::vector<double> confidences;
    for (const JsonValue& event : TraceEvents(*h, "recovery")) {
      if (event.StringOr("why", "") == "report_lost") {
        confidences.push_back(event.NumberOr("conf", -1));
      }
    }
    return confidences;
  };
  const std::vector<double> unguarded = lost_confidences(false);
  ASSERT_FALSE(unguarded.empty());
  for (double conf : unguarded) EXPECT_EQ(conf, 1.0);
  const std::vector<double> guarded = lost_confidences(true);
  ASSERT_FALSE(guarded.empty());
  EXPECT_LT(guarded.back(), 0.9);
}

}  // namespace
}  // namespace fglb

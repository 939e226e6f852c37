#include "core/controller_checkpoint.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "cluster/stats_channel.h"
#include "common/varint.h"
#include "core/control_state.h"
#include "scenarios/scenario.h"

namespace fglb {
namespace {

// A consolidation cluster with enough churn that the controller has
// real control state to checkpoint: streaks, stable baselines, feeds.
struct Fixture {
  Fixture() {
    SelectiveRetuner::Config config;
    config.max_migrations_per_interval = 2;
    harness = std::make_unique<ClusterHarness>(config);
    // fglb_sim's chaos topology on 3 servers with 40 RUBiS clients.
    RunConfig run;
    run.scenario = Scenario::kChaosReplica;
    run.servers = 3;
    run.rubis_clients = 40;
    run.seed = 7;
    AssembleScenario(run, harness.get());
    harness->Start();
    harness->RunFor(150);
  }

  std::string BuildBlob() {
    std::string blob;
    ControllerCheckpoint::Build(harness->sim().Now(), harness->retuner(),
                                harness->admission(), &blob);
    return blob;
  }

  // Bit-exact projections of the control plane, for before/after diffs.
  std::string RetunerState() const {
    std::string s;
    harness->retuner().SerializeControlState(&s);
    return s;
  }
  std::string ChannelState() const {
    std::string s;
    harness->stats_channel()->SerializeReceiverState(&s);
    return s;
  }

  // The retuner's reset covers its stats channel's receiver side too.
  void WipeControlPlane() { harness->retuner().ResetControlState(); }

  std::unique_ptr<ClusterHarness> harness;
};

// Strips the trailing CRC, applies `mutate` to the body, and re-seals.
std::string Reseal(std::string blob,
                   const std::function<void(std::string*)>& mutate) {
  blob.resize(blob.size() - 4);
  mutate(&blob);
  PutFixed32(&blob, Crc32(blob.data(), blob.size()));
  return blob;
}

TEST(ControllerCheckpointTest, RestoreIsBitExact) {
  Fixture f;
  const std::string retuner_before = f.RetunerState();
  const std::string channel_before = f.ChannelState();
  ASSERT_FALSE(retuner_before.empty());
  const std::string blob = f.BuildBlob();

  f.WipeControlPlane();
  EXPECT_NE(f.RetunerState(), retuner_before);

  const auto result = ControllerCheckpoint::Restore(
      blob, &f.harness->retuner(), nullptr);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_DOUBLE_EQ(result.taken_at, f.harness->sim().Now());
  EXPECT_EQ(f.RetunerState(), retuner_before);
  EXPECT_EQ(f.ChannelState(), channel_before);
}

TEST(ControllerCheckpointTest, UnknownTrailingSectionsRestoreCleanly) {
  // Forward compatibility: a blob written by a future controller with
  // extra sections must restore on this one, ignoring what it doesn't
  // know.
  Fixture f;
  const std::string retuner_before = f.RetunerState();
  const std::string blob = Reseal(f.BuildBlob(), [](std::string* body) {
    const std::string payload = "from-the-future";
    PutVarint64(body, 99);  // a tag this reader has never heard of
    PutVarint64(body, payload.size());
    body->append(payload);
  });

  f.WipeControlPlane();
  const auto result = ControllerCheckpoint::Restore(
      blob, &f.harness->retuner(), nullptr);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(f.RetunerState(), retuner_before);
}

TEST(ControllerCheckpointTest, TruncatedBlobIsRejectedAndLeavesColdState) {
  Fixture f;
  const std::string blob = f.BuildBlob();
  for (const size_t keep :
       {blob.size() - 1, blob.size() - 5, blob.size() / 2, size_t{4}}) {
    const auto result = ControllerCheckpoint::Restore(
        blob.substr(0, keep), &f.harness->retuner(), nullptr);
    EXPECT_FALSE(result.ok) << "kept " << keep;
    EXPECT_FALSE(result.error.empty());
  }
  // The failed restores left the control plane reset, not half-loaded:
  // bit-exact empty-state serialization on both subsystems.
  f.WipeControlPlane();
  const std::string cold_retuner = f.RetunerState();
  const std::string cold_channel = f.ChannelState();
  ControllerCheckpoint::Restore(blob.substr(0, blob.size() / 2),
                                &f.harness->retuner(), nullptr);
  EXPECT_EQ(f.RetunerState(), cold_retuner);
  EXPECT_EQ(f.ChannelState(), cold_channel);
}

TEST(ControllerCheckpointTest, CrcCorruptionIsRejected) {
  Fixture f;
  std::string blob = f.BuildBlob();
  blob[blob.size() / 2] ^= 0x01;  // one flipped bit anywhere
  const auto result = ControllerCheckpoint::Restore(
      blob, &f.harness->retuner(), nullptr);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("crc"), std::string::npos) << result.error;
}

TEST(ControllerCheckpointTest, BadMagicIsRejected) {
  Fixture f;
  std::string blob = f.BuildBlob();
  blob[0] = 'X';
  const auto result = ControllerCheckpoint::Restore(
      blob, &f.harness->retuner(), nullptr);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("magic"), std::string::npos) << result.error;
  EXPECT_FALSE(
      ControllerCheckpoint::Restore("", &f.harness->retuner(), nullptr).ok);
}

TEST(ControllerCheckpointTest, SectionLengthPastCrcIsRejected) {
  // A section claiming more payload than the blob holds must be caught
  // by the bounds check, not read into the CRC tail or past the end.
  Fixture f;
  const std::string blob = Reseal(f.BuildBlob(), [](std::string* body) {
    PutVarint64(body, 98);
    PutVarint64(body, 1u << 20);  // 1 MiB payload that isn't there
  });
  const auto result = ControllerCheckpoint::Restore(
      blob, &f.harness->retuner(), nullptr);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(ControllerCheckpointTest, ImplausibleSampleCountLeavesColdState) {
  // A correctly sealed blob whose retuner section claims 2^40 samples
  // for one stable MRC baseline while carrying a single one. The
  // decoder must check the count against the bytes present instead of
  // sizing a vector from it (8 TiB: std::bad_alloc aborts the run).
  Fixture f;
  const std::string valid = f.BuildBlob();
  f.WipeControlPlane();
  const std::string cold_retuner = f.RetunerState();
  const std::string cold_channel = f.ChannelState();
  ASSERT_TRUE(
      ControllerCheckpoint::Restore(valid, &f.harness->retuner(), nullptr).ok);
  ASSERT_NE(f.RetunerState(), cold_retuner);

  auto put_section = [](std::string* out, uint64_t tag,
                        const std::string& payload) {
    PutVarint64(out, tag);
    PutVarint64(out, payload.size());
    out->append(payload);
  };
  std::string meta;
  PutFixed64(&meta, DoubleToBits(100.0));
  std::string retuner;
  ControlState{}.Encode(&retuner);            // empty control state
  PutVarint64(&retuner, 1);                   // one analyzer
  PutVarint64(&retuner, ZigZagEncode(0));     // replica id
  PutVarint64(&retuner, 0);                   // no signatures
  PutVarint64(&retuner, 1);                   // one stable curve
  PutVarint64(&retuner, MakeClassKey(1, 1));  // class
  PutVarint64(&retuner, 64);                  // trace length
  PutVarint64(&retuner, 64);                  // total accesses
  PutVarint64(&retuner, uint64_t{1} << 40);   // samples claimed
  PutFixed64(&retuner, DoubleToBits(0.5));    // samples present: one
  std::string blob(ControllerCheckpoint::kMagic,
                   sizeof(ControllerCheckpoint::kMagic) - 1);
  put_section(&blob, ControllerCheckpoint::kMeta, meta);
  put_section(&blob, ControllerCheckpoint::kRetuner, retuner);
  PutFixed32(&blob, Crc32(blob.data(), blob.size()));

  const auto result =
      ControllerCheckpoint::Restore(blob, &f.harness->retuner(), nullptr);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "bad retuner section");
  EXPECT_EQ(f.RetunerState(), cold_retuner);
  EXPECT_EQ(f.ChannelState(), cold_channel);
}

}  // namespace
}  // namespace fglb

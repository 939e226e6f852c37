// Property/fuzz coverage of the byte-level codec under the FGLBCAP1
// capture format, which is also the repo's page-access trace format:
// random streams must round-trip exactly, random byte corruption must
// be detected by the checksums, and mutated blocks re-sealed behind a
// valid checksum must be decoded or rejected — never a crash, never
// silently wrong data.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/varint.h"
#include "replay/capture.h"
#include "replay/replayer.h"
#include "run_and_capture.h"
#include "sim/simulator.h"

namespace fglb {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- varint / zigzag properties ---

TEST(ReplayCodecTest, VarintRoundTripsEdgeAndRandomValues) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  UINT64_MAX, UINT64_MAX - 1,
                                  1ULL << 32, (1ULL << 63) - 1, 1ULL << 63};
  std::mt19937_64 rng(42);
  for (int i = 0; i < 2000; ++i) {
    // Mix full-range and small values (small ones exercise 1-2 byte
    // encodings, where off-by-ones would hide).
    values.push_back(rng() >> (rng() % 64));
  }
  for (uint64_t v : values) {
    std::string buf;
    PutVarint64(&buf, v);
    ASSERT_LE(buf.size(), 10u);
    uint64_t decoded = 0;
    const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
    ASSERT_EQ(GetVarint64(p, p + buf.size(), &decoded), buf.size()) << v;
    EXPECT_EQ(decoded, v);
  }
}

TEST(ReplayCodecTest, VarintRejectsTruncation) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 500; ++i) {
    const uint64_t v = rng() >> (rng() % 64);
    std::string buf;
    PutVarint64(&buf, v);
    const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
    for (size_t keep = 0; keep < buf.size(); ++keep) {
      uint64_t decoded = 0;
      EXPECT_EQ(GetVarint64(p, p + keep, &decoded), 0u)
          << v << " truncated to " << keep;
    }
  }
}

TEST(ReplayCodecTest, ReaderReadsNothingAfterAFailedRead) {
  // One byte: too short for a fixed64, a whole varint on its own. Once
  // the double fails, every later read returns a zero value and leaves
  // the byte where it is.
  const std::vector<uint8_t> bytes = {0x05};
  Reader r{bytes.data(), bytes.data() + bytes.size()};
  EXPECT_EQ(r.F64(), 0.0);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_EQ(r.S64(), 0);
  EXPECT_EQ(r.Str(), "");
  EXPECT_EQ(r.U8(), 0u);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(ReplayCodecTest, VarintRejectsOverlongEncoding) {
  // 11 continuation bytes never terminate a valid varint.
  const std::string overlong(11, '\x80');
  const uint8_t* p = reinterpret_cast<const uint8_t*>(overlong.data());
  uint64_t decoded = 0;
  EXPECT_EQ(GetVarint64(p, p + overlong.size(), &decoded), 0u);
}

TEST(ReplayCodecTest, ZigZagRoundTripsFullDomain) {
  std::mt19937_64 rng(11);
  std::vector<int64_t> values = {0, 1, -1, INT64_MAX, INT64_MIN,
                                 INT64_MIN + 1};
  for (int i = 0; i < 2000; ++i) {
    values.push_back(static_cast<int64_t>(rng()));
  }
  for (int64_t v : values) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  // The uint64 wrap-around deltas the page/time encoders rely on.
  const uint64_t a = 5, b = UINT64_MAX - 2;
  const uint64_t delta = ZigZagEncode(static_cast<int64_t>(b - a));
  EXPECT_EQ(a + static_cast<uint64_t>(ZigZagDecode(delta)), b);
}

TEST(ReplayCodecTest, Crc32MatchesKnownVectorAndChains) {
  // "123456789" -> 0xCBF43926 is the standard CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  const std::string data = "the quick brown fox";
  for (size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(Crc32(data.data() + split, data.size() - split,
                    Crc32(data.data(), split)),
              Crc32(data.data(), data.size()));
  }
}

// Oracle: CRC-32 straight from the reflected polynomial, one bit at a
// time, with no table shared with the code under test.
uint32_t BytewiseCrc32(const uint8_t* p, size_t n, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(CrcTest, SliceBy8MatchesBytewiseReference) {
  std::mt19937_64 gen(20);
  std::vector<uint8_t> buffer(4096 + 8);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(gen());
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(4096);
  // Every start offset 0-7 puts the 8-byte blocks at every alignment.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n : lengths) {
      const uint8_t* p = buffer.data() + offset;
      const uint32_t seed = static_cast<uint32_t>(gen());
      EXPECT_EQ(Crc32(p, n), BytewiseCrc32(p, n, 0))
          << "offset " << offset << " length " << n;
      EXPECT_EQ(Crc32(p, n, seed), BytewiseCrc32(p, n, seed))
          << "offset " << offset << " length " << n;
    }
  }
}

// --- page-access traces: the executions of an FGLBCAP1 capture ---

// One traced execution: the class that ran and the pages it touched,
// in order.
struct TracedExecution {
  ClassKey key = 0;
  std::vector<PageAccess> accesses;
};

// Writes `executions` as the execution stream of an otherwise empty
// capture (one execution per simulated millisecond, all on replica 0)
// and returns the file's bytes.
std::string WriteTraceCapture(const std::string& path,
                              const std::vector<TracedExecution>& executions) {
  Simulator sim;
  CaptureWriter writer(&sim);
  std::string error;
  EXPECT_TRUE(writer.Open(path, RunConfig{}, &error)) << error;
  for (size_t i = 0; i < executions.size(); ++i) {
    const TracedExecution* e = &executions[i];
    sim.ScheduleAt(1e-3 * static_cast<double>(i), [&writer, e] {
      writer.OnExecution(0, e->key, e->accesses);
    });
  }
  sim.RunToCompletion();
  EXPECT_TRUE(writer.Finalize({}, {}));
  return Slurp(path);
}

// Reads `path` back into per-execution traces; false if the capture
// does not decode.
bool ReadTraceCapture(const std::string& path,
                      std::vector<TracedExecution>* out) {
  out->clear();
  Capture capture;
  std::string error;
  if (!ReadCapture(path, &capture, &error)) return false;
  for (const CaptureExecution& exec : capture.executions) {
    TracedExecution e;
    e.key = exec.key;
    e.accesses.assign(
        capture.accesses.begin() + static_cast<ptrdiff_t>(exec.access_begin),
        capture.accesses.begin() +
            static_cast<ptrdiff_t>(exec.access_begin + exec.access_count));
    out->push_back(std::move(e));
  }
  return true;
}

void ExpectSameTrace(const std::vector<TracedExecution>& actual,
                     const std::vector<TracedExecution>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].key, expected[i].key) << "execution " << i;
    ASSERT_EQ(actual[i].accesses.size(), expected[i].accesses.size());
    for (size_t j = 0; j < expected[i].accesses.size(); ++j) {
      const PageAccess& a = actual[i].accesses[j];
      const PageAccess& b = expected[i].accesses[j];
      ASSERT_EQ(a.page, b.page) << "execution " << i << " access " << j;
      ASSERT_EQ(a.kind, b.kind) << "execution " << i << " access " << j;
      ASSERT_EQ(a.is_write, b.is_write)
          << "execution " << i << " access " << j;
    }
  }
}

// 25 executions of four accesses over two apps, five classes and
// three tables.
std::vector<TracedExecution> SampleTrace() {
  std::vector<TracedExecution> executions(25);
  for (int i = 0; i < 100; ++i) {
    TracedExecution& e = executions[i / 4];
    e.key = MakeClassKey(1 + (i / 4) % 2, 10 + (i / 4) % 5);
    PageAccess a;
    a.page = MakePageId(static_cast<TableId>(i % 3), 1000 + i);
    a.kind = i % 4 == 0 ? AccessKind::kSequential : AccessKind::kRandom;
    a.is_write = i % 7 == 0;
    e.accesses.push_back(a);
  }
  return executions;
}

TEST(TraceTest, RoundTrip) {
  const std::string path = TempPath("fglb_trace_roundtrip.fglbcap");
  const auto executions = SampleTrace();
  WriteTraceCapture(path, executions);
  std::vector<TracedExecution> loaded;
  ASSERT_TRUE(ReadTraceCapture(path, &loaded));
  ExpectSameTrace(loaded, executions);
  std::remove(path.c_str());
}

TEST(TraceTest, EmptyTraceRoundTrips) {
  const std::string path = TempPath("fglb_trace_empty.fglbcap");
  WriteTraceCapture(path, {});
  std::vector<TracedExecution> loaded = {TracedExecution{}};
  ASSERT_TRUE(ReadTraceCapture(path, &loaded));
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

TEST(TraceTest, MissingFileFails) {
  Capture capture;
  std::string error;
  EXPECT_FALSE(ReadCapture(TempPath("fglb_trace_does_not_exist.fglbcap"),
                           &capture, &error));
  EXPECT_FALSE(error.empty());
}

TEST(TraceTest, BadMagicRejected) {
  const std::string path = TempPath("fglb_trace_bad_magic.fglbcap");
  WriteBytes(path, "NOTATRACEFILE_____________");
  Capture capture;
  std::string error;
  EXPECT_FALSE(ReadCapture(path, &capture, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(TraceTest, TruncatedFileRejected) {
  const std::string path = TempPath("fglb_trace_truncated.fglbcap");
  const std::string bytes = WriteTraceCapture(path, SampleTrace());
  // Chop into the end block.
  WriteBytes(path, bytes.substr(0, bytes.size() - 12));
  std::vector<TracedExecution> loaded;
  EXPECT_FALSE(ReadTraceCapture(path, &loaded));
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

// Adversarial key/page distributions: wild jumps and tight runs, and
// executions of every length including zero.
std::vector<TracedExecution> RandomTrace(uint64_t seed, size_t count) {
  std::mt19937_64 rng(seed);
  std::vector<TracedExecution> executions(count);
  for (TracedExecution& e : executions) {
    e.key = rng() % 4 == 0 ? rng() : MakeClassKey(1, rng() % 8);
    const size_t accesses = rng() % 24;
    for (size_t i = 0; i < accesses; ++i) {
      PageAccess a;
      a.page = rng() % 4 == 0
                   ? rng()
                   : MakePageId(static_cast<TableId>(rng() % 4),
                                rng() % 10000);
      a.kind = rng() % 2 == 0 ? AccessKind::kSequential
                              : AccessKind::kRandom;
      a.is_write = rng() % 3 == 0;
      e.accesses.push_back(a);
    }
  }
  return executions;
}

TEST(ReplayCodecTest, RandomTraceStreamsRoundTripExactly) {
  const std::string path = TempPath("fglb_codec_trace_rt.fglbcap");
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const auto executions = RandomTrace(seed, 1 + seed * 37);
    WriteTraceCapture(path, executions);
    std::vector<TracedExecution> loaded;
    ASSERT_TRUE(ReadTraceCapture(path, &loaded)) << "seed " << seed;
    ExpectSameTrace(loaded, executions);
  }
  std::remove(path.c_str());
}

TEST(ReplayCodecTest, RandomTraceCorruptionAlwaysDetected) {
  const std::string path = TempPath("fglb_codec_trace_fuzz.fglbcap");
  const std::string clean = WriteTraceCapture(path, RandomTrace(99, 500));
  std::mt19937_64 rng(123);
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupted = clean;
    const size_t pos = rng() % corrupted.size();
    const uint8_t xor_mask = static_cast<uint8_t>(1 + rng() % 255);
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ xor_mask);
    WriteBytes(path, corrupted);
    std::vector<TracedExecution> loaded;
    // Must fail cleanly — the magic, block framing or a block's CRC-32
    // traps every single-byte change; silent wrong data would pass here.
    EXPECT_FALSE(ReadTraceCapture(path, &loaded))
        << "byte " << pos << " ^ " << int{xor_mask};
    EXPECT_TRUE(loaded.empty());
  }
  std::remove(path.c_str());
}

// --- capture format: round-trip and corruption ---

// A small capture written through the real writer, with events spread
// over simulated time so the time-delta chain is exercised. The second
// action is a `second_kind`.
std::string WriteSampleCapture(
    const std::string& path, uint64_t seed,
    SelectiveRetuner::ActionKind second_kind =
        SelectiveRetuner::ActionKind::kClassRescheduled) {
  Simulator sim;
  CaptureWriter writer(&sim);

  RunConfig run;
  run.seed = seed;
  run.fault_seed = seed + 1;
  run.scenario = Scenario::kChaosDisk;
  run.fault_spec = "disk@10:server=0,factor=2,duration=5";
  run.duration_seconds = 30;
  run.interval_seconds = 10;
  run.mrc_sample_rate = 0.5;
  run.max_migrations_per_interval = 2;

  std::string error;
  EXPECT_TRUE(writer.Open(path, run, &error)) << error;

  QueryTemplate tmpl;
  tmpl.id = 3;
  std::mt19937_64 rng(seed);
  const QueryTemplate* tmpl_ptr = &tmpl;
  for (int i = 0; i < 200; ++i) {
    const double t = static_cast<double>(i) * 0.1 +
                     static_cast<double>(rng() % 1000) * 1e-6;
    sim.ScheduleAt(t, [&writer, &rng, tmpl_ptr] {
      QueryInstance query;
      query.app = 1;
      query.tmpl = tmpl_ptr;
      query.client_id = rng() % 32;
      writer.OnArrival(query);
      std::vector<PageAccess> accesses;
      const size_t n = 1 + rng() % 40;
      for (size_t j = 0; j < n; ++j) {
        PageAccess a;
        a.page = rng() % 4 == 0 ? rng()
                                : MakePageId(2, rng() % 1000);
        a.kind = rng() % 2 == 0 ? AccessKind::kSequential
                                : AccessKind::kRandom;
        a.is_write = rng() % 5 == 0;
        accesses.push_back(a);
      }
      writer.OnExecution(0, MakeClassKey(1, 3), accesses);
    });
  }
  sim.RunToCompletion();

  std::vector<SelectiveRetuner::Action> actions(2);
  actions[0].time = 10;
  actions[0].kind = SelectiveRetuner::ActionKind::kQuotaEnforced;
  actions[0].app = 1;
  actions[0].description = "quota 512 pages";
  actions[1].time = 20;
  actions[1].kind = second_kind;
  actions[1].app = 1;
  actions[1].description = "rescheduled";
  std::vector<SelectiveRetuner::IntervalSample> samples(3);
  for (int i = 0; i < 3; ++i) {
    samples[i].time = 10.0 * (i + 1);
    SelectiveRetuner::AppSample as;
    as.app = 1;
    as.queries = 100 + i;
    as.avg_latency = 0.5 * i;
    as.p95_latency = 0.9 * i;
    as.throughput = 10.0 + i;
    as.sla_met = i != 1;
    as.servers_used = 1;
    samples[i].apps.push_back(as);
    samples[i].servers.push_back({0, 0.5, 0.25});
  }
  EXPECT_TRUE(writer.Finalize(actions, samples));
  return Slurp(path);
}

TEST(ReplayCodecTest, CaptureRoundTripsExactly) {
  const std::string path = TempPath("fglb_codec_capture_rt.bin");
  WriteSampleCapture(path, 5);
  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;

  EXPECT_EQ(capture.run.seed, 5u);
  EXPECT_EQ(capture.run.fault_seed, 6u);
  EXPECT_EQ(capture.run.scenario, Scenario::kChaosDisk);
  EXPECT_EQ(capture.run.fault_spec, "disk@10:server=0,factor=2,duration=5");
  EXPECT_DOUBLE_EQ(capture.run.mrc_sample_rate, 0.5);
  EXPECT_EQ(capture.run.max_migrations_per_interval, 2);

  EXPECT_EQ(capture.arrivals.size(), 200u);
  EXPECT_EQ(capture.executions.size(), 200u);
  ASSERT_EQ(capture.actions.size(), 2u);
  EXPECT_EQ(capture.actions[1].description, "rescheduled");
  ASSERT_EQ(capture.samples.size(), 3u);
  EXPECT_FALSE(capture.samples[1].apps[0].sla_met);

  // Re-generate the identical stream and compare the decoded events
  // element-wise (times must be bit-exact through the delta chain).
  const std::string path2 = TempPath("fglb_codec_capture_rt2.bin");
  WriteSampleCapture(path2, 5);
  Capture capture2;
  ASSERT_TRUE(ReadCapture(path2, &capture2, &error)) << error;
  ASSERT_EQ(capture2.arrivals.size(), capture.arrivals.size());
  for (size_t i = 0; i < capture.arrivals.size(); ++i) {
    EXPECT_EQ(capture.arrivals[i].t, capture2.arrivals[i].t);
    EXPECT_EQ(capture.arrivals[i].client_id, capture2.arrivals[i].client_id);
  }
  ASSERT_EQ(capture2.accesses.size(), capture.accesses.size());
  for (size_t i = 0; i < capture.accesses.size(); ++i) {
    EXPECT_EQ(capture.accesses[i].page, capture2.accesses[i].page);
    EXPECT_EQ(capture.accesses[i].kind, capture2.accesses[i].kind);
    EXPECT_EQ(capture.accesses[i].is_write, capture2.accesses[i].is_write);
  }
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(ReplayCodecTest, ActionKindPastTheLastKindIsRejected) {
  // A correctly sealed actions block whose second action carries kind
  // byte 8, one past kDemote: no retuner action has that kind.
  const std::string path = TempPath("fglb_codec_capture_bad_kind.bin");
  WriteSampleCapture(path, 5, static_cast<SelectiveRetuner::ActionKind>(8));
  Capture capture;
  std::string error;
  EXPECT_FALSE(ReadCapture(path, &capture, &error));
  EXPECT_NE(error.find("bad actions block"), std::string::npos) << error;
  std::remove(path.c_str());
}

// One correctly framed and sealed FGLBCAP1 block.
std::string SealedBlock(uint8_t type, const std::string& payload) {
  std::string block(1, static_cast<char>(type));
  PutFixed32(&block, static_cast<uint32_t>(payload.size()));
  PutFixed32(&block, Crc32(payload.data(), payload.size()));
  return block + payload;
}

TEST(ReplayCodecTest, InfoBlockThatIsNotARunConfigIsRejected) {
  // Before the info block held a RunConfig it held varint seeds and
  // length-prefixed spec strings. Such a capture no longer loads.
  const std::string path = TempPath("fglb_codec_capture_old_info.bin");
  std::string payload;
  PutVarint64(&payload, 1);  // seed
  PutVarint64(&payload, 1);  // fault seed
  PutVarint64(&payload, 13);
  payload += "consolidation";
  WriteBytes(path, "FGLBCAP1" + SealedBlock(1, payload));
  Capture capture;
  std::string error;
  EXPECT_FALSE(ReadCapture(path, &capture, &error));
  EXPECT_NE(error.find("bad info block"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(ReplayCodecTest, NestedSubSpecInfoBlockIsRejected) {
  // Before the RunConfig was one flat row per knob, five of its lines
  // nested a sub-config spec. Such a capture no longer loads, and the
  // error names the key that changed.
  const std::string path = TempPath("fglb_codec_capture_nested_info.bin");
  const std::string parent_format =
      "admission=\nckpt_interval=0\ncohorts=auto\nduration=30\n"
      "fault_seed=1\nfault_spec=\ninterval=10\nmax_migrations=0\nmrc=\n"
      "mrc_sample_rate=1\nreplacement=lru\nreplica_pool_pages=8192\n"
      "rubis_clients=45\nscenario=tier-thrash\nseed=1\nservers=4\nspans=\n"
      "stats=\ntier=pages=16384,read_us=100,demote=1\ntpcw_clients=120";
  // Today's rows with the three tier2_* rows folded back into the one
  // nested line they replace.
  std::string nested_tier;
  std::istringstream rows(
      ScenarioRunConfig(Scenario::kTierThrash, 30).ToString());
  for (std::string line; std::getline(rows, line);) {
    if (line.rfind("tier2_", 0) != 0) nested_tier += line + "\n";
  }
  nested_tier += "tier=pages=16384,read_us=100,demote=1";
  for (const auto& [info, token] :
       {std::pair<std::string, std::string>{parent_format, "admission="},
        {nested_tier, "unknown run config key: tier"}}) {
    WriteBytes(path, "FGLBCAP1" + SealedBlock(1, info) + SealedBlock(6, ""));
    Capture capture;
    std::string error;
    EXPECT_FALSE(ReadCapture(path, &capture, &error));
    EXPECT_NE(error.find("bad info block"), std::string::npos) << error;
    EXPECT_NE(error.find(token), std::string::npos) << error;
  }
  std::remove(path.c_str());
}

TEST(ReplayCodecTest, TopologyBlockIsRejected) {
  // Captures once carried a topology block (type 2) after the info
  // block; the RunConfig fixes the cluster, so the type is unknown now.
  // Its payload here is an empty topology: four zero counts.
  const std::string path = TempPath("fglb_codec_capture_topology.bin");
  WriteBytes(path, "FGLBCAP1" + SealedBlock(1, RunConfig{}.ToString()) +
                       SealedBlock(2, std::string(4, '\0')) +
                       SealedBlock(6, ""));
  Capture capture;
  std::string error;
  EXPECT_FALSE(ReadCapture(path, &capture, &error));
  EXPECT_NE(error.find("unknown block type 2"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(ReplayCodecTest, CaptureCorruptionAlwaysDetected) {
  const std::string path = TempPath("fglb_codec_capture_fuzz.bin");
  const std::string clean = WriteSampleCapture(path, 9);
  ASSERT_FALSE(clean.empty());
  std::mt19937_64 rng(321);
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupted = clean;
    const size_t pos = rng() % corrupted.size();
    const uint8_t xor_mask = static_cast<uint8_t>(1 + rng() % 255);
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ xor_mask);
    WriteBytes(path, corrupted);
    Capture capture;
    std::string error;
    EXPECT_FALSE(ReadCapture(path, &capture, &error))
        << "byte " << pos << " ^ " << int{xor_mask};
  }
  std::remove(path.c_str());
}

TEST(ReplayCodecTest, ResealedBlockMutantsNeverCrashTheDecoders) {
  // Behind the CRC: each block type's payload of a short live capture
  // is mutated (byte flips, a truncation, inserted varint continuation
  // bytes) and re-sealed, so the decoders meet the hostile bytes.
  // ReadCapture must return either way, and a samples-block mutant that
  // decodes to another series must fail strict replay.
  const std::string path = TempPath("fglb_codec_resealed.fglbcap");
  RunAndCapture(ScenarioRunConfig(Scenario::kConsolidation, 60), path);
  const CaptureBlocks clean = SplitCapture(ReadFileBytes(path));
  Capture original;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &original, &error)) << error;
  const std::string original_samples = EncodeSamples(original.samples);
  std::mt19937_64 rng(2207);
  int replayed = 0;
  for (uint8_t type : {1, 3, 4, 5, 6}) {  // info events actions samples end
    const auto block = std::ranges::find(clean, type,
                                         &CaptureBlocks::value_type::first);
    ASSERT_NE(block, clean.end()) << "block type " << int{type};
    for (int trial = 0; trial < 40; ++trial) {
      CaptureBlocks mutant = clean;
      std::string& payload = mutant[block - clean.begin()].second;
      const size_t at = payload.empty() ? 0 : rng() % payload.size();
      switch (trial % 3) {
        case 0:
          for (int flips = 1 + trial % 4; flips > 0 && !payload.empty();
               --flips) {
            payload[rng() % payload.size()] ^= static_cast<char>(1 + rng() % 255);
          }
          break;
        case 1:
          payload.resize(at);
          break;
        default:
          payload.insert(at, 1 + trial % 3,
                         static_cast<char>(0x80 | (rng() & 0x7f)));
          break;
      }
      WriteFileBytes(path, SealCapture(mutant));
      Capture capture;
      error.clear();
      if (!ReadCapture(path, &capture, &error)) {
        EXPECT_FALSE(error.empty());
        continue;
      }
      if (type != 5 || replayed == 3 ||
          EncodeSamples(capture.samples) == original_samples) {
        continue;
      }
      ++replayed;
      ReplayRunner strict(&capture, ReplayBuildOptions{});
      EXPECT_FALSE(strict.Run(&error)) << "samples trial " << trial;
      EXPECT_EQ(error.rfind("replay diverged: ", 0), 0u) << error;
    }
  }
  EXPECT_EQ(replayed, 3);
  std::remove(path.c_str());
}

TEST(ReplayCodecTest, CaptureTruncationAndGarbageDetected) {
  const std::string path = TempPath("fglb_codec_capture_trunc.bin");
  const std::string clean = WriteSampleCapture(path, 13);
  std::mt19937_64 rng(55);
  for (int trial = 0; trial < 50; ++trial) {
    WriteBytes(path, clean.substr(0, rng() % clean.size()));
    Capture capture;
    std::string error;
    EXPECT_FALSE(ReadCapture(path, &capture, &error));
  }
  WriteBytes(path, clean + "tail");
  Capture capture;
  std::string error;
  EXPECT_FALSE(ReadCapture(path, &capture, &error));
  EXPECT_NE(error.find("trailing garbage"), std::string::npos) << error;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fglb

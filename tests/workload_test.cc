#include "workload/access_generator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "workload/application.h"
#include "workload/client_emulator.h"
#include "workload/load_function.h"
#include "workload/query_sink.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

TEST(ClassKeyTest, PackUnpack) {
  const ClassKey key = MakeClassKey(3, 17);
  EXPECT_EQ(AppOf(key), 3u);
  EXPECT_EQ(ClassOf(key), 17u);
  EXPECT_NE(MakeClassKey(1, 2), MakeClassKey(2, 1));
}

TEST(AccessGeneratorTest, PointLookupsStayInRegion) {
  AccessComponent c;
  c.table = 5;
  c.table_pages = 10000;
  c.region_offset = 2000;
  c.region_pages = 500;
  c.kind = AccessComponent::Kind::kPointLookups;
  c.zipf_theta = 0.9;
  c.mean_pages = 50;
  QueryTemplate tmpl;
  tmpl.id = 1;
  tmpl.components = {c};

  AccessGenerator gen;
  Rng rng(1);
  std::vector<PageAccess> out;
  for (int i = 0; i < 50; ++i) gen.Generate(tmpl, rng, &out);
  ASSERT_FALSE(out.empty());
  for (const PageAccess& a : out) {
    EXPECT_EQ(TableOf(a.page), 5);
    EXPECT_GE(OffsetOf(a.page), 2000u);
    EXPECT_LT(OffsetOf(a.page), 2500u);
    EXPECT_EQ(a.kind, AccessKind::kRandom);
    EXPECT_FALSE(a.is_write);
  }
}

TEST(AccessGeneratorTest, CountNearMean) {
  AccessComponent c;
  c.table = 1;
  c.table_pages = 1000;
  c.kind = AccessComponent::Kind::kPointLookups;
  c.mean_pages = 100;
  QueryTemplate tmpl;
  tmpl.components = {c};

  AccessGenerator gen;
  Rng rng(2);
  double total = 0;
  const int reps = 200;
  for (int i = 0; i < reps; ++i) {
    std::vector<PageAccess> out;
    gen.Generate(tmpl, rng, &out);
    EXPECT_GE(out.size(), 70u);
    EXPECT_LE(out.size(), 130u);
    total += static_cast<double>(out.size());
  }
  EXPECT_NEAR(total / reps, 100.0, 5.0);
}

TEST(AccessGeneratorTest, SequentialScanIsContiguous) {
  AccessComponent c;
  c.table = 2;
  c.table_pages = 100000;
  c.region_pages = 10000;
  c.kind = AccessComponent::Kind::kSequentialScan;
  c.mean_pages = 200;
  QueryTemplate tmpl;
  tmpl.components = {c};

  AccessGenerator gen;
  Rng rng(3);
  std::vector<PageAccess> out;
  gen.Generate(tmpl, rng, &out);
  ASSERT_GE(out.size(), 2u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_EQ(out[i].kind, AccessKind::kSequential);
    const uint64_t prev = OffsetOf(out[i - 1].page);
    const uint64_t cur = OffsetOf(out[i].page);
    // Contiguous modulo region wrap.
    EXPECT_TRUE(cur == prev + 1 || (prev == 9999 && cur == 0));
  }
}

TEST(AccessGeneratorTest, WriteFractionProducesWrites) {
  AccessComponent c;
  c.table = 1;
  c.table_pages = 100;
  c.kind = AccessComponent::Kind::kPointLookups;
  c.mean_pages = 50;
  c.write_fraction = 0.5;
  QueryTemplate tmpl;
  tmpl.components = {c};

  AccessGenerator gen;
  Rng rng(4);
  int writes = 0, total = 0;
  for (int i = 0; i < 100; ++i) {
    std::vector<PageAccess> out;
    gen.Generate(tmpl, rng, &out);
    for (const auto& a : out) {
      ++total;
      writes += a.is_write;
    }
  }
  EXPECT_NEAR(static_cast<double>(writes) / total, 0.5, 0.05);
}

TEST(AccessGeneratorTest, AppendingExecutionsGrowsGeometrically) {
  // Generate appends, so a caller may collect many executions in one
  // vector; that must cost O(log n) reallocations, not one per call.
  const ApplicationSpec tpcw = MakeTpcw();
  AccessGenerator gen;
  Rng rng(9);
  std::vector<PageAccess> out;
  int reallocations = 0;
  for (int e = 0; e < 2000; ++e) {
    const size_t capacity = out.capacity();
    gen.Generate(tpcw.templates[e % tpcw.templates.size()], rng, &out);
    reallocations += out.capacity() != capacity;
  }
  EXPECT_LE(reallocations, 2 * std::log2(static_cast<double>(out.size())))
      << out.size() << " accesses";
}

// --- Differential: tabulated scramble vs per-draw expansion ---

// Oracle: the direct expansion, with a Zipf draw and a Feistel
// cycle-walk (ScrambleToDomain) per point lookup. The generator must
// reproduce it draw for draw.
void ReferenceGenerate(const QueryTemplate& tmpl, Rng& rng,
                       std::vector<PageAccess>* out) {
  for (const AccessComponent& c : tmpl.components) {
    const uint64_t region = c.EffectiveRegionPages();
    const double mean = c.mean_pages * rng.UniformDouble(0.7, 1.3);
    uint64_t count =
        std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(mean)));
    PageAccess access;
    if (c.kind == AccessComponent::Kind::kPointLookups) {
      const ZipfGenerator zipf(region, c.zipf_theta);
      for (uint64_t i = 0; i < count; ++i) {
        const uint64_t rank = zipf.Sample(rng);
        access.page = MakePageId(
            c.table, c.region_offset + ScrambleToDomain(rank, region));
        access.kind = AccessKind::kRandom;
        access.is_write =
            c.write_fraction > 0 && rng.Bernoulli(c.write_fraction);
        out->push_back(access);
      }
    } else {
      count = std::min(count, region);
      uint64_t start = rng.NextUint64(region);
      start -= start % kExtentPages;
      for (uint64_t i = 0; i < count; ++i) {
        access.page = MakePageId(c.table, c.region_offset + (start + i) % region);
        access.kind = AccessKind::kSequential;
        access.is_write =
            c.write_fraction > 0 && rng.Bernoulli(c.write_fraction);
        out->push_back(access);
      }
    }
  }
}

// Runs `executions` of `tmpl` through `gen` and the reference from the
// same seed and requires identical access strings and Rng states.
void ExpectMatchesReference(AccessGenerator& gen, const QueryTemplate& tmpl,
                            int executions, uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "template " << tmpl.name);
  Rng rng(seed);
  Rng reference_rng(seed);
  std::vector<PageAccess> got;
  std::vector<PageAccess> want;
  for (int e = 0; e < executions; ++e) {
    got.clear();
    want.clear();
    gen.Generate(tmpl, rng, &got);
    ReferenceGenerate(tmpl, reference_rng, &want);
    ASSERT_EQ(got.size(), want.size()) << "execution " << e;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].page, want[i].page) << "execution " << e;
      ASSERT_EQ(got[i].kind, want[i].kind) << "execution " << e;
      ASSERT_EQ(got[i].is_write, want[i].is_write) << "execution " << e;
    }
  }
  EXPECT_EQ(rng.Next(), reference_rng.Next());
}

TEST(AccessGeneratorDifferentialTest, EveryTemplateMatchesPerDrawScramble) {
  for (const ApplicationSpec& app : {MakeTpcw(), MakeRubis()}) {
    // One generator per application, so templates over the same region
    // size share (and must agree through) one scramble table.
    AccessGenerator gen;
    for (const QueryTemplate& tmpl : app.templates) {
      ExpectMatchesReference(gen, tmpl, 10000, 1000 + tmpl.id);
    }
  }
}

TEST(AccessGeneratorDifferentialTest, RegionsAtAndAboveTableCapMatch) {
  QueryTemplate tmpl;
  tmpl.name = "cap";
  for (uint64_t region : {AccessGenerator::kMaxTabulatedRegion,
                          AccessGenerator::kMaxTabulatedRegion + 1}) {
    AccessComponent c;
    c.table = 3;
    c.table_pages = 4 * region;
    c.region_offset = region;
    c.region_pages = region;
    c.kind = AccessComponent::Kind::kPointLookups;
    c.zipf_theta = 0.8;
    c.mean_pages = 20;
    c.write_fraction = 0.25;
    tmpl.components.push_back(c);
  }
  AccessGenerator gen;
  ExpectMatchesReference(gen, tmpl, 2000, 17);
}

TEST(TpcwSpecTest, WellFormed) {
  const ApplicationSpec app = MakeTpcw();
  EXPECT_EQ(app.name, "TPC-W");
  EXPECT_EQ(app.templates.size(), app.mix_weights.size());
  EXPECT_EQ(app.templates.size(), 14u);
  double total = 0;
  for (double w : app.mix_weights) total += w;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Paper ids preserved.
  EXPECT_EQ(app.FindTemplate(kTpcwBestSeller)->name, "BestSeller");
  EXPECT_EQ(app.FindTemplate(kTpcwNewProducts)->name, "NewProducts");
  // Shopping mix is ~20% writes.
  EXPECT_NEAR(app.WriteFraction(), 0.2, 0.06);
}

TEST(TpcwSpecTest, MixesShiftWriteFraction) {
  TpcwOptions browsing, shopping, ordering;
  browsing.mix = TpcwMix::kBrowsing;
  shopping.mix = TpcwMix::kShopping;
  ordering.mix = TpcwMix::kOrdering;
  const double b = MakeTpcw(browsing).WriteFraction();
  const double s = MakeTpcw(shopping).WriteFraction();
  const double o = MakeTpcw(ordering).WriteFraction();
  EXPECT_LT(b, s);
  EXPECT_LT(s, o);
  EXPECT_NEAR(b, 0.05, 0.03);
  EXPECT_NEAR(o, 0.50, 0.12);
}

TEST(TpcwSpecTest, MixWeightsNormalized) {
  for (TpcwMix mix :
       {TpcwMix::kBrowsing, TpcwMix::kShopping, TpcwMix::kOrdering}) {
    TpcwOptions options;
    options.mix = mix;
    const ApplicationSpec app = MakeTpcw(options);
    double total = 0;
    for (double w : app.mix_weights) total += w;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(TpcwSpecTest, IndexDropChangesBestSellerOnly) {
  TpcwOptions with, without;
  without.o_date_index = false;
  const ApplicationSpec a = MakeTpcw(with);
  const ApplicationSpec b = MakeTpcw(without);
  for (size_t i = 0; i < a.templates.size(); ++i) {
    if (a.templates[i].id == kTpcwBestSeller) {
      EXPECT_NE(a.templates[i].components[0].kind,
                b.templates[i].components[0].kind);
    } else {
      EXPECT_EQ(a.templates[i].components.size(),
                b.templates[i].components.size());
    }
  }
  // Without the index, BestSeller becomes a scan.
  EXPECT_EQ(b.FindTemplate(kTpcwBestSeller)->components[0].kind,
            AccessComponent::Kind::kSequentialScan);
}

TEST(RubisSpecTest, WellFormed) {
  const ApplicationSpec app = MakeRubis();
  EXPECT_EQ(app.templates.size(), 12u);
  double total = 0;
  for (double w : app.mix_weights) total += w;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Bidding mix ~15% writes.
  EXPECT_NEAR(app.WriteFraction(), 0.15, 0.03);
  EXPECT_EQ(app.FindTemplate(kRubisSearchItemsByRegion)->name,
            "SearchItemsByRegion");
}

TEST(RubisSpecTest, SearchItemsByRegionIsHeaviest) {
  const ApplicationSpec app = MakeRubis();
  const QueryTemplate* sibr = app.FindTemplate(kRubisSearchItemsByRegion);
  for (const auto& t : app.templates) {
    if (t.id == kRubisSearchItemsByRegion) continue;
    EXPECT_GT(sibr->MeanPages(), t.MeanPages());
  }
}

TEST(RubisSpecTest, DisjointTableBasesDoNotCollide) {
  RubisOptions second;
  second.app_id = 3;
  second.table_base = 21;
  const ApplicationSpec a = MakeRubis();
  const ApplicationSpec b = MakeRubis(second);
  std::set<TableId> tables_a, tables_b;
  for (const auto& t : a.templates) {
    for (const auto& c : t.components) tables_a.insert(c.table);
  }
  for (const auto& t : b.templates) {
    for (const auto& c : t.components) tables_b.insert(c.table);
  }
  for (TableId t : tables_a) EXPECT_FALSE(tables_b.contains(t));
}

TEST(LoadFunctionTest, Constant) {
  ConstantLoad load(25);
  EXPECT_DOUBLE_EQ(load.TargetClients(0), 25.0);
  EXPECT_DOUBLE_EQ(load.TargetClients(1e6), 25.0);
}

TEST(LoadFunctionTest, SineOscillatesAndFloorsAtZero) {
  SineLoad load(10, 20, 100);  // dips below zero -> floored
  EXPECT_DOUBLE_EQ(load.TargetClients(0), 10.0);
  EXPECT_NEAR(load.TargetClients(25), 30.0, 1e-9);  // peak
  EXPECT_DOUBLE_EQ(load.TargetClients(75), 0.0);    // floored trough
}

TEST(LoadFunctionTest, StepSchedule) {
  StepLoad load({{10, 5}, {20, 50}});
  EXPECT_DOUBLE_EQ(load.TargetClients(0), 0.0);
  EXPECT_DOUBLE_EQ(load.TargetClients(10), 5.0);
  EXPECT_DOUBLE_EQ(load.TargetClients(15), 5.0);
  EXPECT_DOUBLE_EQ(load.TargetClients(25), 50.0);
}

// A sink that completes every query after a fixed delay.
class FixedDelaySink : public QuerySink {
 public:
  FixedDelaySink(Simulator* sim, double delay) : sim_(sim), delay_(delay) {}
  void Submit(const QueryInstance& query,
              CompletionCallback on_complete) override {
    ++submitted_;
    by_class_[query.tmpl->id]++;
    sim_->ScheduleAfter(
        delay_, [this, on_complete = std::move(on_complete)]() mutable {
          if (on_complete) on_complete(delay_);
        });
  }
  uint64_t submitted() const { return submitted_; }
  const std::map<QueryClassId, uint64_t>& by_class() const {
    return by_class_;
  }

 private:
  Simulator* sim_;
  double delay_;
  uint64_t submitted_ = 0;
  std::map<QueryClassId, uint64_t> by_class_;
};

TEST(ClientEmulatorTest, ClosedLoopThroughputMatchesLittle) {
  Simulator sim;
  ApplicationSpec app = MakeTpcw();
  app.think_time_seconds = 1.0;
  FixedDelaySink sink(&sim, 0.5);
  ConstantLoad load(20);
  ClientEmulator::Options options;
  options.noise_fraction = 0;
  ClientEmulator emulator(&sim, &app, &sink, &load, 7, options);
  emulator.Start();
  sim.RunUntil(300);
  // Little's law: N = X * (think + latency) -> X = 20 / 1.5.
  const double rate = static_cast<double>(emulator.completed_queries()) / 300;
  EXPECT_NEAR(rate, 20.0 / 1.5, 1.5);
  EXPECT_EQ(emulator.active_clients(), 20u);
}

TEST(ClientEmulatorTest, TracksLoadFunctionDown) {
  Simulator sim;
  ApplicationSpec app = MakeRubis();
  app.think_time_seconds = 0.5;
  FixedDelaySink sink(&sim, 0.1);
  StepLoad load({{0, 30}, {100, 5}});
  ClientEmulator::Options options;
  options.noise_fraction = 0;
  ClientEmulator emulator(&sim, &app, &sink, &load, 9, options);
  emulator.Start();
  sim.RunUntil(90);
  EXPECT_EQ(emulator.active_clients(), 30u);
  sim.RunUntil(150);
  EXPECT_EQ(emulator.active_clients(), 5u);
}

TEST(ClientEmulatorTest, StopDrainsPopulation) {
  Simulator sim;
  ApplicationSpec app = MakeTpcw();
  FixedDelaySink sink(&sim, 0.1);
  ConstantLoad load(10);
  ClientEmulator::Options options;
  options.noise_fraction = 0;
  ClientEmulator emulator(&sim, &app, &sink, &load, 11, options);
  emulator.Start();
  sim.RunUntil(50);
  emulator.Stop();
  sim.RunUntil(100);
  EXPECT_EQ(emulator.active_clients(), 0u);
}

TEST(ClientEmulatorTest, MixRoughlyRespected) {
  Simulator sim;
  ApplicationSpec app = MakeTpcw();
  app.think_time_seconds = 0.1;
  FixedDelaySink sink(&sim, 0.01);
  ConstantLoad load(50);
  ClientEmulator::Options options;
  options.noise_fraction = 0;
  ClientEmulator emulator(&sim, &app, &sink, &load, 13, options);
  emulator.Start();
  sim.RunUntil(200);
  ASSERT_GT(sink.submitted(), 10000u);
  // ProductDetail holds 23% of the mix.
  const double share =
      static_cast<double>(sink.by_class().at(kTpcwProductDetail)) /
      static_cast<double>(sink.submitted());
  EXPECT_NEAR(share, 0.23, 0.03);
}

}  // namespace
}  // namespace fglb

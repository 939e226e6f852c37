// Per-access hot path benchmark: the two structures every generated
// page access goes through, each timed on its own.
//   (1) Zipf draws over the TPC-W + RUBiS point-lookup mix, by ZipfTable
//       and by the ZipfGenerator whose draws it reproduces (ns per
//       draw). Both must return the same ranks from the same stream.
//   (2) BufferPool::Access replaying a consolidation-like access string
//       (TPC-W and RUBiS executions interleaved) against one 8192-page
//       pool (ns per access). Every pass must see the same hits.
// Each row is the median of kRepeats timed passes, with min and p95.
// Emits BENCH_hot_path.json. The smoke mode runs small inputs, writes
// the same rows and checks no timing gate.
//
//   ./build/bench/bench_hot_path [output.json] [smoke]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "storage/buffer_pool.h"
#include "workload/access_generator.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace {

using namespace fglb;

constexpr uint64_t kSeed = 26;
constexpr int kRepeats = 9;
constexpr uint64_t kPoolPages = 8192;
// Consolidation's populations: 120 TPC-W and 45 RUBiS clients.
constexpr double kTpcwShare = 120.0 / (120 + 45);

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The template of each of `executions` queries, apps mixed by
// kTpcwShare and templates by their mix weights.
std::vector<const QueryTemplate*> DrawExecutions(const ApplicationSpec& tpcw,
                                                 const ApplicationSpec& rubis,
                                                 int executions) {
  Rng rng(kSeed);
  std::vector<const QueryTemplate*> out;
  out.reserve(executions);
  for (int i = 0; i < executions; ++i) {
    const ApplicationSpec& app = rng.Bernoulli(kTpcwShare) ? tpcw : rubis;
    out.push_back(&app.templates[rng.Discrete(app.mix_weights)]);
  }
  return out;
}

// The point-lookup draws of the executions: one (sampler, count) entry
// per component, a sampler per distinct (region, theta).
struct DrawPlan {
  std::vector<ZipfGenerator> exact;
  std::vector<ZipfTable> tables;
  std::vector<std::pair<size_t, uint64_t>> steps;
  uint64_t draws = 0;
};

DrawPlan PlanDraws(const std::vector<const QueryTemplate*>& executions) {
  DrawPlan plan;
  std::map<std::pair<uint64_t, double>, size_t> index;
  for (const QueryTemplate* tmpl : executions) {
    for (const AccessComponent& c : tmpl->components) {
      if (c.kind != AccessComponent::Kind::kPointLookups) continue;
      const auto key = std::make_pair(c.EffectiveRegionPages(), c.zipf_theta);
      auto it = index.find(key);
      if (it == index.end()) {
        it = index.emplace(key, plan.exact.size()).first;
        plan.exact.emplace_back(key.first, key.second);
        plan.tables.emplace_back(plan.exact.back());
      }
      const uint64_t count = static_cast<uint64_t>(c.mean_pages + 0.5);
      plan.steps.emplace_back(it->second, count);
      plan.draws += count;
    }
  }
  return plan;
}

// Whether the tables draw the generators' ranks, stream for stream.
bool SameRanks(const DrawPlan& plan) {
  Rng table_rng(kSeed);
  Rng exact_rng(kSeed);
  for (const auto& [sampler, count] : plan.steps) {
    for (uint64_t i = 0; i < count; ++i) {
      if (plan.tables[sampler].Sample(table_rng) !=
          plan.exact[sampler].Sample(exact_rng)) {
        return false;
      }
    }
  }
  return table_rng.Next() == exact_rng.Next();
}

// One timed pass of the plan through `samplers`: ns per draw. The rank
// sum keeps the draws live.
template <typename Sampler>
double TimeDraws(const DrawPlan& plan, const std::vector<Sampler>& samplers,
                 uint64_t* rank_sum) {
  Rng rng(kSeed);
  uint64_t sum = 0;
  const double start = Now();
  for (const auto& [sampler, count] : plan.steps) {
    for (uint64_t i = 0; i < count; ++i) sum += samplers[sampler].Sample(rng);
  }
  const double wall = Now() - start;
  *rank_sum = sum;
  return 1e9 * wall / static_cast<double>(plan.draws);
}

// Replays `pages` through a fresh pool; returns ns per access.
double TimeReplay(const std::vector<PageId>& pages, uint64_t* hits) {
  BufferPool pool(kPoolPages);
  uint64_t h = 0;
  const double start = Now();
  for (PageId page : pages) h += pool.Access(page);
  const double wall = Now() - start;
  *hits = h;
  return 1e9 * wall / static_cast<double>(pages.size());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_hot_path.json";
  const bool smoke = argc > 2 && std::strcmp(argv[2], "smoke") == 0;

  bench::PrintHeader("Per-access hot path: Zipf draws and LRU accesses");
  bench::BenchJsonWriter json;
  const ApplicationSpec tpcw = MakeTpcw();
  const ApplicationSpec rubis = MakeRubis();
  const std::vector<const QueryTemplate*> executions =
      DrawExecutions(tpcw, rubis, smoke ? 5000 : 200000);
  bool ok = true;

  // --- Zipf draws: table vs exact --------------------------------
  const DrawPlan plan = PlanDraws(executions);
  std::printf("\n%llu point-lookup draws over %zu (region, theta) pairs, "
              "%d repeats:\n",
              static_cast<unsigned long long>(plan.draws), plan.exact.size(),
              kRepeats);
  const bool same_ranks = SameRanks(plan);
  ok &= same_ranks;
  std::vector<double> table_ns, exact_ns;
  for (int r = 0; r < kRepeats; ++r) {
    uint64_t table_sum = 0, exact_sum = 0;
    table_ns.push_back(TimeDraws(plan, plan.tables, &table_sum));
    exact_ns.push_back(TimeDraws(plan, plan.exact, &exact_sum));
    ok &= table_sum == exact_sum;
  }
  const double table_median =
      json.AddRepeated("zipf_draw_table", "ns/draw", table_ns);
  const double exact_median =
      json.AddRepeated("zipf_draw_exact", "ns/draw", exact_ns);
  const double speedup = exact_median / table_median;
  json.AddField("zipf_table_speedup", speedup);
  std::printf("  table %6.1f ns/draw  exact %6.1f ns/draw  (%.2fx), ranks "
              "%s\n",
              table_median, exact_median, speedup,
              same_ranks ? "identical" : "DIFFER");

  // --- BufferPool accesses ---------------------------------------
  AccessGenerator generator;
  Rng rng(kSeed);
  std::vector<PageAccess> accesses;
  std::vector<PageId> pages;
  for (const QueryTemplate* tmpl : executions) {
    // One execution at a time, as the engine does: Generate reserves
    // exactly what it appends.
    accesses.clear();
    generator.Generate(*tmpl, rng, &accesses);
    for (const PageAccess& a : accesses) pages.push_back(a.page);
  }
  std::vector<double> pool_ns;
  uint64_t first_hits = 0;
  for (int r = 0; r < kRepeats; ++r) {
    uint64_t hits = 0;
    pool_ns.push_back(TimeReplay(pages, &hits));
    if (r == 0) first_hits = hits;
    ok &= hits == first_hits;
  }
  const double hit_ratio =
      static_cast<double>(first_hits) / static_cast<double>(pages.size());
  const double pool_median =
      json.AddRepeated("lru_access_8192", "ns/access", pool_ns);
  json.AddField("lru_accesses", static_cast<double>(pages.size()));
  json.AddField("lru_hit_ratio", hit_ratio);
  std::printf("\n%zu accesses replayed into a %llu-page pool, %d repeats:\n"
              "  %6.1f ns/access (median), hit ratio %.4f\n",
              pages.size(), static_cast<unsigned long long>(kPoolPages),
              kRepeats, pool_median, hit_ratio);

  json.WriteTo(json_path);
  if (!ok) {
    std::printf("shape VIOLATED: a pass disagreed with another\n");
    return 1;
  }
  if (smoke) return 0;
  const bool holds = speedup > 1;
  std::printf("\ntable draws faster than exact ones: %s\n",
              holds ? "yes" : "NO");
  std::printf("shape %s\n", holds ? "HOLDS" : "VIOLATED");
  return holds ? 0 : 1;
}

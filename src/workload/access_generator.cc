#include "workload/access_generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fglb {

namespace {

// Draws the number of pages this execution touches: mean +/- 30%,
// at least one page.
uint64_t DrawCount(double mean, Rng& rng) {
  const double x = mean * rng.UniformDouble(0.7, 1.3);
  return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(x)));
}

}  // namespace

const AccessGenerator::Sampler& AccessGenerator::SamplerFor(uint64_t n,
                                                            double theta) {
  const auto key = std::make_pair(n, theta);
  auto it = samplers_.find(key);
  if (it == samplers_.end()) {
    const uint32_t* scramble = nullptr;
    if (n <= kMaxTabulatedRegion) {
      std::vector<uint32_t>& table = scrambles_[n];
      if (table.empty()) {
        table.resize(n);
        for (uint64_t r = 0; r < n; ++r) {
          table[r] = static_cast<uint32_t>(ScrambleToDomain(r, n));
        }
      }
      scramble = table.data();
    }
    it = samplers_
             .emplace(key, Sampler{ZipfTable(ZipfGenerator(n, theta)),
                                   scramble})
             .first;
  }
  return it->second;
}

void AccessGenerator::GeneratePointLookups(const AccessComponent& component,
                                           Rng& rng,
                                           std::vector<PageAccess>* out) {
  const uint64_t region = component.EffectiveRegionPages();
  assert(region > 0);
  const Sampler& sampler = SamplerFor(region, component.zipf_theta);
  const uint32_t* scramble = sampler.scramble;
  const uint64_t count = DrawCount(component.mean_pages, rng);
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t rank = sampler.zipf.Sample(rng);
    // Scramble so popular pages are spread over the region instead of
    // packed at its start (popularity, not position, is skewed).
    const uint64_t offset =
        component.region_offset +
        (scramble != nullptr ? scramble[rank] : ScrambleToDomain(rank, region));
    PageAccess access;
    access.page = MakePageId(component.table, offset);
    access.kind = AccessKind::kRandom;
    access.is_write = component.write_fraction > 0 &&
                      rng.Bernoulli(component.write_fraction);
    out->push_back(access);
  }
}

void AccessGenerator::GenerateSequentialScan(const AccessComponent& component,
                                             Rng& rng,
                                             std::vector<PageAccess>* out) {
  const uint64_t region = component.EffectiveRegionPages();
  assert(region > 0);
  uint64_t length = DrawCount(component.mean_pages, rng);
  length = std::min(length, region);
  // Extent-aligned start anywhere in the region; the run wraps within
  // the region like a circular scan of a clustered index range.
  uint64_t start = rng.NextUint64(region);
  start -= start % kExtentPages;
  for (uint64_t i = 0; i < length; ++i) {
    const uint64_t offset = component.region_offset + (start + i) % region;
    PageAccess access;
    access.page = MakePageId(component.table, offset);
    access.kind = AccessKind::kSequential;
    access.is_write = component.write_fraction > 0 &&
                      rng.Bernoulli(component.write_fraction);
    out->push_back(access);
  }
}

void AccessGenerator::Generate(const QueryTemplate& tmpl, Rng& rng,
                               std::vector<PageAccess>* out) {
  for (const auto& component : tmpl.components) {
    switch (component.kind) {
      case AccessComponent::Kind::kPointLookups:
        GeneratePointLookups(component, rng, out);
        break;
      case AccessComponent::Kind::kSequentialScan:
        GenerateSequentialScan(component, rng, out);
        break;
    }
  }
}

}  // namespace fglb

#ifndef FGLB_WORKLOAD_ACCESS_GENERATOR_H_
#define FGLB_WORKLOAD_ACCESS_GENERATOR_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "storage/page.h"
#include "workload/query_class.h"

namespace fglb {

// Expands a query template into the concrete page-reference string one
// execution of it produces. Zipf samplers are cached per
// (region size, theta) and built on first use, never at set-up: each
// is a ZipfTable, which decides a draw from per-rank thresholds and
// yields exactly the rank ZipfGenerator would. The rank -> page
// scramble is tabulated per region size on first use: entry r of a
// region's table is ScrambleToDomain(r, region), so a draw costs one
// lookup and yields exactly the page ScrambleToDomain would.
class AccessGenerator {
 public:
  // Regions larger than this many pages are scrambled per draw instead
  // of tabulated (a table costs 4 bytes per page of the region).
  static constexpr uint64_t kMaxTabulatedRegion = uint64_t{1} << 20;

  AccessGenerator() = default;
  AccessGenerator(const AccessGenerator&) = delete;
  AccessGenerator& operator=(const AccessGenerator&) = delete;

  // Appends this execution's page accesses to `out` (not cleared).
  void Generate(const QueryTemplate& tmpl, Rng& rng,
                std::vector<PageAccess>* out);

 private:
  // Everything a point-lookup component draws with: the Zipf sampler
  // and its region's scramble table (null above kMaxTabulatedRegion).
  // A table is filled once and never resized, so the pointer stays valid.
  struct Sampler {
    ZipfTable zipf;
    const uint32_t* scramble = nullptr;
  };

  const Sampler& SamplerFor(uint64_t n, double theta);

  void GeneratePointLookups(const AccessComponent& component, Rng& rng,
                            std::vector<PageAccess>* out);
  void GenerateSequentialScan(const AccessComponent& component, Rng& rng,
                              std::vector<PageAccess>* out);

  std::map<std::pair<uint64_t, double>, Sampler> samplers_;
  // Region size -> scramble table; shared by every theta over that size.
  std::unordered_map<uint64_t, std::vector<uint32_t>> scrambles_;
};

}  // namespace fglb

#endif  // FGLB_WORKLOAD_ACCESS_GENERATOR_H_

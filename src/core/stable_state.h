#ifndef FGLB_CORE_STABLE_STATE_H_
#define FGLB_CORE_STABLE_STATE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "engine/metrics.h"
#include "sim/simulator.h"
#include "workload/query_class.h"

namespace fglb {

// The per-query-class record the paper calls a "stable state
// signature": the average value of every monitored metric over the most
// recent measurement interval in which the class's application met its
// SLA continuously, on this server.
struct StableStateSignature {
  MetricVector averages{};
  SimTime recorded_at = 0;
  uint64_t intervals_observed = 0;
  bool operator==(const StableStateSignature&) const = default;
};

// One store per database engine (per server): signatures for every
// query class executing there. Updated whenever the owning
// application's interval was stable; consulted on SLA violations to
// compute current/stable metric ratios.
class StableStateStore {
 public:
  // Installs/overwrites the signature for `key` with this stable
  // interval's averages ("we update the last stable value seen").
  // Averages containing NaN/inf are rejected: the last good signature
  // survives a degraded statistics feed.
  void Update(ClassKey key, const MetricVector& averages, SimTime now);

  // nullptr if the class has never completed a stable interval here.
  const StableStateSignature* Find(ClassKey key) const;

  void Erase(ClassKey key) { signatures_.erase(key); }
  size_t size() const { return signatures_.size(); }
  std::vector<ClassKey> Keys() const;

  bool operator==(const StableStateStore&) const = default;

 private:
  std::map<ClassKey, StableStateSignature> signatures_;
};

}  // namespace fglb

#endif  // FGLB_CORE_STABLE_STATE_H_

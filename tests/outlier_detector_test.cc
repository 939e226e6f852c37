#include "core/outlier_detector.h"

#include <gtest/gtest.h>

namespace fglb {
namespace {

constexpr AppId kApp = 1;

MetricVector Uniform(double value) {
  MetricVector v{};
  v.fill(value);
  return v;
}

// Builds a population of `n` classes whose every metric is `baseline`
// in both stable and current state.
struct Population {
  std::map<ClassKey, MetricVector> current;
  StableStateStore stable;

  explicit Population(int n, double baseline = 100.0) {
    for (int i = 1; i <= n; ++i) {
      const ClassKey key = MakeClassKey(kApp, i);
      current[key] = Uniform(baseline);
      stable.Update(key, Uniform(baseline), 0.0);
    }
  }

  void Bump(QueryClassId cls, Metric metric, double value) {
    At(current[MakeClassKey(kApp, cls)], metric) = value;
  }
};

TEST(OutlierDetectorTest, NoChangeNoOutliers) {
  Population pop(10);
  OutlierDetector detector;
  const OutlierReport report = detector.Detect(pop.current, pop.stable);
  EXPECT_FALSE(report.HasOutliers());
  EXPECT_TRUE(report.new_classes.empty());
}

TEST(OutlierDetectorTest, SingleDeviantClassFlagged) {
  Population pop(10);
  pop.Bump(3, Metric::kBufferMisses, 1000.0);  // 10x its stable value
  OutlierDetector detector;
  const OutlierReport report = detector.Detect(pop.current, pop.stable);
  ASSERT_TRUE(report.HasOutliers());
  const auto contexts = report.OutlierContexts();
  EXPECT_TRUE(contexts.contains(MakeClassKey(kApp, 3)));
  EXPECT_EQ(contexts.size(), 1u);
  // It is specifically a memory-problem context.
  EXPECT_TRUE(
      report.MemoryProblemContexts().contains(MakeClassKey(kApp, 3)));
}

TEST(OutlierDetectorTest, ExtremeVsMildDegrees) {
  Population pop(12);
  pop.Bump(2, Metric::kPageAccesses, 100000.0);
  OutlierDetector detector;
  const OutlierReport report = detector.Detect(pop.current, pop.stable);
  bool found_extreme = false;
  for (const auto& o : report.outliers) {
    if (o.key == MakeClassKey(kApp, 2) &&
        o.metric == Metric::kPageAccesses) {
      found_extreme = o.degree == OutlierDegree::kExtreme;
    }
  }
  EXPECT_TRUE(found_extreme);
}

TEST(OutlierDetectorTest, LatencyOutlierIsNotMemoryProblem) {
  Population pop(10);
  pop.Bump(5, Metric::kLatency, 5000.0);
  OutlierDetector detector;
  const OutlierReport report = detector.Detect(pop.current, pop.stable);
  EXPECT_TRUE(report.OutlierContexts().contains(MakeClassKey(kApp, 5)));
  EXPECT_TRUE(report.MemoryProblemContexts().empty());
}

TEST(OutlierDetectorTest, NewClassesReportedSeparately) {
  Population pop(8);
  const ClassKey fresh = MakeClassKey(kApp, 99);
  pop.current[fresh] = Uniform(500.0);
  OutlierDetector detector;
  const OutlierReport report = detector.Detect(pop.current, pop.stable);
  ASSERT_EQ(report.new_classes.size(), 1u);
  EXPECT_EQ(report.new_classes[0], fresh);
  // The new class never enters the fencing population.
  EXPECT_FALSE(report.OutlierContexts().contains(fresh));
}

TEST(OutlierDetectorTest, WeightingSurfacesHeavyweightModerateDeviation) {
  // Class 1 is 50x heavier than the others on buffer misses; it
  // deviates only 2x, the others not at all. With weights the paper's
  // "moderately deviating heavyweight" is an outlier; without weights
  // it is also one (ratio 2 vs 1)... so to isolate the weight effect,
  // give every OTHER class small random jitter making a plain 2x ratio
  // unremarkable.
  std::map<ClassKey, MetricVector> current;
  StableStateStore stable;
  for (int i = 1; i <= 12; ++i) {
    const ClassKey key = MakeClassKey(kApp, i);
    MetricVector base = Uniform(10.0);
    stable.Update(key, base, 0.0);
    MetricVector cur = base;
    // Jitter every class's current misses between 1x and 3x.
    At(cur, Metric::kBufferMisses) = 10.0 * (1.0 + 0.2 * i);
    current[key] = cur;
  }
  // The heavyweight: stable 500, now 1500 (3x, same max ratio as the
  // jittered tail) but 50x the volume.
  const ClassKey heavy = MakeClassKey(kApp, 20);
  MetricVector heavy_stable = Uniform(10.0);
  At(heavy_stable, Metric::kBufferMisses) = 500.0;
  stable.Update(heavy, heavy_stable, 0.0);
  MetricVector heavy_current = heavy_stable;
  At(heavy_current, Metric::kBufferMisses) = 1500.0;
  current[heavy] = heavy_current;

  OutlierConfig weighted;
  weighted.use_weights = true;
  OutlierConfig unweighted;
  unweighted.use_weights = false;
  const OutlierReport with =
      OutlierDetector(weighted).Detect(current, stable);
  const OutlierReport without =
      OutlierDetector(unweighted).Detect(current, stable);
  EXPECT_TRUE(with.MemoryProblemContexts().contains(heavy));
  EXPECT_FALSE(without.MemoryProblemContexts().contains(heavy));
}

TEST(OutlierDetectorTest, TooFewClassesNoFencing) {
  Population pop(3);
  pop.Bump(1, Metric::kBufferMisses, 100000.0);
  static_assert(OutlierDetector::kMinClasses == 4);
  OutlierDetector detector;
  const OutlierReport report = detector.Detect(pop.current, pop.stable);
  EXPECT_FALSE(report.HasOutliers());
}

TEST(OutlierDetectorTest, ZeroStableValueCapsRatio) {
  Population pop(10, 100.0);
  const ClassKey key = MakeClassKey(kApp, 4);
  MetricVector zero_stable = Uniform(100.0);
  At(zero_stable, Metric::kReadAheads) = 0.0;
  pop.stable.Update(key, zero_stable, 0.0);
  pop.Bump(4, Metric::kReadAheads, 50.0);
  OutlierDetector detector;
  const OutlierReport report = detector.Detect(pop.current, pop.stable);
  ASSERT_TRUE(report.ratios.at(Metric::kReadAheads).contains(key));
  EXPECT_DOUBLE_EQ(report.ratios.at(Metric::kReadAheads).at(key),
                   OutlierDetector::kRatioCap);
  EXPECT_TRUE(report.MemoryProblemContexts().contains(key));
}

TEST(OutlierDetectorTest, RatiosMatchCurrentOverStable) {
  Population pop(6);
  pop.Bump(2, Metric::kLatency, 250.0);
  OutlierDetector detector;
  const OutlierReport report = detector.Detect(pop.current, pop.stable);
  EXPECT_DOUBLE_EQ(
      report.ratios.at(Metric::kLatency).at(MakeClassKey(kApp, 2)), 2.5);
  EXPECT_DOUBLE_EQ(
      report.ratios.at(Metric::kLatency).at(MakeClassKey(kApp, 1)), 1.0);
}

TEST(OutlierDetectorTest, LowSideOutlierDetected) {
  Population pop(10);
  // Throughput collapse: classic low-side outlier.
  pop.Bump(7, Metric::kThroughput, 1.0);
  OutlierDetector detector;
  const OutlierReport report = detector.Detect(pop.current, pop.stable);
  bool found_low = false;
  for (const auto& o : report.outliers) {
    if (o.key == MakeClassKey(kApp, 7) && !o.high_side) found_low = true;
  }
  EXPECT_TRUE(found_low);
}

TEST(OutlierDetectorTest, FenceMultiplierAblation) {
  // A deviation that is mild at 1.5x IQR disappears with huge fences.
  Population pop(12);
  for (int i = 1; i <= 12; ++i) {
    pop.Bump(i, Metric::kBufferMisses, 100.0 + i);  // small spread
  }
  pop.Bump(6, Metric::kBufferMisses, 160.0);
  OutlierConfig tight;
  OutlierConfig loose;
  loose.mild_fence = 50.0;
  loose.extreme_fence = 100.0;
  const OutlierReport with_tight =
      OutlierDetector(tight).Detect(pop.current, pop.stable);
  const OutlierReport with_loose =
      OutlierDetector(loose).Detect(pop.current, pop.stable);
  EXPECT_TRUE(
      with_tight.OutlierContexts().contains(MakeClassKey(kApp, 6)));
  EXPECT_FALSE(
      with_loose.OutlierContexts().contains(MakeClassKey(kApp, 6)));
}

}  // namespace
}  // namespace fglb

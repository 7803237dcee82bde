#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "egi/types.h"
#include "reference_paa.h"
#include "ts/prefix_stats.h"
#include "ts/stats.h"
#include "util/rng.h"

namespace egi::ts {
namespace {

using reference::ZNormalize;
using reference::ZNormalized;

// ------------------------------------------------------------------ stats

TEST(StatsTest, MeanOfKnownValues) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
}

TEST(StatsTest, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{}), 0.0);
}

TEST(StatsTest, SampleVarianceKnown) {
  std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Population variance of this classic example is 4; sample variance 32/7.
  EXPECT_NEAR(SampleVariance(v), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(PopulationStdDev(v), 2.0, 1e-12);
}

TEST(StatsTest, VarianceOfSingletonIsZero) {
  std::vector<double> v{3.0};
  EXPECT_DOUBLE_EQ(SampleVariance(v), 0.0);
  EXPECT_DOUBLE_EQ(SampleStdDev(v), 0.0);
}

TEST(StatsTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{5.0}), 5.0);
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{}), 0.0);
}

TEST(StatsTest, MedianDoesNotModifyInput) {
  std::vector<double> v{3.0, 1.0, 2.0};
  Median(v);
  EXPECT_EQ(v, (std::vector<double>{3.0, 1.0, 2.0}));
}

TEST(StatsTest, MedianInPlaceMatchesMedian) {
  // Sizes 1..9 (odd and even), values from a small set so most draws tie,
  // and from a continuous range. The in-place median must equal the sorted
  // order statistics, and ts::Median, bit for bit, and keep the values.
  Rng rng(23);
  for (const bool ties : {true, false}) {
    for (size_t size = 1; size <= 9; ++size) {
      for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> v(size);
        for (double& x : v) {
          x = ties ? static_cast<double>(rng.UniformInt(0, 3)) * 0.25
                   : rng.UniformDouble(-2.0, 2.0);
        }
        std::vector<double> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        const size_t mid = size / 2;
        const double want = size % 2 == 1
                                ? sorted[mid]
                                : 0.5 * (sorted[mid - 1] + sorted[mid]);
        const double copied = Median(v);
        std::vector<double> scratch = v;
        const double in_place = MedianInPlace(scratch);
        EXPECT_EQ(std::bit_cast<uint64_t>(in_place),
                  std::bit_cast<uint64_t>(want))
            << "size " << size << " ties " << ties;
        EXPECT_EQ(std::bit_cast<uint64_t>(in_place),
                  std::bit_cast<uint64_t>(copied));
        std::sort(scratch.begin(), scratch.end());
        EXPECT_EQ(scratch, sorted) << "reordered, not rewritten";
      }
    }
  }
  std::vector<double> empty;
  EXPECT_EQ(MedianInPlace(empty), 0.0);
}

TEST(StatsTest, FindMinMax) {
  auto mm = FindMinMax(std::vector<double>{3.0, -1.0, 7.0, 0.0});
  EXPECT_DOUBLE_EQ(mm.min, -1.0);
  EXPECT_DOUBLE_EQ(mm.max, 7.0);
}

TEST(StatsTest, ZNormalizeProducesZeroMeanUnitStd) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  auto z = ZNormalized(v);
  EXPECT_NEAR(Mean(z), 0.0, 1e-12);
  EXPECT_NEAR(SampleStdDev(z), 1.0, 1e-12);
}

TEST(StatsTest, ZNormalizeFlatWindowGoesToZeros) {
  std::vector<double> v(10, 3.25);
  auto z = ZNormalized(v);
  for (double x : z) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(StatsTest, ZNormalizeNearFlatBelowThresholdGoesToZeros) {
  std::vector<double> v{1.0, 1.0001, 0.9999, 1.0};
  auto z = ZNormalized(v);
  for (double x : z) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(StatsTest, ZNormalizeInPlaceAliasing) {
  std::vector<double> v{1.0, 2.0, 3.0};
  ZNormalize(v, v);
  EXPECT_NEAR(Mean(v), 0.0, 1e-12);
}

// ----------------------------------------------------------- prefix stats

TEST(PrefixStatsTest, RangeSumMatchesDirect) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  PrefixStats ps(v);
  EXPECT_DOUBLE_EQ(ps.RangeSum(0, 5), 15.0);
  EXPECT_DOUBLE_EQ(ps.RangeSum(1, 3), 9.0);
  EXPECT_DOUBLE_EQ(ps.RangeSum(4, 1), 5.0);
  EXPECT_DOUBLE_EQ(ps.RangeSum(2, 0), 0.0);
}

TEST(PrefixStatsTest, RangeMeanAndStd) {
  std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  PrefixStats ps(v);
  EXPECT_NEAR(ps.RangeMean(0, 8), 5.0, 1e-12);
  EXPECT_NEAR(ps.RangeStdDev(0, 8), std::sqrt(32.0 / 7.0), 1e-9);
}

TEST(PrefixStatsTest, RangeStdOfLengthOneIsZero) {
  std::vector<double> v{1.0, 5.0};
  PrefixStats ps(v);
  EXPECT_DOUBLE_EQ(ps.RangeStdDev(1, 1), 0.0);
}

TEST(PrefixStatsTest, FlatRangeStdClampsToZero) {
  std::vector<double> v(100, 1e6);  // cancellation-prone
  PrefixStats ps(v);
  EXPECT_DOUBLE_EQ(ps.RangeStdDev(10, 50), 0.0);
}

TEST(PrefixStatsTest, FractionalRangeSumWholeSamples) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  PrefixStats ps(v);
  EXPECT_NEAR(ps.FractionalRangeSum(0.0, 4.0), 10.0, 1e-12);
  EXPECT_NEAR(ps.FractionalRangeSum(1.0, 3.0), 5.0, 1e-12);
}

TEST(PrefixStatsTest, FractionalRangeSumPartialCells) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  PrefixStats ps(v);
  // [0.5, 1.5): half of sample 0 plus half of sample 1.
  EXPECT_NEAR(ps.FractionalRangeSum(0.5, 1.5), 0.5 + 1.0, 1e-12);
  // Entirely inside one sample.
  EXPECT_NEAR(ps.FractionalRangeSum(2.25, 2.75), 1.5, 1e-12);
  // Empty interval.
  EXPECT_NEAR(ps.FractionalRangeSum(1.0, 1.0), 0.0, 1e-12);
}

TEST(PrefixStatsTest, FractionalRangeSumEmptyIntervalEverywhere) {
  std::vector<double> v{2.0, -3.0, 5.0, 7.0};
  PrefixStats ps(v);
  // from == to is the empty step-function integral wherever it lands: on a
  // sample edge, inside a sample, at the series start, and at the very end.
  EXPECT_DOUBLE_EQ(ps.FractionalRangeSum(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ps.FractionalRangeSum(2.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(ps.FractionalRangeSum(2.6, 2.6), 0.0);
  EXPECT_DOUBLE_EQ(ps.FractionalRangeSum(4.0, 4.0), 0.0);
}

TEST(PrefixStatsTest, FractionalRangeSumFullSeriesInterval) {
  std::vector<double> v{1.5, -2.0, 4.0, 0.5, 3.0};
  PrefixStats ps(v);
  // [0, size) covers every sample exactly once.
  EXPECT_NEAR(ps.FractionalRangeSum(0.0, 5.0), 7.0, 1e-12);
}

TEST(PrefixStatsTest, FractionalRangeSumBoundariesOnSampleEdges) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  PrefixStats ps(v);
  // Exact integer boundaries must behave like whole-sample RangeSum.
  for (size_t from = 0; from < v.size(); ++from) {
    for (size_t to = from; to <= v.size(); ++to) {
      EXPECT_NEAR(
          ps.FractionalRangeSum(static_cast<double>(from),
                                static_cast<double>(to)),
          ps.RangeSum(from, to - from), 1e-12)
          << "[" << from << ", " << to << ")";
    }
  }
}

TEST(PrefixStatsTest, FractionalRangeSumOneEdgeAlignedOneNot) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  PrefixStats ps(v);
  // Aligned start, fractional end: samples 1 + half of sample 2.
  EXPECT_NEAR(ps.FractionalRangeSum(1.0, 2.5), 2.0 + 1.5, 1e-12);
  // Fractional start, aligned end: half of sample 1 + sample 2.
  EXPECT_NEAR(ps.FractionalRangeSum(1.5, 3.0), 1.0 + 3.0, 1e-12);
  // One full sample picked out exactly.
  EXPECT_NEAR(ps.FractionalRangeSum(2.0, 3.0), 3.0, 1e-12);
}

TEST(PrefixStatsTest, AssignRebuildsBitwiseWhatTheConstructorBuilds) {
  // The streaming scorer reuses one PrefixStats across windows; Assign over
  // a shorter, then a longer series must leave nothing of the old state.
  Rng rng(3);
  std::vector<double> longer(90), shorter(17);
  for (auto& x : longer) x = rng.Gaussian(1e3, 2.0);
  for (auto& x : shorter) x = rng.Gaussian(-4.0, 0.5);
  PrefixStats reused(longer);
  for (const auto* series : {&shorter, &longer}) {
    reused.Assign(*series);
    const PrefixStats fresh(*series);
    ASSERT_EQ(reused.size(), fresh.size());
    EXPECT_EQ(std::bit_cast<uint64_t>(reused.center()),
              std::bit_cast<uint64_t>(fresh.center()));
    for (size_t i = 0; i <= fresh.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(reused.prefix_sums()[i]),
                std::bit_cast<uint64_t>(fresh.prefix_sums()[i]));
      EXPECT_EQ(std::bit_cast<uint64_t>(reused.prefix_sumsq()[i]),
                std::bit_cast<uint64_t>(fresh.prefix_sumsq()[i]));
    }
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(reused.centered_data()[i]),
                std::bit_cast<uint64_t>(fresh.centered_data()[i]));
    }
  }
}

// Property sweep: prefix-stat range queries equal direct computation for
// random series and many (start, length) pairs.
class PrefixStatsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrefixStatsPropertyTest, MatchesDirectComputation) {
  Rng rng(GetParam());
  const size_t n = 200 + static_cast<size_t>(rng.UniformInt(0, 300));
  std::vector<double> v(n);
  for (auto& x : v) x = rng.Gaussian(5.0, 3.0);
  PrefixStats ps(v);

  for (int trial = 0; trial < 50; ++trial) {
    const auto start = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 2));
    const auto len = static_cast<size_t>(
        rng.UniformInt(2, static_cast<int64_t>(n - start)));
    std::span<const double> range(v.data() + start, len);
    EXPECT_NEAR(ps.RangeMean(start, len), Mean(range), 1e-9);
    EXPECT_NEAR(ps.RangeStdDev(start, len), SampleStdDev(range), 1e-7);
  }
}

TEST_P(PrefixStatsPropertyTest, FractionalSumMatchesFineGrid) {
  Rng rng(GetParam() ^ 0xABCDEF);
  const size_t n = 50;
  std::vector<double> v(n);
  for (auto& x : v) x = rng.Gaussian();
  PrefixStats ps(v);

  for (int trial = 0; trial < 50; ++trial) {
    double from = rng.UniformDouble(0.0, static_cast<double>(n) - 0.01);
    double to = rng.UniformDouble(from, static_cast<double>(n));
    // Direct evaluation of the step-function integral.
    double expected = 0.0;
    for (size_t k = 0; k < n; ++k) {
      const double lo = std::max(from, static_cast<double>(k));
      const double hi = std::min(to, static_cast<double>(k) + 1.0);
      if (hi > lo) expected += v[k] * (hi - lo);
    }
    EXPECT_NEAR(ps.FractionalRangeSum(from, to), expected, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixStatsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ----------------------------------------------------------------- window

TEST(WindowTest, OverlapsAndLength) {
  Range a{0, 10}, b{5, 10}, c{10, 5};
  EXPECT_TRUE(Overlaps(a, b));
  EXPECT_FALSE(Overlaps(a, c));  // half-open ranges touch but do not overlap
  EXPECT_EQ(OverlapLength(a, b), 5u);
  EXPECT_EQ(OverlapLength(a, c), 0u);
}

}  // namespace
}  // namespace egi::ts

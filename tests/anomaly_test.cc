#include <gtest/gtest.h>

#include <vector>

#include "core/anomaly.h"
#include "egi/types.h"

namespace egi::core {
namespace {

TEST(FindDensityAnomaliesTest, SingleMinimumFound) {
  std::vector<double> density{5, 5, 5, 1, 5, 5, 5, 5};
  auto out = FindDensityAnomalies(density, /*window_length=*/2, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].position, 3u);
  EXPECT_EQ(out[0].length, 2u);
  EXPECT_DOUBLE_EQ(out[0].severity, -1.0);
  EXPECT_EQ(out[0].run_length, 1u);
}

TEST(FindDensityAnomaliesTest, MinimumRunReportsRunStart) {
  std::vector<double> density{5, 5, 0, 0, 0, 5, 5, 5};
  auto out = FindDensityAnomalies(density, 2, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].position, 2u);
  EXPECT_EQ(out[0].run_length, 3u);
}

TEST(FindDensityAnomaliesTest, CandidatesDoNotOverlap) {
  std::vector<double> density{9, 9, 0, 9, 9, 9, 9, 9, 9, 1,
                              9, 9, 9, 9, 9, 9, 9, 2, 9, 9};
  const size_t n = 3;
  auto out = FindDensityAnomalies(density, n, 3);
  ASSERT_EQ(out.size(), 3u);
  for (size_t i = 0; i < out.size(); ++i) {
    for (size_t j = i + 1; j < out.size(); ++j) {
      EXPECT_FALSE(Overlaps(out[i].window(), out[j].window()))
          << i << " vs " << j;
    }
  }
  // Ranked ascending by density value (0, then 1, then 2).
  EXPECT_EQ(out[0].position, 2u);
  EXPECT_EQ(out[1].position, 9u);
  EXPECT_EQ(out[2].position, 17u);
  EXPECT_GE(out[0].severity, out[1].severity);
  EXPECT_GE(out[1].severity, out[2].severity);
}

TEST(FindDensityAnomaliesTest, MaskingSuppressesNeighbours) {
  // Second-lowest value right next to the minimum must be skipped.
  std::vector<double> density{9, 9, 0, 1, 9, 9, 9, 9, 9, 2, 9, 9};
  auto out = FindDensityAnomalies(density, 3, 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].position, 2u);
  // Position 3 (value 1) is masked by the first candidate; the next
  // candidate is the value-2 point at position 9.
  EXPECT_EQ(out[1].position, 9u);
}

TEST(FindDensityAnomaliesTest, EdgeDipsOutsideValidRegionIgnored) {
  // Zero-density points in the first/last (window-1) samples are coverage
  // artifacts; the detector must rank only the valid region [n-1, len-n].
  std::vector<double> density{0, 0, 9, 9, 5, 9, 9, 9, 0, 0};
  auto out = FindDensityAnomalies(density, 3, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].position, 4u);  // the value-5 dip, not the edge zeros
  EXPECT_DOUBLE_EQ(out[0].severity, -5.0);
}

TEST(FindDensityAnomaliesTest, MinimumAtValidRegionBoundary) {
  std::vector<double> density{9, 9, 9, 9, 0, 9, 9, 9};
  auto out = FindDensityAnomalies(density, 4, 1);
  ASSERT_EQ(out.size(), 1u);
  // t = 4 == len - n: the last fully-covered point, also the last valid
  // window start.
  EXPECT_EQ(out[0].position, 4u);
}

TEST(FindDensityAnomaliesTest, MaxCandidatesRespected) {
  std::vector<double> density(100, 5.0);
  density[10] = 0;
  density[40] = 1;
  density[70] = 2;
  auto out = FindDensityAnomalies(density, 5, 2);
  EXPECT_EQ(out.size(), 2u);
}

TEST(FindDensityAnomaliesTest, FewerCandidatesWhenEverythingMasked) {
  std::vector<double> density{1, 1, 1, 1};
  auto out = FindDensityAnomalies(density, 4, 5);
  // One window fits; after masking nothing remains.
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].position, 0u);
}

TEST(FindDensityAnomaliesTest, AllEqualCurveGivesSingleValidRun) {
  std::vector<double> density(20, 3.0);
  auto out = FindDensityAnomalies(density, 4, 3);
  ASSERT_GE(out.size(), 1u);
  // The run spans the whole valid region [3, 16].
  EXPECT_EQ(out[0].position, 3u);
  EXPECT_EQ(out[0].run_length, 14u);
}

TEST(FindDensityAnomaliesTest, WindowEqualsSeriesLength) {
  std::vector<double> density{2, 1, 3};
  auto out = FindDensityAnomalies(density, 3, 2);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].position, 0u);  // only valid start
}

TEST(FindDensityAnomaliesTest, SeverityIsNegatedDensity) {
  std::vector<double> density{4, 2, 4, 4};
  auto out = FindDensityAnomalies(density, 2, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].severity, -2.0);
}

}  // namespace
}  // namespace egi::core

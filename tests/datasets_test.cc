#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "datasets/physio.h"
#include "datasets/planted.h"
#include "datasets/power.h"
#include "datasets/random_walk.h"
#include "datasets/shapes.h"
#include "datasets/ucr_like.h"
#include "ts/stats.h"
#include "util/rng.h"

namespace egi::datasets {
namespace {

double L2(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

// ------------------------------------------------------------------ shapes

TEST(ShapesTest, GaussianBumpPeaksAtCenter) {
  std::vector<double> v(21, 0.0);
  AddGaussianBump(v, 10.0, 2.0, 1.0);
  EXPECT_NEAR(v[10], 1.0, 1e-9);
  EXPECT_GT(v[10], v[8]);
  EXPECT_GT(v[8], v[5]);
  EXPECT_NEAR(v[0], 0.0, 1e-6);  // beyond 4 widths
}

TEST(ShapesTest, SineHasRequestedPeriod) {
  std::vector<double> v(100, 0.0);
  AddSine(v, 0, 100, 20.0, 0.0, 1.0);
  EXPECT_NEAR(v[0], 0.0, 1e-12);
  EXPECT_NEAR(v[5], 1.0, 1e-12);   // quarter period
  EXPECT_NEAR(v[10], 0.0, 1e-12);  // half period
}

TEST(ShapesTest, RampEndpoints) {
  std::vector<double> v(10, 0.0);
  AddRamp(v, 2, 8, 1.0, 4.0);
  EXPECT_DOUBLE_EQ(v[2], 1.0);
  EXPECT_DOUBLE_EQ(v[7], 4.0);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[8], 0.0);
}

TEST(ShapesTest, LevelAddsConstant) {
  std::vector<double> v(6, 1.0);
  AddLevel(v, 2, 4, 3.0);
  EXPECT_DOUBLE_EQ(v[1], 1.0);
  EXPECT_DOUBLE_EQ(v[2], 4.0);
  EXPECT_DOUBLE_EQ(v[3], 4.0);
  EXPECT_DOUBLE_EQ(v[4], 1.0);
}

TEST(ShapesTest, SmoothStepApproachesAmplitude) {
  std::vector<double> v(100, 0.0);
  AddSmoothStep(v, 50.0, 3.0, 2.0);
  EXPECT_NEAR(v[0], 0.0, 1e-6);
  EXPECT_NEAR(v[99], 2.0, 1e-6);
  EXPECT_NEAR(v[50], 1.0, 1e-9);  // centre of the logistic
}

TEST(ShapesTest, DampedOscillationDecays) {
  std::vector<double> v(200, 0.0);
  AddDampedOscillation(v, 0, 10.0, 15.0, 1.0);
  double early = 0.0, late = 0.0;
  for (size_t i = 0; i < 20; ++i) early = std::max(early, std::abs(v[i]));
  for (size_t i = 100; i < 120; ++i) late = std::max(late, std::abs(v[i]));
  EXPECT_GT(early, 0.5);
  EXPECT_LT(late, 0.01);
}

TEST(ShapesTest, NoiseHasRequestedScale) {
  Rng rng(8);
  std::vector<double> v(20000, 0.0);
  AddGaussianNoise(v, rng, 0.5);
  EXPECT_NEAR(ts::SampleStdDev(v), 0.5, 0.02);
  EXPECT_NEAR(ts::Mean(v), 0.0, 0.02);
}

// ---------------------------------------------------------------- UCR-like

class UcrFamilyTest : public ::testing::TestWithParam<data::Family> {};

TEST_P(UcrFamilyTest, InstanceLengthsMatchSpec) {
  const auto spec = data::GetFamilyInfo(GetParam());
  Rng rng(1);
  EXPECT_EQ(MakeInstance(GetParam(), false, rng).size(),
            spec.instance_length);
  EXPECT_EQ(MakeInstance(GetParam(), true, rng).size(), spec.instance_length);
}

TEST_P(UcrFamilyTest, DeterministicGivenSeed) {
  Rng a(42), b(42);
  EXPECT_EQ(MakeInstance(GetParam(), false, a),
            MakeInstance(GetParam(), false, b));
}

TEST_P(UcrFamilyTest, InstancesVaryAcrossDraws) {
  Rng rng(7);
  const auto x = MakeInstance(GetParam(), false, rng);
  const auto y = MakeInstance(GetParam(), false, rng);
  EXPECT_GT(L2(x, y), 0.0);
}

TEST_P(UcrFamilyTest, AnomalousClassIsStructurallyDifferent) {
  // The mean anomalous instance must differ from the mean normal instance
  // far more than normal instances differ among themselves.
  Rng rng(11);
  const size_t len = data::GetFamilyInfo(GetParam()).instance_length;
  const int reps = 10;
  std::vector<double> mean_normal(len, 0.0), mean_anom(len, 0.0);
  for (int r = 0; r < reps; ++r) {
    const auto n = MakeInstance(GetParam(), false, rng);
    const auto a = MakeInstance(GetParam(), true, rng);
    for (size_t i = 0; i < len; ++i) {
      mean_normal[i] += n[i] / reps;
      mean_anom[i] += a[i] / reps;
    }
  }
  const auto probe = MakeInstance(GetParam(), false, rng);
  const double within = L2(probe, mean_normal);
  const double between = L2(mean_anom, mean_normal);
  EXPECT_GT(between, 1.5 * within)
      << "anomalous class not separable for "
      << data::GetFamilyInfo(GetParam()).name;
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, UcrFamilyTest, ::testing::ValuesIn(data::kAllFamilies),
    [](const ::testing::TestParamInfo<data::Family>& pi) {
      return std::string(data::GetFamilyInfo(pi.param).name);
    });

TEST(UcrSpecTest, Table3Properties) {
  EXPECT_EQ(data::GetFamilyInfo(data::Family::kTwoLeadEcg).instance_length,
            82u);
  EXPECT_EQ(data::GetFamilyInfo(data::Family::kEcgFiveDays).instance_length,
            132u);
  EXPECT_EQ(data::GetFamilyInfo(data::Family::kGunPoint).instance_length, 150u);
  EXPECT_EQ(data::GetFamilyInfo(data::Family::kWafer).instance_length, 150u);
  EXPECT_EQ(data::GetFamilyInfo(data::Family::kTrace).instance_length, 275u);
  EXPECT_EQ(data::GetFamilyInfo(data::Family::kStarLightCurve).instance_length,
            1024u);
}

// ----------------------------------------------------------------- planted

TEST(PlantedSeriesTest, LengthAndAnomalyWindow) {
  Rng rng(3);
  const auto s = MakePlantedSeries(data::Family::kGunPoint, rng);
  const size_t L = 150;
  EXPECT_EQ(s.values.size(), 21 * L);
  EXPECT_EQ(s.anomaly.length, L);
  const double frac = static_cast<double>(s.anomaly.start) /
                      static_cast<double>(s.values.size());
  EXPECT_GE(frac, 0.4);
  EXPECT_LE(frac, 0.8);
}

TEST(PlantedSeriesTest, AnomalyPositionVariesAcrossSeeds) {
  std::vector<size_t> starts;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed);
    starts.push_back(
        MakePlantedSeries(data::Family::kWafer, rng).anomaly.start);
  }
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  EXPECT_GT(starts.size(), 2u);
}

TEST(PlantedSeriesTest, AnomalyContentMatchesAnAnomalousInstance) {
  // The spliced window must carry anomalous-class content: its distance to
  // the mean normal instance must be large (arbitrary-position planting
  // still inserts one whole anomalous instance).
  Rng rng(9);
  const auto s = MakePlantedSeries(data::Family::kTrace, rng);
  std::vector<double> planted(
      s.values.begin() + static_cast<ptrdiff_t>(s.anomaly.start),
      s.values.begin() + static_cast<ptrdiff_t>(s.anomaly.end()));

  Rng rng2(123);
  const size_t len = 275;
  std::vector<double> mean_normal(len, 0.0);
  for (int r = 0; r < 10; ++r) {
    const auto inst = MakeInstance(data::Family::kTrace, false, rng2);
    for (size_t i = 0; i < len; ++i) mean_normal[i] += inst[i] / 10.0;
  }
  const auto probe = MakeInstance(data::Family::kTrace, false, rng2);
  EXPECT_GT(L2(planted, mean_normal), 1.5 * L2(probe, mean_normal));
}

TEST(MultiPlantedSeriesTest, CountsAndNonAdjacency) {
  Rng rng(5);
  const auto s =
      MakeMultiPlantedSeries(data::Family::kStarLightCurve, rng, 42, 2);
  EXPECT_EQ(s.values.size(), 43008u);  // the paper's Section 7.5 length
  ASSERT_EQ(s.anomalies.size(), 2u);
  const size_t gap = s.anomalies[1].start - s.anomalies[0].start;
  EXPECT_GE(gap, 2 * 1024u);  // non-adjacent slots
}

// ------------------------------------------------------------------- power

TEST(PowerTest, FridgeSeriesHasRequestedLengthAndAnomalies) {
  Rng rng(2);
  const auto s = MakeFridgeFreezerSeries(30000, rng);
  // Whole-cycle trimming: at most one cycle shorter than requested.
  EXPECT_LE(s.values.size(), 30000u);
  EXPECT_GE(s.values.size(), 30000u - 2 * data::kFridgeCycleLength);
  ASSERT_EQ(s.anomalies.size(), 2u);
  EXPECT_LT(s.anomalies[0].start, s.anomalies[1].start);
  for (double v : s.values) EXPECT_GE(v, 0.0);
}

TEST(PowerTest, FridgeWithoutAnomalies) {
  Rng rng(2);
  const auto s = MakeFridgeFreezerSeries(20000, rng, false);
  EXPECT_TRUE(s.anomalies.empty());
}

TEST(PowerTest, FridgeHasDutyCycleStructure) {
  Rng rng(4);
  const auto s = MakeFridgeFreezerSeries(20000, rng, false);
  // Power alternates between ~85W (ON) and ~1.5W (OFF): both populations
  // must be present in quantity.
  size_t high = 0, low = 0;
  for (double v : s.values) {
    if (v > 50.0) ++high;
    if (v < 10.0) ++low;
  }
  EXPECT_GT(high, s.values.size() / 5);
  EXPECT_GT(low, s.values.size() / 3);
}

TEST(PowerTest, DishwasherAnomalousCycleIsShorter) {
  Rng rng(6);
  const auto s = MakeDishwasherSeries(11, rng);
  ASSERT_EQ(s.anomalies.size(), 1u);
  // The anomalous cycle is missing ~45 samples of wash phase.
  EXPECT_LT(s.anomalies[0].length, kDishwasherCycleLength);
  EXPECT_GT(s.values.size(), 10 * (kDishwasherCycleLength - 60));
}

// ------------------------------------------------------------------ physio

TEST(PhysioTest, EcgHasBeatsAtExpectedRate) {
  Rng rng(7);
  const auto v = MakeLongEcg(10000, rng);
  EXPECT_EQ(v.size(), 10000u);
  // Count R peaks (well above the T waves at ~0.4).
  size_t peaks = 0;
  for (size_t i = 1; i + 1 < v.size(); ++i) {
    if (v[i] > 1.0 && v[i] >= v[i - 1] && v[i] > v[i + 1]) ++peaks;
  }
  EXPECT_NEAR(static_cast<double>(peaks), 10000.0 / 250.0, 8.0);
}

TEST(PhysioTest, EegIsZeroMeanOscillation) {
  Rng rng(8);
  const auto v = MakeEeg(20000, rng);
  EXPECT_EQ(v.size(), 20000u);
  EXPECT_NEAR(ts::Mean(v), 0.0, 0.3);
  EXPECT_GT(ts::SampleStdDev(v), 0.3);
}

// ------------------------------------------------------------- random walk

TEST(RandomWalkTest, StartsAtZeroAndScalesWithSigma) {
  Rng a(9), b(9);
  const auto w1 = MakeRandomWalk(5000, a, 1.0);
  const auto w2 = MakeRandomWalk(5000, b, 3.0);
  EXPECT_DOUBLE_EQ(w1[0], 0.0);
  // Same seed: the sigma-3 walk is exactly 3x the sigma-1 walk.
  for (size_t i = 0; i < w1.size(); i += 500) {
    EXPECT_NEAR(w2[i], 3.0 * w1[i], 1e-9);
  }
}

TEST(RandomWalkTest, IncrementsAreStandardNormal) {
  Rng rng(10);
  const auto w = MakeRandomWalk(50000, rng, 1.0);
  std::vector<double> inc(w.size() - 1);
  for (size_t i = 1; i < w.size(); ++i) inc[i - 1] = w[i] - w[i - 1];
  EXPECT_NEAR(ts::Mean(inc), 0.0, 0.02);
  EXPECT_NEAR(ts::SampleStdDev(inc), 1.0, 0.02);
}

}  // namespace
}  // namespace egi::datasets

#include <gtest/gtest.h>

#include <vector>

#include "core/detector.h"
#include "datasets/planted.h"
#include "datasets/power.h"
#include "egi/metrics.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace egi {
namespace {

// End-to-end: the ensemble detector locates planted anomalies across all six
// dataset families with a useful hit rate (the paper's Table 5 reports 0.68+
// everywhere; we assert a conservative floor to stay robust to seeds).
class EndToEndFamilyTest
    : public ::testing::TestWithParam<data::Family> {};

TEST_P(EndToEndFamilyTest, EnsembleHitsPlantedAnomalies) {
  const auto dataset = GetParam();
  const size_t window = data::GetFamilyInfo(dataset).instance_length;
  const int series_count = 4;

  core::EnsembleParams p;
  p.ensemble_size = 25;
  p.seed = 42;
  core::EnsembleGiDetector detector(p);

  int hits = 0;
  for (int i = 0; i < series_count; ++i) {
    Rng rng(1000 + static_cast<uint64_t>(i));
    const auto s = datasets::MakePlantedSeries(dataset, rng);
    auto r = detector.Detect(s.values, window, 3);
    ASSERT_TRUE(r.ok()) << r.status();
    if (IsHit(*r, s.anomaly)) ++hits;
  }
  EXPECT_GE(hits, series_count / 2)
      << data::GetFamilyInfo(dataset).name << ": only " << hits << "/"
      << series_count << " hits";
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, EndToEndFamilyTest,
    ::testing::ValuesIn(data::kAllFamilies),
    [](const ::testing::TestParamInfo<data::Family>& pi) {
      return std::string(data::GetFamilyInfo(pi.param).name);
    });

TEST(EndToEndTest, EnsembleBeatsSingleRandomRun) {
  // The paper's core claim: combining many random (w, a) draws beats a
  // single random draw. Aggregated over two parameter-sensitive families so
  // the comparison is statistically stable.
  const data::Family families[] = {
      data::Family::kGunPoint, data::Family::kStarLightCurve};

  core::EnsembleParams p;
  p.ensemble_size = 30;
  core::EnsembleGiDetector ensemble(p);
  core::RandomGiDetector random_gi(10, 10, 99);

  double ensemble_total = 0.0, random_total = 0.0;
  for (const auto dataset : families) {
    const size_t window = data::GetFamilyInfo(dataset).instance_length;
    for (int i = 0; i < 6; ++i) {
      Rng rng(7000 + static_cast<uint64_t>(i));
      const auto s = datasets::MakePlantedSeries(dataset, rng);
      auto re = ensemble.Detect(s.values, window, 3);
      ASSERT_TRUE(re.ok());
      ensemble_total += BestScore(*re, s.anomaly);
      // A single random draw has huge variance; compare against its
      // expectation (mean of several independent draws per series).
      double series_random = 0.0;
      const int draws = 5;
      for (int d = 0; d < draws; ++d) {
        auto rr = random_gi.Detect(s.values, window, 3);
        ASSERT_TRUE(rr.ok());
        series_random += BestScore(*rr, s.anomaly);
      }
      random_total += series_random / draws;
    }
  }
  EXPECT_GT(ensemble_total, random_total);
}

TEST(EndToEndTest, CaseStudyFindsUnusualFridgeCycles) {
  // Section 7.4 in miniature: a long fridge-freezer stream with two planted
  // unusual events; the ensemble's top-2 must overlap both.
  Rng rng(12);
  const auto s = datasets::MakeFridgeFreezerSeries(60000, rng);
  ASSERT_EQ(s.anomalies.size(), 2u);

  core::EnsembleParams p;
  p.ensemble_size = 25;
  core::EnsembleGiDetector detector(p);
  auto r = detector.Detect(s.values, data::kFridgeCycleLength, 2);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->size(), 2u);

  int found = 0;
  for (const auto& gt : s.anomalies) {
    for (const auto& c : *r) {
      if (Overlaps(c.window(), gt)) {
        ++found;
        break;
      }
    }
  }
  EXPECT_EQ(found, 2) << "expected both unusual events in the top-2";
}

TEST(EndToEndTest, MultipleAnomaliesDetected) {
  // Section 7.5 in miniature: two planted anomalies, top-3 candidates.
  Rng rng(21);
  const auto s = datasets::MakeMultiPlantedSeries(
      data::Family::kStarLightCurve, rng, 20, 2);

  core::EnsembleParams p;
  p.ensemble_size = 25;
  core::EnsembleGiDetector detector(p);
  auto r = detector.Detect(s.values, 1024, 3);
  ASSERT_TRUE(r.ok()) << r.status();

  int found = 0;
  for (const auto& gt : s.anomalies) {
    for (const auto& c : *r) {
      if (Overlaps(c.window(), gt)) {
        ++found;
        break;
      }
    }
  }
  EXPECT_GE(found, 1);
}

TEST(EndToEndTest, EnsembleScalesRoughlyLinearly) {
  // Runtime sanity (not a benchmark): doubling the series length must not
  // blow up superlinearly. Generous factor bound to stay CI-safe.
  core::EnsembleParams p;
  p.ensemble_size = 10;
  core::EnsembleGiDetector detector(p);

  auto time_for = [&](size_t len) {
    Rng rng(5);
    const auto s = datasets::MakeFridgeFreezerSeries(len, rng, false);
    Stopwatch sw;
    auto r = detector.Detect(s.values, 900, 3);
    EXPECT_TRUE(r.ok());
    return sw.ElapsedSeconds();
  };
  // Warm up allocator caches before measuring.
  (void)time_for(10000);
  const double t1 = time_for(20000);
  const double t2 = time_for(80000);
  EXPECT_LT(t2, 16.0 * std::max(t1, 0.005))
      << "4x the data took " << t2 / t1 << "x the time";
}

}  // namespace
}  // namespace egi

#include <gtest/gtest.h>

#include <vector>

#include "core/detector.h"
#include "datasets/planted.h"
#include "egi/types.h"
#include "util/rng.h"

namespace egi::core {
namespace {

data::PlantedSeries WaferSeries(uint64_t seed) {
  Rng rng(seed);
  return datasets::MakePlantedSeries(data::Family::kWafer, rng);
}

void ExpectValidCandidates(const std::vector<Detection>& cands,
                           size_t series_len, size_t window) {
  EXPECT_LE(cands.size(), 3u);
  EXPECT_FALSE(cands.empty());
  for (const auto& c : cands) {
    EXPECT_LE(c.position + window, series_len);
    EXPECT_EQ(c.length, window);
  }
  for (size_t i = 0; i < cands.size(); ++i) {
    for (size_t j = i + 1; j < cands.size(); ++j) {
      EXPECT_FALSE(Overlaps(cands[i].window(), cands[j].window()));
    }
  }
  // Sorted most-anomalous first.
  for (size_t i = 1; i < cands.size(); ++i) {
    EXPECT_GE(cands[i - 1].severity, cands[i].severity);
  }
}

TEST(EnsembleGiDetectorTest, ProducesValidCandidates) {
  const auto s = WaferSeries(1);
  EnsembleParams p;
  p.ensemble_size = 15;
  EnsembleGiDetector det(p);
  auto r = det.Detect(s.values, 150, 3);
  ASSERT_TRUE(r.ok()) << r.status();
  ExpectValidCandidates(*r, s.values.size(), 150);
  EXPECT_EQ(det.last_result().members.size(), 15u);
}

TEST(EnsembleGiDetectorTest, WmaxClampedToSmallWindows) {
  // Window of 6 < default wmax of 10: the detector must clamp, not fail.
  const auto s = WaferSeries(2);
  EnsembleGiDetector det;
  auto r = det.Detect(s.values, 6, 2);
  ASSERT_TRUE(r.ok()) << r.status();
  for (const auto& m : det.last_result().members) EXPECT_LE(m.paa_size, 6);
}

TEST(FixedGiDetectorTest, ProducesValidCandidates) {
  const auto s = WaferSeries(3);
  FixedGiDetector det;  // w=4, a=4
  auto r = det.Detect(s.values, 150, 3);
  ASSERT_TRUE(r.ok()) << r.status();
  ExpectValidCandidates(*r, s.values.size(), 150);
}

TEST(RandomGiDetectorTest, DrawsParamsInRange) {
  const auto s = WaferSeries(4);
  RandomGiDetector det(10, 10, 5);
  auto r = det.Detect(s.values, 150, 3);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GE(det.last_paa_size(), 2);
  EXPECT_LE(det.last_paa_size(), 10);
  EXPECT_GE(det.last_alphabet_size(), 2);
  EXPECT_LE(det.last_alphabet_size(), 10);
}

TEST(RandomGiDetectorTest, DifferentDrawsAcrossCalls) {
  const auto s = WaferSeries(5);
  RandomGiDetector det(10, 10, 5);
  std::vector<std::pair<int, int>> draws;
  for (int i = 0; i < 8; ++i) {
    auto r = det.Detect(s.values, 150, 1);
    ASSERT_TRUE(r.ok());
    draws.emplace_back(det.last_paa_size(), det.last_alphabet_size());
  }
  bool varied = false;
  for (size_t i = 1; i < draws.size(); ++i) {
    if (draws[i] != draws[0]) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST(SelectGiDetectorTest, SelectsParamsWithinGrid) {
  const auto s = WaferSeries(6);
  SelectGiDetector det(10, 10, 0.1);
  auto params = det.SelectParams(s.values, 150);
  ASSERT_TRUE(params.ok()) << params.status();
  EXPECT_GE(params->paa_size, 2);
  EXPECT_LE(params->paa_size, 10);
  EXPECT_GE(params->alphabet_size, 2);
  EXPECT_LE(params->alphabet_size, 10);

  auto r = det.Detect(s.values, 150, 3);
  ASSERT_TRUE(r.ok()) << r.status();
  ExpectValidCandidates(*r, s.values.size(), 150);
  EXPECT_EQ(det.last_paa_size(), params->paa_size);
}

TEST(SelectGiDetectorTest, SelectionIsDeterministic) {
  const auto s = WaferSeries(7);
  SelectGiDetector det(10, 10, 0.1);
  auto p1 = det.SelectParams(s.values, 150);
  auto p2 = det.SelectParams(s.values, 150);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(p1->paa_size, p2->paa_size);
  EXPECT_EQ(p1->alphabet_size, p2->alphabet_size);
}

TEST(DiscordDetectorTest, ProducesValidCandidates) {
  const auto s = WaferSeries(8);
  DiscordDetector det(2);
  auto r = det.Detect(s.values, 150, 3);
  ASSERT_TRUE(r.ok()) << r.status();
  ExpectValidCandidates(*r, s.values.size(), 150);
  // Discord severities are 1-NN distances: non-negative.
  for (const auto& c : *r) EXPECT_GE(c.severity, 0.0);
}

TEST(DiscordDetectorTest, FindsPlantedWaferAnomaly) {
  const auto s = WaferSeries(9);
  DiscordDetector det(2);
  auto r = det.Detect(s.values, 150, 3);
  ASSERT_TRUE(r.ok());
  bool hit = false;
  for (const auto& c : *r) {
    if (Overlaps(c.window(), s.anomaly)) hit = true;
  }
  EXPECT_TRUE(hit);
}

TEST(DetectorTest, AllDetectorsRejectOversizedWindow) {
  std::vector<double> tiny(10, 0.0);
  EnsembleGiDetector ens;
  FixedGiDetector fix;
  DiscordDetector disc;
  EXPECT_FALSE(ens.Detect(tiny, 11, 1).ok());
  EXPECT_FALSE(fix.Detect(tiny, 11, 1).ok());
  EXPECT_FALSE(disc.Detect(tiny, 11, 1).ok());
}

}  // namespace
}  // namespace egi::core

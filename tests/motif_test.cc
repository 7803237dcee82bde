#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/motif.h"
#include "datasets/physio.h"
#include "egi/types.h"
#include "util/rng.h"

namespace egi::core {
namespace {

std::vector<double> PeriodicSeries(size_t len, double period) {
  std::vector<double> v(len);
  for (size_t i = 0; i < len; ++i) {
    v[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / period) +
           0.3 * std::sin(4.0 * M_PI * static_cast<double>(i) / period);
  }
  return v;
}

MotifParams DefaultParams(size_t window) {
  MotifParams p;
  p.gi.window_length = window;
  p.gi.paa_size = 4;
  p.gi.alphabet_size = 4;
  return p;
}

TEST(MotifTest, FindsRepeatingPatternInPeriodicSeries) {
  const auto series = PeriodicSeries(2000, 100.0);
  auto motifs = DiscoverMotifs(series, DefaultParams(100));
  ASSERT_TRUE(motifs.ok()) << motifs.status();
  ASSERT_FALSE(motifs->empty());
  const auto& top = (*motifs)[0];
  EXPECT_GE(top.instances.size(), 2u);
  EXPECT_GT(top.coverage, 0.2);
}

TEST(MotifTest, InstancesAreInSeriesOrderAndInBounds) {
  const auto series = PeriodicSeries(1500, 75.0);
  auto motifs = DiscoverMotifs(series, DefaultParams(75));
  ASSERT_TRUE(motifs.ok());
  for (const auto& m : *motifs) {
    for (size_t i = 0; i < m.instances.size(); ++i) {
      EXPECT_LE(m.instances[i].end(), series.size());
      if (i > 0) {
        EXPECT_LT(m.instances[i - 1].start, m.instances[i].start);
      }
    }
  }
}

TEST(MotifTest, RankedByInstanceCount) {
  Rng rng(17);
  const auto series = datasets::MakeLongEcg(6000, rng);
  auto p = DefaultParams(250);
  p.top_k = 10;
  auto motifs = DiscoverMotifs(series, p);
  ASSERT_TRUE(motifs.ok());
  for (size_t i = 1; i < motifs->size(); ++i) {
    EXPECT_GE((*motifs)[i - 1].instances.size(),
              (*motifs)[i].instances.size());
  }
}

TEST(MotifTest, TopKLimitRespected) {
  const auto series = PeriodicSeries(3000, 60.0);
  auto p = DefaultParams(60);
  p.top_k = 2;
  auto motifs = DiscoverMotifs(series, p);
  ASSERT_TRUE(motifs.ok());
  EXPECT_LE(motifs->size(), 2u);
}

TEST(MotifTest, MinInstancesFilters) {
  const auto series = PeriodicSeries(800, 80.0);
  auto p = DefaultParams(80);
  p.min_instances = 1000;  // impossible
  auto motifs = DiscoverMotifs(series, p);
  ASSERT_TRUE(motifs.ok());
  EXPECT_TRUE(motifs->empty());
}

TEST(MotifTest, NoMotifsInStructurelessData) {
  // Pure random walk with a long window: few, weak repeats at best.
  Rng rng(5);
  std::vector<double> v(600);
  double acc = 0.0;
  for (auto& x : v) {
    acc += rng.Gaussian();
    x = acc;
  }
  auto p = DefaultParams(150);
  p.gi.paa_size = 8;
  p.gi.alphabet_size = 8;  // fine resolution: random walks rarely repeat
  auto motifs = DiscoverMotifs(v, p);
  ASSERT_TRUE(motifs.ok());
  for (const auto& m : *motifs) {
    EXPECT_LT(m.coverage, 0.9);  // never "everything is one motif"
  }
}

TEST(MotifTest, WordsRenderTheRuleExpansion) {
  const auto series = PeriodicSeries(1200, 100.0);
  auto motifs = DiscoverMotifs(series, DefaultParams(100));
  ASSERT_TRUE(motifs.ok());
  ASSERT_FALSE(motifs->empty());
  const auto& top = (*motifs)[0];
  // words = token_span SAX words separated by spaces, each of length w.
  size_t word_count = 1;
  for (char c : top.words) {
    if (c == ' ') ++word_count;
  }
  EXPECT_EQ(word_count, top.token_span);
}

TEST(MotifTest, InvalidParamsRejected) {
  std::vector<double> v(100, 0.0);
  MotifParams p;
  p.gi.window_length = 200;  // longer than the series
  EXPECT_FALSE(DiscoverMotifs(v, p).ok());
}

TEST(MotifTest, MotifsAndAnomaliesAreComplementary) {
  // Plant a one-off bump in an otherwise periodic series: the motif
  // instances should not cover the anomalous region.
  auto series = PeriodicSeries(2000, 100.0);
  for (size_t i = 1000; i < 1100; ++i) series[i] = 3.0;

  auto motifs = DiscoverMotifs(series, DefaultParams(100));
  ASSERT_TRUE(motifs.ok());
  ASSERT_FALSE(motifs->empty());
  const Range anomaly{1000, 100};
  size_t overlapping = 0;
  for (const auto& inst : (*motifs)[0].instances) {
    if (OverlapLength(inst, anomaly) > 50) ++overlapping;
  }
  EXPECT_EQ(overlapping, 0u)
      << "top motif claims the anomalous region as a repeat";
}

}  // namespace
}  // namespace egi::core

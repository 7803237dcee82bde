#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "core/anomaly.h"
#include "core/ensemble.h"
#include "core/gi.h"
#include "datasets/planted.h"
#include "sax/multires_encoder.h"
#include "util/rng.h"

namespace egi::core {
namespace {

std::vector<double> SyntheticSeries(size_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(len);
  for (size_t i = 0; i < len; ++i) {
    v[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / 50.0) +
           0.1 * rng.Gaussian();
  }
  return v;
}

// -------------------------------------------------------- parameter draw

TEST(DrawParameterSampleTest, UniquePairsWithinRanges) {
  const auto sample = DrawParameterSample(10, 10, 50, 123);
  EXPECT_EQ(sample.size(), 50u);
  std::set<std::pair<int, int>> seen;
  for (const auto& p : sample) {
    EXPECT_GE(p.paa_size, 2);
    EXPECT_LE(p.paa_size, 10);
    EXPECT_GE(p.alphabet_size, 2);
    EXPECT_LE(p.alphabet_size, 10);
    EXPECT_TRUE(seen.emplace(p.paa_size, p.alphabet_size).second)
        << "duplicate (w,a) draw";
  }
}

TEST(DrawParameterSampleTest, CappedAtGridSize) {
  // Grid [2,3]x[2,3] has 4 combinations.
  const auto sample = DrawParameterSample(3, 3, 50, 1);
  EXPECT_EQ(sample.size(), 4u);
}

TEST(DrawParameterSampleTest, DeterministicGivenSeed) {
  const auto a = DrawParameterSample(10, 10, 20, 42);
  const auto b = DrawParameterSample(10, 10, 20, 42);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].paa_size, b[i].paa_size);
    EXPECT_EQ(a[i].alphabet_size, b[i].alphabet_size);
  }
}

TEST(DrawParameterSampleTest, DifferentSeedsDiffer) {
  const auto a = DrawParameterSample(10, 10, 30, 1);
  const auto b = DrawParameterSample(10, 10, 30, 2);
  bool any_diff = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].paa_size != b[i].paa_size ||
        a[i].alphabet_size != b[i].alphabet_size) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

// ------------------------------------------------------- combine curves

TEST(CombineMemberCurvesTest, SingleCurveNormalizedByMax) {
  std::vector<std::vector<double>> curves{{0.0, 2.0, 4.0}};
  auto out = CombineMemberCurves(
      curves, {.selectivity = 1.0,
               .combine = CombineRule::kMedian,
               .normalize = NormalizeMode::kMaxPreservingZeros,
               .filter_by_std = true});
  EXPECT_EQ(out, (std::vector<double>{0.0, 0.5, 1.0}));
}

TEST(CombineMemberCurvesTest, ZeroPreservation) {
  // Max-normalization must keep exact zeros (the paper rejects min-max
  // because it would erase the significance of zero-density points).
  std::vector<std::vector<double>> curves{{3.0, 0.0, 6.0}, {2.0, 0.0, 8.0}};
  auto out = CombineMemberCurves(
      curves, {.selectivity = 1.0,
               .combine = CombineRule::kMedian,
               .normalize = NormalizeMode::kMaxPreservingZeros,
               .filter_by_std = true});
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_GT(out[0], 0.0);
}

TEST(CombineMemberCurvesTest, MinMaxDiffersFromMaxNormalization) {
  std::vector<std::vector<double>> curves{{2.0, 4.0, 6.0}};
  auto max_out = CombineMemberCurves(
      curves, {.selectivity = 1.0,
               .combine = CombineRule::kMedian,
               .normalize = NormalizeMode::kMaxPreservingZeros,
               .filter_by_std = true});
  auto minmax_out = CombineMemberCurves(
      curves, {.selectivity = 1.0,
               .combine = CombineRule::kMedian,
               .normalize = NormalizeMode::kMinMax,
               .filter_by_std = true});
  EXPECT_DOUBLE_EQ(max_out[0], 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(minmax_out[0], 0.0);  // min-max maps the minimum to 0
}

TEST(CombineMemberCurvesTest, MedianOfThree) {
  std::vector<std::vector<double>> curves{
      {1.0, 1.0}, {1.0, 0.5}, {0.0, 0.25}};
  auto out = CombineMemberCurves(curves, {.selectivity = 1.0,
                                          .combine = CombineRule::kMedian,
                                          .normalize = NormalizeMode::kNone,
                                          .filter_by_std = false});
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 0.5);
}

TEST(CombineMemberCurvesTest, MeanCombine) {
  std::vector<std::vector<double>> curves{{1.0}, {2.0}, {6.0}};
  auto out = CombineMemberCurves(curves, {.selectivity = 1.0,
                                          .combine = CombineRule::kMean,
                                          .normalize = NormalizeMode::kNone,
                                          .filter_by_std = false});
  EXPECT_DOUBLE_EQ(out[0], 3.0);
}

TEST(CombineMemberCurvesTest, SelectivityKeepsTopStdCurves) {
  // Curve 0: high variance; curve 1: flat (low variance); curve 2: medium.
  std::vector<std::vector<double>> curves{
      {0.0, 10.0, 0.0, 10.0}, {5.0, 5.0, 5.0, 5.0}, {4.0, 6.0, 4.0, 6.0}};
  std::vector<double> stds;
  std::vector<bool> kept;
  CombineMemberCurves(curves,
                      {.selectivity = 0.34,
                       .combine = CombineRule::kMedian,
                       .normalize = NormalizeMode::kNone,
                       .filter_by_std = true},
                      &stds, &kept);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_TRUE(kept[0]);   // highest std kept
  EXPECT_FALSE(kept[1]);  // flat curve dropped
  EXPECT_FALSE(kept[2]);
  EXPECT_GT(stds[0], stds[2]);
  EXPECT_GT(stds[2], stds[1]);
}

TEST(CombineMemberCurvesTest, KeepCountAtLeastOne) {
  std::vector<std::vector<double>> curves{{1.0, 2.0}};
  std::vector<bool> kept;
  CombineMemberCurves(curves,
                      {.selectivity = 0.01,
                       .combine = CombineRule::kMedian,
                       .normalize = NormalizeMode::kNone,
                       .filter_by_std = true},
                      nullptr, &kept);
  EXPECT_TRUE(kept[0]);
}

TEST(CombineMemberCurvesTest, FilterDisabledKeepsAll) {
  std::vector<std::vector<double>> curves{
      {0.0, 10.0}, {5.0, 5.0}, {4.0, 6.0}};
  std::vector<bool> kept;
  CombineMemberCurves(curves,
                      {.selectivity = 0.34,
                       .combine = CombineRule::kMedian,
                       .normalize = NormalizeMode::kNone,
                       .filter_by_std = false},
                      nullptr, &kept);
  EXPECT_TRUE(kept[0] && kept[1] && kept[2]);
}

TEST(CombineMemberCurvesTest, AllZeroCurvesStayZero) {
  std::vector<std::vector<double>> curves{{0.0, 0.0}, {0.0, 0.0}};
  auto out = CombineMemberCurves(
      curves, {.selectivity = 1.0,
               .combine = CombineRule::kMedian,
               .normalize = NormalizeMode::kMaxPreservingZeros,
               .filter_by_std = true});
  EXPECT_EQ(out, (std::vector<double>{0.0, 0.0}));
}

// --------------------------------------------------------- full ensemble

TEST(EnsembleTest, ValidatesParameters) {
  const auto series = SyntheticSeries(500, 1);
  EnsembleParams p;
  p.window_length = 0;
  EXPECT_FALSE(ComputeEnsembleDensity(series, p).ok());
  p.window_length = 501;
  EXPECT_FALSE(ComputeEnsembleDensity(series, p).ok());
  p.window_length = 50;
  p.selectivity = 0.0;
  EXPECT_FALSE(ComputeEnsembleDensity(series, p).ok());
  p.selectivity = 0.4;
  p.wmax = 60;  // exceeds window
  EXPECT_FALSE(ComputeEnsembleDensity(series, p).ok());
  p.wmax = 10;
  p.ensemble_size = 0;
  EXPECT_FALSE(ComputeEnsembleDensity(series, p).ok());
  p.ensemble_size = 50;
  p.wmax = 40;  // (w=40, a=64) would need 240 bits: grid rejected up front,
  p.amax = 64;  // independent of which pairs the seed would draw
  EXPECT_FALSE(ComputeEnsembleDensity(series, p).ok());
  p.wmax = 20;  // the paper's largest sweep (100 bits) stays valid
  p.amax = 20;
  EXPECT_TRUE(ValidateEnsembleParams(series.size(), p).ok());
}

TEST(EnsembleTest, ProducesCurveOfSeriesLengthInUnitRange) {
  const auto series = SyntheticSeries(800, 2);
  EnsembleParams p;
  p.window_length = 50;
  p.ensemble_size = 20;
  p.seed = 9;
  auto r = ComputeEnsembleDensity(series, p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->density.size(), series.size());
  for (double v : r->density) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(EnsembleTest, MemberBookkeeping) {
  const auto series = SyntheticSeries(600, 3);
  EnsembleParams p;
  p.window_length = 40;
  p.ensemble_size = 30;
  p.selectivity = 0.4;
  auto r = ComputeEnsembleDensity(series, p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->members.size(), 30u);
  int kept = 0;
  for (const auto& m : r->members) {
    if (m.kept) ++kept;
    EXPECT_GE(m.paa_size, 2);
    EXPECT_LE(m.paa_size, 10);
    EXPECT_GE(m.alphabet_size, 2);
    EXPECT_LE(m.alphabet_size, 10);
  }
  EXPECT_EQ(kept, 12);  // round(0.4 * 30)
}

TEST(EnsembleTest, DeterministicGivenSeed) {
  const auto series = SyntheticSeries(500, 4);
  EnsembleParams p;
  p.window_length = 50;
  p.ensemble_size = 15;
  p.seed = 77;
  auto a = ComputeEnsembleDensity(series, p);
  auto b = ComputeEnsembleDensity(series, p);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->density, b->density);
}

TEST(EnsembleTest, EnsembleSizeCappedAtGrid) {
  const auto series = SyntheticSeries(300, 5);
  EnsembleParams p;
  p.window_length = 30;
  p.wmax = 3;
  p.amax = 3;  // grid of 4
  p.ensemble_size = 50;
  auto r = ComputeEnsembleDensity(series, p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->members.size(), 4u);
}

TEST(EnsembleTest, MatchesManualPipeline) {
  // The ensemble must equal: draw params -> per-member GI curves ->
  // CombineMemberCurves. Guards against the encoder-sharing fast path
  // diverging from the reference pipeline.
  const auto series = SyntheticSeries(400, 6);
  EnsembleParams p;
  p.window_length = 40;
  p.ensemble_size = 10;
  p.seed = 5;

  auto fast = ComputeEnsembleDensity(series, p);
  ASSERT_TRUE(fast.ok());

  const auto sample =
      DrawParameterSample(p.wmax, p.amax, p.ensemble_size, p.seed);
  std::vector<std::vector<double>> curves;
  for (const auto& wa : sample) {
    GiParams gp;
    gp.window_length = p.window_length;
    gp.paa_size = wa.paa_size;
    gp.alphabet_size = wa.alphabet_size;
    auto run = RunGrammarInduction(series, gp);
    ASSERT_TRUE(run.ok());
    curves.push_back(run->density);
  }
  auto manual = CombineMemberCurves(curves, {.selectivity = p.selectivity,
                                             .combine = p.combine,
                                             .normalize = p.normalize,
                                             .filter_by_std = true});
  ASSERT_EQ(fast->density.size(), manual.size());
  for (size_t i = 0; i < manual.size(); ++i) {
    EXPECT_NEAR(fast->density[i], manual[i], 1e-12) << "at " << i;
  }
}

TEST(EnsembleTest, WordCountsMatchAFreshEncode) {
  // The word counts a run hands back — the streaming detector adopts them
  // as its models at every refit — must equal the counts recomputed from a
  // fresh EncodeAll of the same series, on the full and the pruned path.
  const auto series = SyntheticSeries(500, 8);
  for (const int prune_to : {0, 6}) {
    EnsembleParams p;
    p.window_length = 40;
    p.ensemble_size = 15;
    p.prune_to = prune_to;
    EnsembleArtifacts artifacts;
    auto r = ComputeEnsembleDensity(series, p, &artifacts);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(artifacts.word_counts.size(), r->members.size());

    const auto sample =
        DrawParameterSample(p.wmax, p.amax, p.ensemble_size, p.seed);
    sax::MultiResSaxEncoder encoder(series, p.window_length, p.amax,
                                    p.numerosity_reduction);
    auto fresh = encoder.EncodeAll(sample);
    ASSERT_TRUE(fresh.ok());
    size_t built = 0;
    for (size_t m = 0; m < sample.size(); ++m) {
      const MemberWordCounts& got = artifacts.word_counts[m];
      if (got.table.size() == 0) {  // screened out: never built, never kept
        EXPECT_FALSE(r->members[m].kept) << "member " << m;
        continue;
      }
      ++built;
      const sax::DiscretizedSeries& d = (*fresh)[m];
      std::vector<uint32_t> counts(d.table.size(), 0);
      for (size_t j = 0; j < d.seq.size(); ++j) {
        const size_t next =
            j + 1 < d.seq.size() ? d.seq.offsets[j + 1] : d.num_positions();
        counts[static_cast<size_t>(d.seq.tokens[j])] +=
            static_cast<uint32_t>(next - d.seq.offsets[j]);
      }
      EXPECT_EQ(got.position_counts, counts) << "member " << m;
      EXPECT_EQ(got.max_count, static_cast<double>(*std::max_element(
                                   counts.begin(), counts.end())));
      ASSERT_EQ(got.table.size(), d.table.size()) << "member " << m;
      for (int32_t id = 0; id < static_cast<int32_t>(d.table.size()); ++id) {
        EXPECT_TRUE(got.table.CodeAt(id) == d.table.CodeAt(id));
      }
    }
    EXPECT_EQ(built, prune_to > 0 ? static_cast<size_t>(prune_to)
                                  : sample.size());
  }
}

TEST(EnsembleTest, FindsPlantedAnomalyOnEasyData) {
  Rng rng(2024);
  auto planted =
      datasets::MakePlantedSeries(data::Family::kTrace, rng);
  EnsembleParams p;
  p.window_length = 275;
  p.ensemble_size = 30;
  p.seed = 3;
  auto r = ComputeEnsembleDensity(planted.values, p);
  ASSERT_TRUE(r.ok());
  auto anomalies = FindDensityAnomalies(r->density, p.window_length, 3);
  ASSERT_FALSE(anomalies.empty());
  bool hit = false;
  for (const auto& a : anomalies) {
    const double diff =
        a.position > planted.anomaly.start
            ? static_cast<double>(a.position - planted.anomaly.start)
            : static_cast<double>(planted.anomaly.start - a.position);
    if (diff < static_cast<double>(planted.anomaly.length)) hit = true;
  }
  EXPECT_TRUE(hit) << "ensemble missed the planted Trace anomaly";
}

}  // namespace
}  // namespace egi::core

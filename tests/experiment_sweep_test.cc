#include <gtest/gtest.h>

#include <tuple>

#include "eval/experiment.h"
#include "eval/metrics.h"
#include "exec/parallel.h"

namespace egi::eval {
namespace {

// Cross-module consistency sweep: the experiment runner must uphold its
// invariants for every dataset family and window fraction the paper sweeps
// (Tables 4-5 and 13-14 rely on these).
using SweepParam = std::tuple<data::Family, double>;

class ExperimentSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ExperimentSweepTest, RunnerInvariants) {
  const auto [dataset, fraction] = GetParam();

  ExperimentConfig cfg;
  cfg.series_per_dataset = 3;
  cfg.window_fraction = fraction;

  const data::Family ds[] = {dataset};
  const auto all = PaperMethods(10, exec::Parallelism::FromEnv().threads);
  const PaperMethod methods[] = {all[0], all[2]};  // Proposed, GI-Fix
  const auto result = RunExperiment(ds, methods, cfg);

  for (const auto& m : methods) {
    const auto& agg = result.Get(dataset, m.label);
    ASSERT_EQ(agg.scores.size(), 3u);
    int positive = 0;
    for (double s : agg.scores) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
      if (s > 0.0) ++positive;
    }
    // HitRate must equal the fraction of positive scores by definition.
    EXPECT_DOUBLE_EQ(agg.HitRate(), positive / 3.0);
    // AverageScore is bounded by the extremes of the per-series scores.
    EXPECT_LE(agg.AverageScore(),
              *std::max_element(agg.scores.begin(), agg.scores.end()));
    EXPECT_GE(agg.AverageScore(),
              *std::min_element(agg.scores.begin(), agg.scores.end()));
  }

  // W/T/L conserves the series count.
  const auto wtl = CompareScores(result.Get(dataset, "Proposed"),
                                 result.Get(dataset, "GI-Fix"));
  EXPECT_EQ(wtl.wins + wtl.ties + wtl.losses, 3);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAndWindows, ExperimentSweepTest,
    ::testing::Combine(::testing::ValuesIn(data::kAllFamilies),
                       ::testing::Values(0.6, 0.8, 1.0)),
    [](const ::testing::TestParamInfo<SweepParam>& param_info) {
      const auto d = std::get<0>(param_info.param);
      const auto f = std::get<1>(param_info.param);
      return std::string(data::GetFamilyInfo(d).name) + "_w" +
             std::to_string(static_cast<int>(f * 100));
    });

TEST(ExperimentSweepTest, ResultsAreReproducibleAcrossRuns) {
  ExperimentConfig cfg;
  cfg.series_per_dataset = 2;
  const data::Family ds[] = {data::Family::kWafer};
  const auto all = PaperMethods(8, exec::Parallelism::FromEnv().threads);
  const auto methods = std::span(all).first(1);  // Proposed

  const auto a = RunExperiment(ds, methods, cfg);
  const auto b = RunExperiment(ds, methods, cfg);
  EXPECT_EQ(a.Get(ds[0], "Proposed").scores, b.Get(ds[0], "Proposed").scores);
}

}  // namespace
}  // namespace egi::eval

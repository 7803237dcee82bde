#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/internal.h"
#include "egi/session.h"
#include "eval/experiment.h"
#include "eval/metrics.h"

namespace egi::eval {
namespace {

// ------------------------------------------------------------- Score Eq. 5

TEST(ScoreTest, ExactMatchScoresOne) {
  EXPECT_DOUBLE_EQ(ScoreEq5(100, 100, 50), 1.0);
}

TEST(ScoreTest, LinearDecay) {
  EXPECT_DOUBLE_EQ(ScoreEq5(110, 100, 50), 0.8);
  EXPECT_DOUBLE_EQ(ScoreEq5(90, 100, 50), 0.8);   // symmetric
  EXPECT_DOUBLE_EQ(ScoreEq5(125, 100, 50), 0.5);
}

TEST(ScoreTest, ZeroBeyondOneGtLength) {
  EXPECT_DOUBLE_EQ(ScoreEq5(150, 100, 50), 0.0);
  EXPECT_DOUBLE_EQ(ScoreEq5(400, 100, 50), 0.0);
  EXPECT_DOUBLE_EQ(ScoreEq5(0, 100, 50), 0.0);
}

TEST(ScoreTest, BoundaryJustInside) {
  EXPECT_NEAR(ScoreEq5(149, 100, 50), 0.02, 1e-12);
}

TEST(BestScoreTest, TakesMaxOverCandidates) {
  std::vector<Detection> cands;
  Detection a;
  a.position = 130;  // Score 0.4
  cands.push_back(a);
  a.position = 105;  // Score 0.9
  cands.push_back(a);
  a.position = 500;  // Score 0
  cands.push_back(a);
  EXPECT_DOUBLE_EQ(BestScore(cands, Range{100, 50}), 0.9);
}

TEST(BestScoreTest, EmptyCandidatesScoreZero) {
  EXPECT_DOUBLE_EQ(BestScore({}, Range{10, 5}), 0.0);
}

TEST(HitTest, HitIffPositiveScore) {
  std::vector<Detection> cands(1);
  cands[0].position = 149;
  EXPECT_TRUE(IsHit(cands, Range{100, 50}));
  cands[0].position = 150;
  EXPECT_FALSE(IsHit(cands, Range{100, 50}));
}

// ------------------------------------------------------------------- W/T/L

TEST(WinTieLossTest, Tallies) {
  WinTieLoss wtl;
  wtl.Add(0.9, 0.5);   // win
  wtl.Add(0.5, 0.5);   // tie
  wtl.Add(0.2, 0.7);   // loss
  wtl.Add(0.7, 0.7);   // tie
  EXPECT_EQ(wtl.wins, 1);
  EXPECT_EQ(wtl.ties, 2);
  EXPECT_EQ(wtl.losses, 1);
  EXPECT_EQ(wtl.ToString(), "1/2/1");
}

TEST(WinTieLossTest, EpsilonTreatsNearEqualAsTie) {
  WinTieLoss wtl;
  wtl.Add(0.5 + 1e-14, 0.5);
  EXPECT_EQ(wtl.ties, 1);
}

TEST(CompareScoresTest, PairwiseComparison) {
  MethodAggregate a, b;
  a.scores = {1.0, 0.5, 0.0, 0.3};
  b.scores = {0.5, 0.5, 0.2, 0.1};
  const auto wtl = CompareScores(a, b);
  EXPECT_EQ(wtl.wins, 2);
  EXPECT_EQ(wtl.ties, 1);
  EXPECT_EQ(wtl.losses, 1);
}

// --------------------------------------------------------------- aggregate

TEST(MethodAggregateTest, AverageAndHitRate) {
  MethodAggregate agg;
  agg.scores = {1.0, 0.0, 0.5, 0.0};
  EXPECT_DOUBLE_EQ(agg.AverageScore(), 0.375);
  EXPECT_DOUBLE_EQ(agg.HitRate(), 0.5);
}

TEST(MethodAggregateTest, EmptyAggregates) {
  MethodAggregate agg;
  EXPECT_DOUBLE_EQ(agg.AverageScore(), 0.0);
  EXPECT_DOUBLE_EQ(agg.HitRate(), 0.0);
}

// ----------------------------------------------------------------- methods

TEST(MethodsTest, NamesMatchPaper) {
  std::vector<std::string> labels;
  for (const auto& m : PaperMethods(50, 1)) labels.push_back(m.label);
  EXPECT_EQ(labels, (std::vector<std::string>{"Proposed", "GI-Random",
                                              "GI-Fix", "GI-Select",
                                              "Discord"}));
}

TEST(MethodsTest, FactoryBuildsEveryMethod) {
  const auto methods = PaperMethods(/*ensemble_size=*/8, /*threads=*/3);
  for (const auto& m : methods) {
    auto spec = DetectorSpec::Parse(m.spec);
    ASSERT_TRUE(spec.ok()) << m.spec;
    auto det = api::BuildDetector(*spec);
    ASSERT_TRUE(det.ok()) << m.label << ": " << det.status().ToString();
    EXPECT_FALSE((*det)->name().empty());
  }
  // N and threads reach the specs; every other key is the paper's setting.
  auto proposed = Session::Open(methods[0].spec);
  ASSERT_TRUE(proposed.ok());
  EXPECT_EQ(proposed->spec(),
            "ensemble:wmax=10,amax=10,n=8,tau=0.4,seed=42,prune_to=0,"
            "threads=3");
  auto discord = Session::Open(methods[4].spec);
  ASSERT_TRUE(discord.ok());
  EXPECT_EQ(discord->spec(), "discord:threads=3");
}

// -------------------------------------------------------- experiment runner

TEST(ExperimentTest, EvaluationSeriesAreDeterministic) {
  const auto a =
      MakeEvaluationSeries(data::Family::kWafer, 3, 2020);
  const auto b =
      MakeEvaluationSeries(data::Family::kWafer, 3, 2020);
  ASSERT_EQ(a.size(), 3u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].values, b[i].values);
    EXPECT_EQ(a[i].anomaly, b[i].anomaly);
  }
}

TEST(ExperimentTest, LargerCountExtendsSameSeries) {
  const auto small =
      MakeEvaluationSeries(data::Family::kTrace, 2, 7);
  const auto large =
      MakeEvaluationSeries(data::Family::kTrace, 4, 7);
  EXPECT_EQ(small[0].values, large[0].values);
  EXPECT_EQ(small[1].values, large[1].values);
}

TEST(ExperimentTest, RunsEndToEndOnSmallConfig) {
  ExperimentConfig cfg;
  cfg.series_per_dataset = 2;
  const data::Family ds[] = {data::Family::kGunPoint};
  const auto all = PaperMethods(8, exec::Parallelism::FromEnv().threads);
  const PaperMethod methods[] = {all[0], all[2]};  // Proposed, GI-Fix
  const auto result = RunExperiment(ds, methods, cfg);

  const auto& proposed = result.Get(ds[0], "Proposed");
  const auto& fix = result.Get(ds[0], "GI-Fix");
  EXPECT_EQ(proposed.scores.size(), 2u);
  EXPECT_EQ(fix.scores.size(), 2u);
  for (double s : proposed.scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

}  // namespace
}  // namespace egi::eval

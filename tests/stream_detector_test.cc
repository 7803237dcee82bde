#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/ensemble.h"
#include "datasets/random_walk.h"
#include "stream/detector.h"
#include "util/rng.h"

namespace egi::stream {
namespace {

StreamDetectorOptions SmallOptions() {
  StreamDetectorOptions opt;
  opt.ensemble.window_length = 40;
  opt.ensemble.wmax = 6;
  opt.ensemble.amax = 6;
  opt.ensemble.ensemble_size = 12;
  opt.ensemble.seed = 42;
  opt.buffer_capacity = 256;
  opt.refit_interval = 64;
  return opt;
}

std::vector<double> TestSeries(size_t length, uint64_t seed = 2020) {
  Rng rng(seed);
  return datasets::MakeRandomWalk(length, rng);
}

// The acceptance-criterion contract: at every refit boundary the streaming
// score curve is bitwise-identical to batch ComputeEnsembleDensity on the
// buffered window — including after the ring has begun evicting history.
TEST(StreamDetectorTest, ReplayEquivalentToBatchAtEveryRefit) {
  const auto opt = SmallOptions();
  StreamDetector detector(opt);
  const auto series = TestSeries(700);

  size_t refits_seen = 0;
  for (const double v : series) {
    const StreamPoint pt = detector.Append(v);
    if (!pt.refit) continue;
    ++refits_seen;
    const auto buffered = detector.BufferSnapshot();
    const auto streaming_scores = detector.ScoresSnapshot();
    const auto batch = core::ComputeEnsembleDensity(buffered, opt.ensemble);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(streaming_scores.size(), batch->density.size());
    for (size_t i = 0; i < streaming_scores.size(); ++i) {
      // Bitwise equality, not near-equality: the refit path must reconcile
      // exactly against the batch algorithm.
      ASSERT_EQ(streaming_scores[i], batch->density[i]) << "at point " << i;
    }
  }
  EXPECT_EQ(refits_seen, series.size() / opt.refit_interval);
  EXPECT_EQ(detector.refit_count(), refits_seen);
  EXPECT_GT(detector.total_appended(), detector.buffered());  // evicted
}

TEST(StreamDetectorTest, UnscoredUntilFirstRefitThenProvisional) {
  const auto opt = SmallOptions();
  StreamDetector detector(opt);
  const auto series = TestSeries(200);

  for (size_t i = 0; i < series.size(); ++i) {
    const StreamPoint pt = detector.Append(series[i]);
    EXPECT_EQ(pt.index, i);
    EXPECT_EQ(pt.value, series[i]);
    if (i + 1 < opt.refit_interval) {
      EXPECT_FALSE(pt.scored);
      EXPECT_FALSE(detector.fitted());
    } else if (i + 1 == opt.refit_interval) {
      EXPECT_TRUE(pt.refit);
      EXPECT_TRUE(pt.scored);
      EXPECT_FALSE(pt.provisional);
    } else if (!pt.refit) {
      // Between refits the incremental word-frequency path scores every
      // point with a provisional value in [0, 1].
      EXPECT_TRUE(pt.scored);
      EXPECT_TRUE(pt.provisional);
      EXPECT_GE(pt.score, 0.0);
      EXPECT_LE(pt.score, 1.0);
    }
  }

  // Snapshot entries appended before the first refit were all re-scored by
  // it; no NaN remains once a refit has covered the whole buffer.
  for (const double s : detector.ScoresSnapshot()) {
    if (!std::isnan(s)) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST(StreamDetectorTest, ScoresBeforeFirstRefitAreNaNInSnapshot) {
  auto opt = SmallOptions();
  opt.refit_interval = 1000;  // never triggers in this test
  StreamDetector detector(opt);
  const auto series = TestSeries(50);
  for (const double v : series) detector.Append(v);
  const auto scores = detector.ScoresSnapshot();
  ASSERT_EQ(scores.size(), series.size());
  for (const double s : scores) EXPECT_TRUE(std::isnan(s));
}

TEST(StreamDetectorTest, RejectsNonFiniteWithoutBuffering) {
  StreamDetector detector(SmallOptions());
  detector.Append(1.0);
  const StreamPoint nan_pt =
      detector.Append(std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(nan_pt.scored);
  EXPECT_EQ(nan_pt.index, 1u);
  const StreamPoint inf_pt =
      detector.Append(std::numeric_limits<double>::infinity());
  EXPECT_FALSE(inf_pt.scored);
  EXPECT_EQ(inf_pt.index, 2u);
  EXPECT_EQ(detector.buffered(), 1u);      // only the finite point
  EXPECT_EQ(detector.total_appended(), 3u);
}

TEST(StreamDetectorTest, ForceRefitNeedsFullWindow) {
  auto opt = SmallOptions();
  opt.refit_interval = 100000;  // keep the automatic refit out of the way
  StreamDetector detector(opt);
  for (size_t i = 0; i + 1 < opt.ensemble.window_length; ++i) {
    detector.Append(static_cast<double>(i % 7));
  }
  EXPECT_EQ(detector.ForceRefit().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(detector.fitted());

  const auto series = TestSeries(opt.ensemble.window_length);
  for (const double v : series) detector.Append(v);
  EXPECT_TRUE(detector.ForceRefit().ok());
  EXPECT_TRUE(detector.fitted());
  EXPECT_EQ(detector.refit_count(), 1u);
  EXPECT_EQ(detector.appends_since_refit(), 0u);
  EXPECT_TRUE(detector.last_refit_status().ok());
}

TEST(StreamDetectorTest, DeterministicAcrossInstances) {
  const auto opt = SmallOptions();
  StreamDetector a(opt);
  StreamDetector b(opt);
  const auto series = TestSeries(300, /*seed=*/5);
  for (const double v : series) {
    const StreamPoint pa = a.Append(v);
    const StreamPoint pb = b.Append(v);
    ASSERT_EQ(pa.index, pb.index);
    ASSERT_EQ(pa.score, pb.score);
    ASSERT_EQ(pa.scored, pb.scored);
    ASSERT_EQ(pa.provisional, pb.provisional);
    ASSERT_EQ(pa.refit, pb.refit);
  }
}

TEST(StreamDetectorTest, IngestMatchesPointwiseAppend) {
  const auto opt = SmallOptions();
  StreamDetector a(opt);
  StreamDetector b(opt);
  const auto series = TestSeries(150);

  const auto batch = a.Ingest(series);
  ASSERT_EQ(batch.size(), series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    const StreamPoint pt = b.Append(series[i]);
    EXPECT_EQ(batch[i].score, pt.score);
    EXPECT_EQ(batch[i].scored, pt.scored);
    EXPECT_EQ(batch[i].refit, pt.refit);
  }
}

TEST(StreamDetectorTest, KeptMembersDriveTheProvisionalModel) {
  const auto opt = SmallOptions();
  StreamDetector detector(opt);
  const auto series = TestSeries(128);
  detector.Ingest(series);
  ASSERT_TRUE(detector.fitted());
  size_t kept = 0;
  for (const auto& m : detector.last_ensemble().members) kept += m.kept;
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, detector.last_ensemble().members.size());
}

}  // namespace
}  // namespace egi::stream

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/ensemble.h"
#include "datasets/random_walk.h"
#include "sax/sax_encoder.h"
#include "stream/detector.h"
#include "ts/stats.h"
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

// The provisional contract: between refits, a point's score is the
// detector's combine rule over the kept members in draw order. Each member
// scores the sax::DiscretizeSeries word of the newest window alone (window
// n, the member's w and a, numerosity off) by that word's position count
// over the max count in ComputeEnsembleDensity(BufferSnapshot()) taken at
// the last refit. Returns the number of provisional points checked.
size_t ExpectProvisionalContract(const StreamDetectorOptions& opt,
                                 std::span<const double> series) {
  StreamDetector detector(opt);
  const size_t n = opt.ensemble.window_length;
  core::EnsembleResult fitted;
  core::EnsembleArtifacts artifacts;
  size_t checked = 0;
  for (const double v : series) {
    const StreamPoint pt = detector.Append(v);
    if (pt.refit) {
      artifacts = {};
      auto batch = core::ComputeEnsembleDensity(detector.BufferSnapshot(),
                                                opt.ensemble, &artifacts);
      EXPECT_TRUE(batch.ok()) << batch.status().ToString();
      if (!batch.ok()) return checked;
      fitted = std::move(*batch);
      continue;
    }
    if (!pt.provisional) continue;
    const std::vector<double> buffered = detector.BufferSnapshot();
    const auto window = std::span<const double>(buffered).last(n);
    std::vector<double> member_scores;
    for (size_t m = 0; m < fitted.members.size(); ++m) {
      if (!fitted.members[m].kept) continue;
      sax::SaxParams p;
      p.window_length = n;
      p.paa_size = fitted.members[m].paa_size;
      p.alphabet_size = fitted.members[m].alphabet_size;
      p.numerosity_reduction = false;
      const auto word = sax::DiscretizeSeries(window, p);
      EXPECT_TRUE(word.ok()) << word.status().ToString();
      if (!word.ok()) return checked;
      const core::MemberWordCounts& counts = artifacts.word_counts[m];
      const int32_t id =
          counts.table.Find(word->table.CodeAt(word->seq.tokens[0]));
      member_scores.push_back(
          id < 0 || counts.max_count <= 0.0
              ? 0.0
              : counts.position_counts[static_cast<size_t>(id)] /
                    counts.max_count);
    }
    double want = 0.0;
    if (!member_scores.empty()) {
      want = opt.ensemble.combine == core::CombineRule::kMedian
                 ? ts::Median(member_scores)
                 : ts::Mean(member_scores);
    }
    EXPECT_EQ(pt.score, want) << "point " << pt.index;
    if (pt.score != want) return checked;
    ++checked;
  }
  return checked;
}

TEST(StreamDetectorTest, ProvisionalScoresFollowTheWindowAloneOnAFloatWalk) {
  auto opt = SmallOptions();
  const auto series = TestSeries(1200, /*seed=*/8);
  EXPECT_GT(ExpectProvisionalContract(opt, series), 1000u);
  opt.ensemble.combine = core::CombineRule::kMean;
  EXPECT_GT(ExpectProvisionalContract(opt, series), 1000u);
}

TEST(StreamDetectorTest, ProvisionalScoresFollowTheWindowAloneOnAnIntegerWalk) {
  // Integer steps put many PAA coefficients exactly on a breakpoint (a
  // segment mean equal to the window mean is exactly 0), where any other
  // route to the coefficient than the batch kernel can round across it.
  Rng rng(12);
  std::vector<double> series(1200);
  double x = 0.0;
  for (double& v : series) {
    x += static_cast<double>(rng.UniformInt(-1, 1));
    v = x;
  }
  auto opt = SmallOptions();
  EXPECT_GT(ExpectProvisionalContract(opt, series), 1000u);
  opt.ensemble.combine = core::CombineRule::kMean;
  EXPECT_GT(ExpectProvisionalContract(opt, series), 1000u);
}

// Slot counts and heap bytes of each model's token table, in draw order.
std::vector<std::pair<size_t, size_t>> ModelTableSizes(
    const StreamDetector& detector) {
  std::vector<std::pair<size_t, size_t>> sizes;
  for (const core::MemberWordCounts& model : detector.ModelsForTest()) {
    sizes.emplace_back(model.table.slot_count(), model.table.heap_bytes());
  }
  return sizes;
}

TEST(StreamDetectorTest, KeptModelTablesAreSizedForTheirVocabulary) {
  // A refit's tables are sized for each member's run count; every kept
  // model keeps its table with the slot count of a table grown over that
  // member's vocabulary and exactly its vocabulary's codes (8 bytes each:
  // every drawn (w, a) fits 64 bits), and so does a restore.
  const auto opt = SmallOptions();
  StreamDetector detector(opt);
  size_t refits = 0;
  size_t compacted = 0;
  for (const double v : TestSeries(640, /*seed=*/31)) {
    if (!detector.Append(v).refit) continue;
    ++refits;
    core::EnsembleArtifacts artifacts;
    ASSERT_TRUE(core::ComputeEnsembleDensity(detector.BufferSnapshot(),
                                             opt.ensemble, &artifacts)
                    .ok());
    std::vector<std::pair<size_t, size_t>> want;
    for (size_t m = 0; m < artifacts.word_counts.size(); ++m) {
      if (!detector.last_ensemble().members[m].kept) continue;
      const sax::TokenTable& refit_table = artifacts.word_counts[m].table;
      sax::TokenTable grown(refit_table.codec());
      for (int32_t id = 0; id < static_cast<int32_t>(refit_table.size());
           ++id) {
        grown.Intern(refit_table.CodeAt(id));
      }
      want.emplace_back(grown.slot_count(),
                        8 * grown.size() + 4 * grown.slot_count());
      compacted += grown.slot_count() < refit_table.slot_count();
    }
    EXPECT_EQ(ModelTableSizes(detector), want);
    const auto restored = StreamDetector::Deserialize(detector.Serialize());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(ModelTableSizes(*restored), want);
  }
  EXPECT_GE(refits, 5u);
  EXPECT_GT(compacted, 0u);  // run-sized refit tables do get smaller
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

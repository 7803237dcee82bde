// Façade-vs-direct equality: everything the public Session front door
// returns must be bitwise-identical to driving the internal layers
// directly — batch density curves, detections, streaming scores, and
// checkpoint blobs — at 1 and 4 threads (the acceptance bar of the
// public-API redesign).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "core/ensemble.h"
#include "core/gi.h"
#include "datasets/planted.h"
#include "egi/egi.h"
#include "serialize/format.h"
#include "stream/detector.h"
#include "util/rng.h"

namespace egi {
namespace {

constexpr size_t kWindow = 82;

const std::vector<double>& TestSeries() {
  static const std::vector<double> series = [] {
    Rng rng(7);
    return datasets::MakePlantedSeries(data::Family::kTwoLeadEcg, rng)
        .values;
  }();
  return series;
}

// Bitwise double equality (NaN patterns included).
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectSameCurve(const std::vector<double>& facade,
                     const std::vector<double>& direct) {
  ASSERT_EQ(facade.size(), direct.size());
  for (size_t i = 0; i < facade.size(); ++i) {
    ASSERT_TRUE(SameBits(facade[i], direct[i])) << "index " << i;
  }
}

core::EnsembleParams DirectEnsembleParams(int threads) {
  core::EnsembleParams p;
  p.wmax = 10;
  p.amax = 10;
  p.ensemble_size = 10;
  p.selectivity = 0.4;
  p.seed = 42;
  p.parallelism = exec::Parallelism::Fixed(threads);
  return p;
}

std::string EnsembleSpec(int threads) {
  return "ensemble:wmax=10,amax=10,n=10,tau=0.4,seed=42,threads=" +
         std::to_string(threads);
}

class FacadeEquivalenceTest : public ::testing::TestWithParam<int> {};

// ------------------------------------------------------------------- batch

TEST_P(FacadeEquivalenceTest, BatchDensityMatchesDirect) {
  const int threads = GetParam();
  auto session = Session::Open(EnsembleSpec(threads));
  ASSERT_TRUE(session.ok());
  auto facade = session->Score(TestSeries(), kWindow);
  ASSERT_TRUE(facade.ok());

  core::EnsembleParams p = DirectEnsembleParams(threads);
  p.window_length = kWindow;
  auto direct = core::ComputeEnsembleDensity(TestSeries(), p);
  ASSERT_TRUE(direct.ok());
  ExpectSameCurve(*facade, direct->density);
}

TEST_P(FacadeEquivalenceTest, DetectMatchesDirect) {
  const int threads = GetParam();
  auto session = Session::Open(EnsembleSpec(threads));
  ASSERT_TRUE(session.ok());
  auto facade = session->Detect(TestSeries(), kWindow, 3);
  ASSERT_TRUE(facade.ok());

  core::EnsembleGiDetector detector(DirectEnsembleParams(threads));
  auto direct = detector.Detect(TestSeries(), kWindow, 3);
  ASSERT_TRUE(direct.ok());

  ASSERT_EQ(facade->size(), direct->size());
  for (size_t i = 0; i < facade->size(); ++i) {
    EXPECT_EQ((*facade)[i].position, (*direct)[i].position);
    EXPECT_EQ((*facade)[i].length, (*direct)[i].length);
    EXPECT_TRUE(SameBits((*facade)[i].severity, (*direct)[i].severity));
    EXPECT_EQ((*facade)[i].run_length, (*direct)[i].run_length);
  }
}

// Session::Score returns the curve the built detector's Detect ranks from;
// each scoring method's curve equals the direct core computation.
TEST(FacadeTest, ScoreMatchesDirect) {
  const auto& series = TestSeries();
  using Curve = Result<std::vector<double>>;
  const auto induce = [&](const core::GiParams& p) -> Curve {
    EGI_ASSIGN_OR_RETURN(auto run, core::RunGrammarInduction(series, p));
    return std::move(run.density);
  };
  const struct {
    std::string spec;
    std::function<Curve()> direct;
  } cases[] = {
      {EnsembleSpec(1),
       [&]() -> Curve {
         core::EnsembleParams p = DirectEnsembleParams(1);
         p.window_length = kWindow;
         EGI_ASSIGN_OR_RETURN(auto result,
                              core::ComputeEnsembleDensity(series, p));
         return std::move(result.density);
       }},
      {"gi-fix:w=5,a=4",
       [&] {
         core::GiParams p;
         p.window_length = kWindow;
         p.paa_size = 5;
         p.alphabet_size = 4;
         return induce(p);
       }},
      {"gi-select",
       [&]() -> Curve {
         EGI_ASSIGN_OR_RETURN(
             const auto p, core::SelectGiDetector().SelectParams(series, kWindow));
         return induce(p);
       }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.spec);
    auto session = Session::Open(c.spec);
    ASSERT_TRUE(session.ok()) << session.status();
    EXPECT_TRUE(session->info().supports_score);
    auto facade = session->Score(series, kWindow);
    ASSERT_TRUE(facade.ok()) << facade.status();
    auto direct = c.direct();
    ASSERT_TRUE(direct.ok()) << direct.status();
    ExpectSameCurve(*facade, *direct);
  }
}

// --------------------------------------------------------------- streaming

stream::StreamDetectorOptions DirectStreamOptions(int threads) {
  stream::StreamDetectorOptions options;
  options.ensemble = DirectEnsembleParams(threads);
  options.ensemble.window_length = kWindow;
  options.buffer_capacity = 512;
  options.refit_interval = 128;
  return options;
}

StreamOptions FacadeStreamOptions() {
  StreamOptions options;
  options.window_length = kWindow;
  options.buffer_capacity = 512;
  options.refit_interval = 128;
  return options;
}

void ExpectSamePoint(const StreamPoint& facade, const StreamPoint& direct) {
  ASSERT_EQ(facade.index, direct.index);
  ASSERT_TRUE(SameBits(facade.value, direct.value));
  ASSERT_TRUE(SameBits(facade.score, direct.score)) << "index " << facade.index;
  ASSERT_EQ(facade.scored, direct.scored);
  ASSERT_EQ(facade.provisional, direct.provisional);
  ASSERT_EQ(facade.refit, direct.refit);
}

TEST_P(FacadeEquivalenceTest, StreamingScoresMatchDirect) {
  const int threads = GetParam();
  auto session = Session::Open(EnsembleSpec(threads));
  ASSERT_TRUE(session.ok());
  auto facade = session->OpenStream(FacadeStreamOptions());
  ASSERT_TRUE(facade.ok());

  stream::StreamDetector direct(DirectStreamOptions(threads));
  for (const double v : TestSeries()) {
    ExpectSamePoint(facade->Append(v), direct.Append(v));
  }
  EXPECT_EQ(facade->refit_count(), direct.refit_count());
  ExpectSameCurve(facade->ScoresSnapshot(), direct.ScoresSnapshot());
  ExpectSameCurve(facade->BufferSnapshot(), direct.BufferSnapshot());
}

TEST_P(FacadeEquivalenceTest, CheckpointRoundTripMatchesDirect) {
  const int threads = GetParam();
  const auto& series = TestSeries();
  const size_t half = series.size() / 2;

  auto session = Session::Open(EnsembleSpec(threads));
  ASSERT_TRUE(session.ok());
  auto facade = session->OpenStream(FacadeStreamOptions());
  ASSERT_TRUE(facade.ok());
  stream::StreamDetector direct(DirectStreamOptions(threads));
  for (size_t i = 0; i < half; ++i) {
    facade->Append(series[i]);
    direct.Append(series[i]);
  }

  // Same state -> byte-identical checkpoint blobs.
  const std::vector<uint8_t> facade_blob = facade->Checkpoint();
  const std::vector<uint8_t> direct_blob = direct.Serialize();
  ASSERT_EQ(facade_blob, direct_blob);

  // Restored façade stream continues bitwise-identically to the restored
  // direct detector (and to the uninterrupted runs, by transitivity with
  // the PR 4 continuation tests).
  auto restored = StreamSession::Restore(facade_blob);
  ASSERT_TRUE(restored.ok());
  auto direct_restored = stream::StreamDetector::Deserialize(direct_blob);
  ASSERT_TRUE(direct_restored.ok());
  for (size_t i = half; i < series.size(); ++i) {
    ExpectSamePoint(restored->Append(series[i]),
                    direct_restored->Append(series[i]));
  }
  // Re-checkpointing both continuations agrees too.
  EXPECT_EQ(restored->Checkpoint(), direct_restored->Serialize());
}

// The hub against one StreamDetector per stream, driven directly.
TEST_P(FacadeEquivalenceTest, HubMatchesEngine) {
  const int threads = GetParam();
  const auto& series = TestSeries();
  const auto feed = std::span<const double>(series).first(series.size() / 2);

  auto session = Session::Open(EnsembleSpec(threads));
  ASSERT_TRUE(session.ok());
  auto hub = session->OpenHub(FacadeStreamOptions());
  ASSERT_TRUE(hub.ok());

  std::vector<stream::StreamDetector> direct;
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(hub->AddStream(), s);
    direct.emplace_back(DirectStreamOptions(threads));
    hub->Ingest(s, feed);
    direct[s].Ingest(feed);
  }
  EXPECT_EQ(hub->num_streams(), direct.size());

  // The hub blob frames exactly the detectors' own snapshots.
  std::vector<std::vector<uint8_t>> sections;
  for (const auto& d : direct) sections.push_back(d.Serialize());
  EXPECT_EQ(hub->Checkpoint(), serialize::WrapEngineSections(sections));

  // Per-stream continuation through the hub matches the detectors.
  const auto rest = std::span<const double>(series).subspan(series.size() / 2);
  for (size_t s = 0; s < 3; ++s) {
    const auto facade_points = hub->Ingest(s, rest);
    const auto direct_points = direct[s].Ingest(rest);
    ASSERT_EQ(facade_points.size(), direct_points.size());
    for (size_t i = 0; i < facade_points.size(); ++i) {
      ExpectSamePoint(facade_points[i], direct_points[i]);
    }
  }
}

TEST(FacadeTest, HubRestoreRoundTrips) {
  auto session = Session::Open(EnsembleSpec(1));
  ASSERT_TRUE(session.ok());
  auto hub = session->OpenHub(FacadeStreamOptions());
  ASSERT_TRUE(hub.ok());
  hub->AddStream();
  hub->AddStream();
  const auto feed =
      std::span<const double>(TestSeries()).first(TestSeries().size() / 2);
  hub->Ingest(0, feed);
  hub->Ingest(1, feed);

  const auto blob = hub->Checkpoint();
  auto standby = session->OpenHub(FacadeStreamOptions());
  ASSERT_TRUE(standby.ok());
  ASSERT_TRUE(standby->Restore(blob).ok());
  EXPECT_EQ(standby->num_streams(), 2u);
  EXPECT_EQ(standby->Checkpoint(), blob);

  // Corruption is a clean Status error and leaves the hub untouched.
  auto corrupted = blob;
  corrupted[corrupted.size() / 2] ^= 0x01;
  EXPECT_FALSE(standby->Restore(corrupted).ok());
  EXPECT_EQ(standby->num_streams(), 2u);
}

TEST(FacadeTest, HubRecentScoresIsTheTailOfTheScoreBuffer) {
  auto session = Session::Open(EnsembleSpec(1));
  ASSERT_TRUE(session.ok());
  auto hub = session->OpenHub(FacadeStreamOptions());
  ASSERT_TRUE(hub.ok());
  hub->AddStream();
  hub->AddStream();
  // Stream 0 wraps its 512-point ring and has refit; stream 1 holds fewer
  // points than its first refit needs, so every score is still NaN.
  hub->Ingest(0, std::span<const double>(TestSeries()).first(700));
  hub->Ingest(1, std::span<const double>(TestSeries()).first(100));

  auto session_stream = session->OpenStream(FacadeStreamOptions());
  ASSERT_TRUE(session_stream.ok());
  session_stream->Ingest(std::span<const double>(TestSeries()).first(700));
  const std::vector<double> all = session_stream->ScoresSnapshot();
  ASSERT_EQ(all.size(), 512u);
  for (const size_t k : {size_t{0}, size_t{1}, size_t{37}, size_t{512},
                         size_t{513}, size_t{100000}}) {
    const size_t n = std::min(k, all.size());
    const std::vector<double> tail(all.end() - static_cast<ptrdiff_t>(n),
                                   all.end());
    ExpectSameCurve(hub->RecentScores(0, k), tail);
    ExpectSameCurve(session_stream->RecentScores(k), tail);
  }

  EXPECT_EQ(hub->Stats(1).refit_count, 0u);
  for (const size_t k : {size_t{5}, size_t{100}, size_t{101}}) {
    const std::vector<double> tail = hub->RecentScores(1, k);
    EXPECT_EQ(tail.size(), std::min<size_t>(k, 100));
    for (const double s : tail) EXPECT_TRUE(std::isnan(s));
  }
}

// Single-stream ingest returns one scored point per value and advances the
// stream's counters.
TEST(StreamHubTest, SingleStreamIngestReturnsScores) {
  auto session = Session::Open(EnsembleSpec(1));
  ASSERT_TRUE(session.ok());
  auto hub = session->OpenHub(FacadeStreamOptions());
  ASSERT_TRUE(hub.ok());
  const size_t id = hub->AddStream();
  const auto feed = std::span<const double>(TestSeries()).first(300);
  const auto scored = hub->Ingest(id, feed);
  ASSERT_EQ(scored.size(), feed.size());
  EXPECT_EQ(scored.back().index, feed.size() - 1);
  EXPECT_EQ(hub->Stats(id).total_appended, feed.size());
  EXPECT_TRUE(hub->Stats(id).fitted);
}

// A per-stream checkpoint (the unit of shard migration) is byte-identical
// to that stream's section of a whole-hub checkpoint: one format, two
// granularities.
TEST(StreamHubTest, CheckpointStreamMatchesEngineBlobSection) {
  auto session = Session::Open(EnsembleSpec(1));
  ASSERT_TRUE(session.ok());
  auto hub = session->OpenHub(FacadeStreamOptions());
  ASSERT_TRUE(hub.ok());
  for (size_t s = 0; s < 3; ++s) {
    hub->AddStream();
    hub->Ingest(s, std::span<const double>(TestSeries()).first(150 + 70 * s));
  }

  const auto blob = hub->Checkpoint();
  std::vector<std::span<const uint8_t>> sections;
  ASSERT_TRUE(serialize::UnwrapEngineSections(blob, &sections).ok());
  ASSERT_EQ(sections.size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    auto standalone = hub->CheckpointStream(s);
    ASSERT_TRUE(standalone.ok()) << standalone.status();
    EXPECT_TRUE(std::ranges::equal(sections[s], *standalone)) << "stream " << s;
  }
  EXPECT_FALSE(hub->CheckpointStream(99).ok());
}

// A stream moved to another hub via CheckpointStream/RestoreStream
// continues scoring bitwise-identically to the one it was copied from.
TEST(StreamHubTest, RestoreStreamContinuesBitwiseIdentically) {
  auto session = Session::Open(EnsembleSpec(1));
  ASSERT_TRUE(session.ok());
  const auto& series = TestSeries();
  const auto first = std::span<const double>(series).first(series.size() / 3);
  const auto rest = std::span<const double>(series).subspan(first.size());

  auto source = session->OpenHub(FacadeStreamOptions());
  ASSERT_TRUE(source.ok());
  source->AddStream();
  source->Ingest(0, first);
  auto blob = source->CheckpointStream(0);
  ASSERT_TRUE(blob.ok()) << blob.status();

  auto target = session->OpenHub(FacadeStreamOptions());
  ASSERT_TRUE(target.ok());
  target->AddStream();
  ASSERT_TRUE(target->RestoreStream(0, *blob).ok());
  EXPECT_EQ(target->Stats(0).total_appended, first.size());

  const auto expected = source->Ingest(0, rest);
  const auto migrated = target->Ingest(0, rest);
  ASSERT_EQ(expected.size(), migrated.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(SameBits(expected[i].score, migrated[i].score)) << i;
    ASSERT_EQ(expected[i].refit, migrated[i].refit);
  }
  EXPECT_FALSE(target->RestoreStream(7, *blob).ok());  // bounds-checked
}

// ------------------------------------------------------------- capabilities

TEST(FacadeTest, CapabilitiesAreEnforced) {
  const auto& series = TestSeries();
  for (const char* method : {"discord", "gi-random"}) {
    auto session = Session::Open(method);
    ASSERT_TRUE(session.ok()) << method;
    EXPECT_FALSE(session->info().supports_score) << method;
    const auto score = session->Score(series, kWindow);
    ASSERT_FALSE(score.ok()) << method;
    EXPECT_EQ(score.status().code(), StatusCode::kFailedPrecondition);
  }
  for (const char* method : {"discord", "gi-fix", "gi-random", "gi-select"}) {
    auto session = Session::Open(method);
    ASSERT_TRUE(session.ok()) << method;
    EXPECT_FALSE(session->info().supports_streaming) << method;
    const auto stream = session->OpenStream(FacadeStreamOptions());
    ASSERT_FALSE(stream.ok()) << method;
    EXPECT_EQ(stream.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_FALSE(session->OpenHub(FacadeStreamOptions()).ok()) << method;
  }
  // Invalid stream shapes surface the detector's Status validation.
  auto session = Session::Open("ensemble");
  ASSERT_TRUE(session.ok());
  StreamOptions bad;
  bad.window_length = 0;
  EXPECT_FALSE(session->OpenStream(bad).ok());
  bad = FacadeStreamOptions();
  bad.buffer_capacity = 10;  // < window_length
  EXPECT_FALSE(session->OpenStream(bad).ok());
}

// Every registered detector Detects through the façade on real data.
TEST(FacadeTest, EveryRegisteredDetectorDetects) {
  Rng rng(11);
  const auto data =
      datasets::MakePlantedSeries(data::Family::kWafer, rng);
  for (const auto& info : ListDetectors()) {
    auto session = Session::Open(info.name);
    ASSERT_TRUE(session.ok()) << info.name;
    auto result = session->Detect(data.values, 150, 3);
    ASSERT_TRUE(result.ok()) << info.name;
    EXPECT_FALSE(result->empty()) << info.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, FacadeEquivalenceTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace egi

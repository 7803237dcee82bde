// Tests for the adaptive self-pruning features: two-stage top-k member
// selection (EnsembleParams::prune_to) and the drift-gated refit cadence
// (StreamDetectorOptions::refit_policy). Both are opt-in; when disabled the
// classic paths run unchanged, and when enabled every output stays
// deterministic at every thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "core/ensemble.h"
#include "egi/session.h"
#include "stream/detector.h"
#include "util/rng.h"

namespace egi::core {
namespace {

std::vector<double> NoisySine(size_t len, uint64_t seed,
                              double noise = 0.1) {
  Rng rng(seed);
  std::vector<double> v(len);
  for (size_t i = 0; i < len; ++i) {
    v[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / 50.0) +
           noise * rng.Gaussian();
  }
  return v;
}

// ------------------------------------------------- DrawParameterSample pins
//
// The capped branch (count >= grid size) used to build the full index range
// through SampleWithoutReplacement; it now shuffles the grid in place. The
// sequences below were captured from the original implementation — the pin
// proves the short-circuit consumes the RNG identically and permutes the
// grid identically, so historical seeds keep their draws.

using Pair = std::pair<int, int>;

std::vector<Pair> Drawn(int wmax, int amax, int count, uint64_t seed) {
  std::vector<Pair> out;
  for (const auto& p : DrawParameterSample(wmax, amax, count, seed)) {
    out.emplace_back(p.paa_size, p.alphabet_size);
  }
  return out;
}

TEST(DrawParameterSamplePinTest, CappedDrawMatchesPreShortCircuitSequence) {
  EXPECT_EQ(Drawn(3, 3, 50, 1),
            (std::vector<Pair>{{2, 3}, {3, 2}, {2, 2}, {3, 3}}));
  EXPECT_EQ(Drawn(5, 5, 30, 11),
            (std::vector<Pair>{{5, 5},
                               {3, 5},
                               {4, 5},
                               {4, 3},
                               {4, 4},
                               {2, 5},
                               {5, 3},
                               {2, 3},
                               {3, 3},
                               {4, 2},
                               {3, 4},
                               {2, 2},
                               {3, 2},
                               {5, 4},
                               {5, 2},
                               {2, 4}}));
}

TEST(DrawParameterSamplePinTest, ExactDrawMatchesPinnedSequence) {
  // count < grid size: the untouched SampleWithoutReplacement branch.
  EXPECT_EQ(Drawn(4, 4, 9, 7), (std::vector<Pair>{{3, 2},
                                                  {2, 2},
                                                  {2, 3},
                                                  {4, 3},
                                                  {4, 4},
                                                  {4, 2},
                                                  {2, 4},
                                                  {3, 4},
                                                  {3, 3}}));
}

TEST(DrawParameterSamplePinTest, CountEqualToGridSizeTakesCappedBranch) {
  // count == grid size and count > grid size must agree: both return the
  // whole grid in the same shuffled order.
  EXPECT_EQ(Drawn(4, 4, 9, 123), Drawn(4, 4, 1000, 123));
}

// ------------------------------------------------------ pruned construction

EnsembleParams PrunedBase(uint64_t ensemble_seed) {
  EnsembleParams p;
  p.window_length = 50;
  p.wmax = 8;
  p.amax = 8;
  p.ensemble_size = 20;
  p.seed = ensemble_seed;
  p.parallelism = exec::Parallelism::Serial();
  return p;
}

TEST(PrunedEnsembleTest, SurvivorStdsMatchTheFullRunBitwise) {
  // Whatever the screening pass picks, induction of a survivor is the same
  // computation as in the full run — stds must agree bit for bit, members
  // aligned 1:1 with the draw. Screened-out members report std 0/not kept.
  for (const uint64_t seed : {7u, 11u, 42u, 99u}) {
    const auto series = NoisySine(600, seed);
    EnsembleParams full = PrunedBase(1234 + seed);
    EnsembleParams pruned = full;
    pruned.prune_to = 12;

    const auto rf = ComputeEnsembleDensity(series, full);
    const auto rp = ComputeEnsembleDensity(series, pruned);
    ASSERT_TRUE(rf.ok()) << rf.status().ToString();
    ASSERT_TRUE(rp.ok()) << rp.status().ToString();
    ASSERT_EQ(rf->members.size(), rp->members.size());

    size_t built = 0, full_kept = 0, pruned_kept = 0;
    for (size_t i = 0; i < rp->members.size(); ++i) {
      const auto& mp = rp->members[i];
      EXPECT_EQ(mp.paa_size, rf->members[i].paa_size);
      EXPECT_EQ(mp.alphabet_size, rf->members[i].alphabet_size);
      if (mp.std_dev != 0.0) {
        ++built;
        EXPECT_EQ(mp.std_dev, rf->members[i].std_dev) << "member " << i;
      } else {
        EXPECT_FALSE(mp.kept);
      }
      full_kept += rf->members[i].kept ? 1 : 0;
      pruned_kept += mp.kept ? 1 : 0;
    }
    EXPECT_EQ(built, 12u);
    // Both paths keep round(tau * N) over the same population size.
    EXPECT_EQ(pruned_kept, full_kept);
  }
}

TEST(PrunedEnsembleTest, CompleteScreeningCoverageReproducesFullCurve) {
  // On this seeded series the screening top-12 contains every member the
  // std filter keeps (verified property of the fixture, not a coincidence
  // of doubles): the pruned run then keeps exactly the full run's members
  // and the combined curve is bitwise-identical.
  const auto series = NoisySine(600, 7);
  EnsembleParams full = PrunedBase(1241);
  EnsembleParams pruned = full;
  pruned.prune_to = 12;

  const auto rf = ComputeEnsembleDensity(series, full);
  const auto rp = ComputeEnsembleDensity(series, pruned);
  ASSERT_TRUE(rf.ok()) << rf.status().ToString();
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();

  std::set<Pair> full_kept, pruned_kept;
  for (const auto& m : rf->members) {
    if (m.kept) full_kept.emplace(m.paa_size, m.alphabet_size);
  }
  for (const auto& m : rp->members) {
    if (m.kept) pruned_kept.emplace(m.paa_size, m.alphabet_size);
  }
  ASSERT_EQ(pruned_kept, full_kept);

  ASSERT_EQ(rp->density.size(), rf->density.size());
  for (size_t i = 0; i < rf->density.size(); ++i) {
    ASSERT_EQ(rp->density[i], rf->density[i]) << "at point " << i;
  }
}

TEST(PrunedEnsembleTest, DeterministicAcrossThreadCounts) {
  const auto series = NoisySine(600, 42);
  EnsembleParams serial = PrunedBase(77);
  serial.prune_to = 10;
  EnsembleParams threaded = serial;
  threaded.parallelism = exec::Parallelism::Fixed(4);

  const auto rs = ComputeEnsembleDensity(series, serial);
  const auto rt = ComputeEnsembleDensity(series, threaded);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  ASSERT_EQ(rs->density.size(), rt->density.size());
  for (size_t i = 0; i < rs->density.size(); ++i) {
    ASSERT_EQ(rs->density[i], rt->density[i]) << "at point " << i;
  }
  ASSERT_EQ(rs->members.size(), rt->members.size());
  for (size_t i = 0; i < rs->members.size(); ++i) {
    EXPECT_EQ(rs->members[i].std_dev, rt->members[i].std_dev);
    EXPECT_EQ(rs->members[i].kept, rt->members[i].kept);
  }
}

TEST(PrunedEnsembleTest, PruneToLargerThanSampleTakesTheFullPath) {
  const auto series = NoisySine(400, 3);
  EnsembleParams off = PrunedBase(9);
  EnsembleParams big = off;
  big.prune_to = 1000;  // >= the 20-member draw: nothing to prune

  const auto r0 = ComputeEnsembleDensity(series, off);
  const auto r1 = ComputeEnsembleDensity(series, big);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r0->density, r1->density);
  for (size_t i = 0; i < r0->members.size(); ++i) {
    EXPECT_EQ(r0->members[i].std_dev, r1->members[i].std_dev);
    EXPECT_EQ(r0->members[i].kept, r1->members[i].kept);
  }
}

TEST(PrunedEnsembleTest, FilterOffCombinesEverySurvivor) {
  // With the std filter off a pruned run keeps all of its survivors and
  // combines them in screening order. The median does not depend on row
  // order, so the same members' curves from the unpruned member builder,
  // combined in draw order, must give the same bits.
  const auto series = NoisySine(600, 42);
  EnsembleParams p = PrunedBase(77);
  p.prune_to = 8;
  p.filter_by_std = false;
  p.combine = CombineRule::kMedian;

  const auto pruned = ComputeEnsembleDensity(series, p);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  const auto curves = ComputeMemberDensityCurves(series, p);
  ASSERT_TRUE(curves.ok()) << curves.status().ToString();
  ASSERT_EQ(curves->size(), pruned->members.size());

  std::vector<std::vector<double>> survivors;
  for (size_t i = 0; i < pruned->members.size(); ++i) {
    if (pruned->members[i].kept) survivors.push_back((*curves)[i]);
  }
  ASSERT_EQ(survivors.size(), 8u);

  CombineSpec spec;
  spec.filter_by_std = false;
  spec.combine = CombineRule::kMedian;
  EXPECT_EQ(CombineMemberCurves(survivors, spec), pruned->density);
}

TEST(PrunedEnsembleTest, NegativePruneToIsRejected) {
  const auto series = NoisySine(400, 3);
  EnsembleParams p = PrunedBase(9);
  p.prune_to = -1;
  const auto r = ComputeEnsembleDensity(series, p);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace egi::core

namespace egi::stream {
namespace {

std::vector<double> StationarySine(size_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(len);
  for (size_t i = 0; i < len; ++i) {
    v[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / 50.0) +
           0.1 * rng.Gaussian();
  }
  return v;
}

StreamDetectorOptions AdaptiveOptions() {
  StreamDetectorOptions opt;
  opt.ensemble.window_length = 40;
  opt.ensemble.wmax = 6;
  opt.ensemble.amax = 6;
  opt.ensemble.ensemble_size = 12;
  opt.ensemble.seed = 42;
  opt.ensemble.parallelism = exec::Parallelism::Serial();
  opt.buffer_capacity = 256;
  opt.refit_interval = 64;
  opt.refit_policy = RefitPolicy::kAdaptive;
  return opt;
}

TEST(AdaptiveRefitTest, StationaryStreamStretchesTheCadence) {
  const auto series = StationarySine(4096, 2020);

  auto fixed_opt = AdaptiveOptions();
  fixed_opt.refit_policy = RefitPolicy::kFixed;
  StreamDetector fixed(fixed_opt);
  StreamDetector adaptive(AdaptiveOptions());

  for (const double v : series) {
    fixed.Append(v);
    const StreamPoint pt = adaptive.Append(v);
    if (pt.scored) {
      EXPECT_TRUE(std::isfinite(pt.score));
      EXPECT_GE(pt.score, 0.0);
      EXPECT_LE(pt.score, 1.0);
    }
  }

  // The acceptance criterion: on a stationary stream the drift gate cuts
  // the refit count by at least 3x (steady state refits every
  // 8 * refit_interval appends).
  EXPECT_GE(fixed.refit_count(), 3 * adaptive.refit_count())
      << "fixed=" << fixed.refit_count()
      << " adaptive=" << adaptive.refit_count();
  EXPECT_GT(adaptive.refit_count(), 0u);
  EXPECT_GT(adaptive.effective_refit_interval(), 64u);
}

TEST(AdaptiveRefitTest, FixedPolicyKeepsTheClassicCadence) {
  auto opt = AdaptiveOptions();
  opt.refit_policy = RefitPolicy::kFixed;
  StreamDetector detector(opt);
  const auto series = StationarySine(1024, 5);
  for (const double v : series) detector.Append(v);
  EXPECT_EQ(detector.refit_count(), 1024u / 64u);
  EXPECT_EQ(detector.effective_refit_interval(), 64u);
}

TEST(AdaptiveRefitTest, DeterministicAcrossThreadCounts) {
  const auto series = StationarySine(2048, 99);

  auto serial_opt = AdaptiveOptions();
  auto threaded_opt = AdaptiveOptions();
  threaded_opt.ensemble.parallelism = exec::Parallelism::Fixed(4);

  StreamDetector a(serial_opt);
  StreamDetector b(threaded_opt);
  for (const double v : series) {
    const StreamPoint pa = a.Append(v);
    const StreamPoint pb = b.Append(v);
    ASSERT_EQ(pa.score, pb.score) << "at index " << pa.index;
    ASSERT_EQ(pa.scored, pb.scored);
    ASSERT_EQ(pa.provisional, pb.provisional);
    ASSERT_EQ(pa.refit, pb.refit);
  }
  EXPECT_EQ(a.refit_count(), b.refit_count());
  EXPECT_EQ(a.effective_refit_interval(), b.effective_refit_interval());
}

TEST(AdaptiveRefitTest, DriftSnapsTheCadenceBackToTheFloor) {
  auto opt = AdaptiveOptions();
  // A band wide enough that stationary block-mean wobble never leaves it;
  // the regime change below moves the block mean by far more.
  opt.drift_tolerance = 0.5;
  StreamDetector detector(opt);

  // Stationary phase: stretch the cadence well past the floor.
  const auto calm = StationarySine(1200, 8);
  for (const double v : calm) detector.Append(v);
  ASSERT_GT(detector.effective_refit_interval(), 64u);
  const uint64_t calm_refits = detector.refit_count();

  // Regime change: a level shift the provisional distribution cannot miss.
  Rng rng(9);
  bool early_refit = false;
  for (size_t i = 0; i < 512; ++i) {
    const double v = 4.0 +
                     std::sin(2.0 * M_PI * static_cast<double>(i) / 13.0) +
                     0.1 * rng.Gaussian();
    const StreamPoint pt = detector.Append(v);
    if (pt.refit && detector.effective_refit_interval() == 64u) {
      early_refit = true;
      break;
    }
  }
  EXPECT_TRUE(early_refit)
      << "drift did not snap the cadence back (refits went " << calm_refits
      << " -> " << detector.refit_count() << ", effective interval "
      << detector.effective_refit_interval() << ")";
}

TEST(AdaptiveRefitTest, SnapshotRoundTripContinuesBitwiseIdentically) {
  auto opt = AdaptiveOptions();
  opt.ensemble.prune_to = 8;
  StreamDetector original(opt);

  const auto series = StationarySine(800, 31);
  for (size_t i = 0; i < 500; ++i) original.Append(series[i]);

  const auto blob = original.Serialize();
  auto restored = StreamDetector::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(restored->options().refit_policy, RefitPolicy::kAdaptive);
  EXPECT_EQ(restored->options().ensemble.prune_to, 8);
  EXPECT_EQ(restored->effective_refit_interval(),
            original.effective_refit_interval());

  for (size_t i = 500; i < series.size(); ++i) {
    const StreamPoint pa = original.Append(series[i]);
    const StreamPoint pb = restored->Append(series[i]);
    ASSERT_EQ(pa.score, pb.score) << "at index " << pa.index;
    ASSERT_EQ(pa.refit, pb.refit);
  }
  EXPECT_EQ(original.refit_count(), restored->refit_count());
  EXPECT_EQ(original.effective_refit_interval(),
            restored->effective_refit_interval());
}

TEST(AdaptiveRefitTest, OptionValidation) {
  auto opt = AdaptiveOptions();
  opt.refit_interval_max = 16;  // < refit_interval
  EXPECT_FALSE(StreamDetector::ValidateOptions(opt).ok());

  opt = AdaptiveOptions();
  opt.drift_tolerance = 0.0;
  EXPECT_FALSE(StreamDetector::ValidateOptions(opt).ok());

  opt = AdaptiveOptions();
  opt.drift_tolerance = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(StreamDetector::ValidateOptions(opt).ok());

  // Under the fixed policy the drift knobs are ignored, not validated.
  opt = AdaptiveOptions();
  opt.refit_policy = RefitPolicy::kFixed;
  opt.drift_tolerance = 0.0;
  EXPECT_TRUE(StreamDetector::ValidateOptions(opt).ok());

  opt = AdaptiveOptions();
  opt.refit_interval_max = 640;
  EXPECT_TRUE(StreamDetector::ValidateOptions(opt).ok());
}

}  // namespace
}  // namespace egi::stream

namespace egi {
namespace {

std::vector<double> FacadeSine(size_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(len);
  for (size_t i = 0; i < len; ++i) {
    v[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / 50.0) +
           0.1 * rng.Gaussian();
  }
  return v;
}

TEST(AdaptiveFacadeTest, PruneToRoundTripsThroughTheSpec) {
  auto session = Session::Open("ensemble:wmax=6,amax=6,n=12,prune_to=8");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_NE(session->spec().find("prune_to=8"), std::string::npos);

  EXPECT_FALSE(Session::Open("ensemble:prune_to=-1").ok());
  EXPECT_FALSE(Session::Open("ensemble:prune_to=nope").ok());
}

TEST(AdaptiveFacadeTest, AdaptiveStreamCheckpointContinuesIdentically) {
  auto session =
      Session::Open("ensemble:wmax=6,amax=6,n=12,prune_to=8,threads=1");
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  StreamOptions options;
  options.window_length = 40;
  options.buffer_capacity = 256;
  options.refit_interval = 64;
  options.refit_policy = RefitPolicy::kAdaptive;
  options.drift_tolerance = 0.25;
  auto stream = session->OpenStream(options);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();

  const auto series = FacadeSine(400, 17);
  stream->Ingest(std::span<const double>(series.data(), 300));

  const auto blob = stream->Checkpoint();
  auto restored = StreamSession::Restore(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  const std::span<const double> tail(series.data() + 300, 100);
  const auto a = stream->Ingest(tail);
  const auto b = restored->Ingest(tail);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].score, b[i].score) << "at tail point " << i;
    ASSERT_EQ(a[i].refit, b[i].refit);
  }
}

TEST(AdaptiveFacadeTest, BadAdaptiveStreamOptionsAreRejected) {
  auto session = Session::Open("ensemble:wmax=6,amax=6,n=12");
  ASSERT_TRUE(session.ok());

  StreamOptions options;
  options.window_length = 40;
  options.refit_interval = 64;
  options.refit_policy = RefitPolicy::kAdaptive;
  options.drift_tolerance = -1.0;
  EXPECT_FALSE(session->OpenStream(options).ok());

  options.drift_tolerance = 0.25;
  options.refit_interval_max = 2;  // < refit_interval
  EXPECT_FALSE(session->OpenStream(options).ok());
}

}  // namespace
}  // namespace egi

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/ensemble.h"
#include "datasets/random_walk.h"
#include "discord/hotsax.h"
#include "discord/matrix_profile.h"
#include "egi/telemetry.h"
#include "eval/experiment.h"
#include "exec/parallel.h"
#include "stream/detector.h"
#include "util/rng.h"

// The execution engine's central promise (DESIGN.md, "Concurrency model"):
// chunk boundaries depend only on the input, every chunk writes disjoint
// output, so results are BITWISE-identical at 1 thread and at T threads —
// and across repeated runs at the same seed. These tests assert exact
// equality on doubles on purpose; EXPECT_NEAR would hide a broken guarantee.

namespace egi {
namespace {

std::vector<double> NoisySine(size_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(len);
  for (size_t i = 0; i < len; ++i) {
    v[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / 60.0) +
           0.15 * rng.Gaussian();
  }
  // A short planted deviation so detectors have something to find.
  for (size_t i = len / 2; i < len / 2 + 40 && i < len; ++i) {
    v[i] += 1.5;
  }
  return v;
}

// ---------------------------------------------------------------- ensemble

core::EnsembleParams EnsembleCase(int threads) {
  core::EnsembleParams p;
  p.window_length = 50;
  p.ensemble_size = 24;
  p.seed = 11;
  p.parallelism = exec::Parallelism::Fixed(threads);
  return p;
}

TEST(ParallelDeterminismTest, EnsembleDensityBitwiseIdenticalAcrossThreads) {
  const auto series = NoisySine(900, 1);
  const auto serial = core::ComputeEnsembleDensity(series, EnsembleCase(1));
  ASSERT_TRUE(serial.ok());
  for (const int threads : {2, 4, 8}) {
    const auto parallel =
        core::ComputeEnsembleDensity(series, EnsembleCase(threads));
    ASSERT_TRUE(parallel.ok()) << threads << " threads";
    EXPECT_EQ(serial->density, parallel->density) << threads << " threads";
    ASSERT_EQ(serial->members.size(), parallel->members.size());
    for (size_t i = 0; i < serial->members.size(); ++i) {
      EXPECT_EQ(serial->members[i].paa_size, parallel->members[i].paa_size);
      EXPECT_EQ(serial->members[i].alphabet_size,
                parallel->members[i].alphabet_size);
      EXPECT_EQ(serial->members[i].std_dev, parallel->members[i].std_dev);
      EXPECT_EQ(serial->members[i].kept, parallel->members[i].kept);
    }
  }
}

TEST(ParallelDeterminismTest, EnsembleRepeatedParallelRunsIdentical) {
  const auto series = NoisySine(700, 2);
  const auto a = core::ComputeEnsembleDensity(series, EnsembleCase(4));
  const auto b = core::ComputeEnsembleDensity(series, EnsembleCase(4));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->density, b->density);
}

TEST(ParallelDeterminismTest, EnsembleRejectsNonPositiveThreadCount) {
  const auto series = NoisySine(300, 3);
  auto p = EnsembleCase(0);
  EXPECT_FALSE(core::ComputeEnsembleDensity(series, p).ok());
}

// ------------------------------------------------------------ matrix profile

TEST(ParallelDeterminismTest, MatrixProfileBitwiseIdenticalAcrossThreads) {
  Rng rng(99);
  const auto series = datasets::MakeRandomWalk(1200, rng);
  const auto serial = discord::ComputeMatrixProfileStomp(
      series, 32, exec::Parallelism::Fixed(1));
  ASSERT_TRUE(serial.ok());
  for (const int threads : {2, 4, 8}) {
    const auto parallel = discord::ComputeMatrixProfileStomp(
        series, 32, exec::Parallelism::Fixed(threads));
    ASSERT_TRUE(parallel.ok()) << threads << " threads";
    EXPECT_EQ(serial->distances, parallel->distances) << threads
                                                      << " threads";
    EXPECT_EQ(serial->indices, parallel->indices) << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, MatrixProfileRepeatedParallelRunsIdentical) {
  Rng rng(7);
  const auto series = datasets::MakeRandomWalk(800, rng);
  const auto a = discord::ComputeMatrixProfileStomp(
      series, 24, exec::Parallelism::Fixed(4));
  const auto b = discord::ComputeMatrixProfileStomp(
      series, 24, exec::Parallelism::Fixed(4));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->distances, b->distances);
  EXPECT_EQ(a->indices, b->indices);
}

// ----------------------------------------------------------------- HOTSAX

TEST(ParallelDeterminismTest, HotSaxDiscordsIdenticalAcrossThreads) {
  const auto series = NoisySine(1000, 5);
  discord::HotSaxOptions serial_opt;
  const auto serial = discord::FindDiscordsHotSax(series, 40, 3, serial_opt);
  ASSERT_TRUE(serial.ok());
  for (const int threads : {2, 4, 8}) {
    discord::HotSaxOptions opt;
    opt.parallelism = exec::Parallelism::Fixed(threads);
    const auto parallel = discord::FindDiscordsHotSax(series, 40, 3, opt);
    ASSERT_TRUE(parallel.ok()) << threads << " threads";
    ASSERT_EQ(serial->size(), parallel->size()) << threads << " threads";
    for (size_t i = 0; i < serial->size(); ++i) {
      EXPECT_EQ((*serial)[i].position, (*parallel)[i].position)
          << threads << " threads, discord " << i;
      EXPECT_EQ((*serial)[i].distance, (*parallel)[i].distance)
          << threads << " threads, discord " << i;
    }
  }
}

// --------------------------------------------------------------- telemetry

// Telemetry must be pure observation: detection outputs are BITWISE-identical
// with recording enabled and disabled, at any thread count. SetEnabled is the
// runtime spelling of EGI_TELEMETRY=0 (CI additionally runs the whole suite
// under the env latch, so the "on" half below forces enabled explicitly
// instead of assuming the process default). RAII restore so a failing
// assertion cannot leak a toggled registry into this process (each gtest
// runs in its own ctest process, but EXPECT_* failures keep executing).
class ScopedTelemetryEnabled {
 public:
  explicit ScopedTelemetryEnabled(bool enabled)
      : prev_(telemetry::Registry::Global().enabled()) {
    telemetry::Registry::Global().SetEnabled(enabled);
  }
  ~ScopedTelemetryEnabled() {
    telemetry::Registry::Global().SetEnabled(prev_);
  }

 private:
  bool prev_;
};

TEST(ParallelDeterminismTest, EnsembleBitwiseIdenticalTelemetryOnVsOff) {
  const auto series = NoisySine(900, 17);
  for (const int threads : {1, 4}) {
    const auto on = [&] {
      ScopedTelemetryEnabled enabled(true);
      return core::ComputeEnsembleDensity(series, EnsembleCase(threads));
    }();
    ASSERT_TRUE(on.ok()) << threads << " threads";

    ScopedTelemetryEnabled disabled(false);
    const auto off =
        core::ComputeEnsembleDensity(series, EnsembleCase(threads));
    ASSERT_TRUE(off.ok()) << threads << " threads";
    EXPECT_EQ(on->density, off->density) << threads << " threads";
    for (size_t i = 0; i < on->members.size(); ++i) {
      EXPECT_EQ(on->members[i].std_dev, off->members[i].std_dev);
      EXPECT_EQ(on->members[i].kept, off->members[i].kept);
    }
  }
}

TEST(ParallelDeterminismTest, StreamingBitwiseIdenticalTelemetryOnVsOff) {
  const auto series = NoisySine(1200, 23);
  const auto run = [&](int threads) {
    stream::StreamDetectorOptions opt;
    opt.ensemble = EnsembleCase(threads);
    opt.ensemble.ensemble_size = 12;
    opt.buffer_capacity = 400;
    opt.refit_interval = 150;
    stream::StreamDetector detector(opt);
    std::vector<double> scores;
    for (const auto& pt : detector.Ingest(series)) scores.push_back(pt.score);
    return scores;
  };
  for (const int threads : {1, 4}) {
    std::vector<double> on, off;
    {
      ScopedTelemetryEnabled enabled(true);
      on = run(threads);
    }
    {
      ScopedTelemetryEnabled disabled(false);
      off = run(threads);
    }
    ASSERT_EQ(on.size(), off.size());
    for (size_t i = 0; i < on.size(); ++i) {
      // Bitwise comparison that treats the NaN "unscored" marker as equal
      // to itself (EXPECT_EQ on NaN doubles would always fail).
      EXPECT_TRUE((std::isnan(on[i]) && std::isnan(off[i])) || on[i] == off[i])
          << "point " << i << " at " << threads << " threads";
    }
  }
}

// -------------------------------------------------------------- experiment

TEST(ParallelDeterminismTest, ExperimentScoresIdenticalAcrossThreads) {
  // Proposed, GI-Random and Discord at N = 8 and `threads` threads.
  const auto methods = [](int threads) {
    const auto all = eval::PaperMethods(8, threads);
    return std::vector<eval::PaperMethod>{all[0], all[1], all[4]};
  };
  eval::ExperimentConfig cfg;
  cfg.series_per_dataset = 2;
  cfg.parallelism = exec::Parallelism::Serial();

  const data::Family ds[] = {data::Family::kWafer};
  const auto serial = eval::RunExperiment(ds, methods(1), cfg);

  cfg.parallelism = exec::Parallelism::Fixed(4);
  const auto parallel = eval::RunExperiment(ds, methods(4), cfg);

  for (const auto& m : methods(1)) {
    EXPECT_EQ(serial.Get(ds[0], m.label).scores,
              parallel.Get(ds[0], m.label).scores)
        << m.label;
  }
}

}  // namespace
}  // namespace egi

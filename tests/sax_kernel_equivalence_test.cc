// Bitwise equivalence of the runtime-dispatched encode kernels (sax/simd/).
//
// The dispatch contract is that every kernel set — scalar reference, AVX2,
// whatever ActiveKernels() resolves to — produces bit-for-bit identical
// output on every input, so which CPU (or EGI_FORCE_SCALAR setting) a run
// lands on can never change a discretization, a density curve, or a
// checkpoint byte. This suite enforces the contract at three levels:
// raw paa_block rows (including SIMD remainder tails), whole EncodeAll
// artifacts on randomized and degenerate series, and grammar induction
// through the pooled Sequitur scratch builders.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/ensemble.h"
#include "datasets/random_walk.h"
#include "grammar/sequitur.h"
#include "sax/multires_encoder.h"
#include "sax/simd/kernels.h"
#include "ts/prefix_stats.h"
#include "util/rng.h"

namespace egi::sax {
namespace {

// Restores automatic dispatch even when a test fails mid-body.
class KernelPin {
 public:
  explicit KernelPin(const simd::KernelSet* kernels) {
    simd::SetKernelsForTest(kernels);
  }
  ~KernelPin() { simd::SetKernelsForTest(nullptr); }
};

std::vector<const simd::KernelSet*> AllKernels() {
  std::vector<const simd::KernelSet*> kernels = {&simd::ScalarKernels()};
  if (const simd::KernelSet* avx2 = simd::Avx2KernelsOrNull()) {
    kernels.push_back(avx2);
  }
  return kernels;
}

// EXPECT_EQ on doubles would call -0.0 == 0.0 equal and NaN != NaN unequal;
// the kernel contract is bit-for-bit, so compare representations.
void ExpectBitwiseEqual(const std::vector<double>& a,
                        const std::vector<double>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << label << " differs at " << i << ": " << a[i] << " vs " << b[i];
  }
}

std::vector<double> TestSeries(size_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> series = datasets::MakeRandomWalk(len, rng);
  // Splice in a near-constant stretch (values within 1e-9 of each other) so
  // some windows sit below the normalization threshold and take the
  // flat-window branch, and a spike so some segment sums are large.
  if (len >= 120) {
    for (size_t i = 40; i < 80; ++i) {
      series[i] = 3.0 + 1e-10 * static_cast<double>(i % 3);
    }
    series[100] = 50.0;
  }
  return series;
}

// ------------------------------------------------------------- paa_block

TEST(PaaBlockEquivalenceTest, RemainderCountsMatchScalarBitwise) {
  const auto series = TestSeries(256, 17);
  const ts::PrefixStats stats(series);
  // Counts 1..5 cover every distance from a multiple of the AVX2 group
  // width (4); the larger counts cover full-group paths and odd starts.
  for (const size_t count : {1u, 2u, 3u, 4u, 5u, 31u, 32u, 33u}) {
    for (const size_t start : {0u, 1u, 7u}) {
      for (const int w : {1, 3, 4, 7, 10}) {
        const size_t n = 64;
        ASSERT_LE(start + count - 1 + n, stats.size());
        std::vector<double> scalar_out(count * static_cast<size_t>(w));
        std::vector<double> out(scalar_out.size());
        simd::ScalarKernels().paa_block(stats, start, count, n, w,
                                        scalar_out.data());
        for (const simd::KernelSet* kernels : AllKernels()) {
          kernels->paa_block(stats, start, count, n, w, out.data());
          ExpectBitwiseEqual(out, scalar_out, kernels->name);
        }
      }
    }
  }
}

TEST(PaaBlockEquivalenceTest, DegenerateWindowsMatchScalarBitwise) {
  // Series dominated by sub-threshold windows: all-flat, flat-with-jump
  // boundaries, and windows shorter than 2 samples' worth of variance.
  std::vector<double> series(200, 1.5);
  for (size_t i = 120; i < 200; ++i) series[i] = 1.5 + 1e-12 * (i % 2);
  series[60] = 2.0;  // lone jump: windows straddling it are non-flat
  const ts::PrefixStats stats(series);
  for (const size_t n : {2u, 5u, 64u}) {
    const size_t count = stats.size() - n + 1;
    for (const int w : {1, 2, static_cast<int>(n)}) {
      std::vector<double> scalar_out(count * static_cast<size_t>(w));
      std::vector<double> out(scalar_out.size());
      simd::ScalarKernels().paa_block(stats, 0, count, n, w,
                                      scalar_out.data());
      for (const simd::KernelSet* kernels : AllKernels()) {
        kernels->paa_block(stats, 0, count, n, w, out.data());
        ExpectBitwiseEqual(out, scalar_out, kernels->name);
      }
    }
  }
}

// ------------------------------------------------------------- EncodeAll

void ExpectDiscretizationsEqual(const DiscretizedSeries& a,
                                const DiscretizedSeries& b) {
  EXPECT_EQ(a.seq.tokens, b.seq.tokens);
  EXPECT_EQ(a.seq.offsets, b.seq.offsets);
  ASSERT_EQ(a.table.size(), b.table.size());
  for (int32_t id = 0; id < static_cast<int32_t>(a.table.size()); ++id) {
    EXPECT_EQ(a.table.CodeAt(id), b.table.CodeAt(id)) << "code " << id;
  }
}

std::vector<DiscretizedSeries> EncodeWith(const simd::KernelSet* kernels,
                                          std::span<const double> series,
                                          size_t window,
                                          std::span<const WaParam> params) {
  KernelPin pin(kernels);
  MultiResSaxEncoder encoder(series, window, 16);
  auto result = encoder.EncodeAll(params);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

TEST(EncodeAllEquivalenceTest, RandomizedSeriesIdenticalAcrossKernels) {
  std::vector<WaParam> params;
  for (const int w : {2, 3, 7, 10, 16}) {
    for (const int a : {2, 5, 16}) params.push_back({w, a});
  }
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const auto series = TestSeries(500, seed);
    const auto reference =
        EncodeWith(&simd::ScalarKernels(), series, 100, params);
    for (const simd::KernelSet* kernels : AllKernels()) {
      const auto got = EncodeWith(kernels, series, 100, params);
      ASSERT_EQ(got.size(), reference.size()) << kernels->name;
      for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(std::string(kernels->name) + " param " +
                     std::to_string(i));
        ExpectDiscretizationsEqual(got[i], reference[i]);
      }
    }
  }
}

TEST(EncodeAllEquivalenceTest, AutoDispatchMatchesForcedScalar) {
  // The end-to-end form of the contract: whatever dispatch resolves to on
  // this machine (AVX2 on CI runners, scalar under EGI_FORCE_SCALAR or on
  // older CPUs) must reproduce the forced-scalar artifacts exactly.
  const auto series = TestSeries(400, 99);
  const std::vector<WaParam> params = {{4, 4}, {7, 9}, {10, 16}};
  const auto reference =
      EncodeWith(&simd::ScalarKernels(), series, 80, params);
  const auto active = EncodeWith(nullptr, series, 80, params);
  ASSERT_EQ(active.size(), reference.size());
  for (size_t i = 0; i < active.size(); ++i) {
    SCOPED_TRACE("param " + std::to_string(i));
    ExpectDiscretizationsEqual(active[i], reference[i]);
  }
}

TEST(EncodeAllEquivalenceTest, NearConstantSeriesIdenticalAcrossKernels) {
  // Every window flat: the whole coefficient matrix is zeros and every
  // position numerosity-reduces into one token.
  std::vector<double> series(300, 7.25);
  const std::vector<WaParam> params = {{3, 4}, {8, 8}};
  const auto reference =
      EncodeWith(&simd::ScalarKernels(), series, 64, params);
  for (const simd::KernelSet* kernels : AllKernels()) {
    const auto got = EncodeWith(kernels, series, 64, params);
    for (size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(std::string(kernels->name) + " param " +
                   std::to_string(i));
      ExpectDiscretizationsEqual(got[i], reference[i]);
      EXPECT_EQ(got[i].seq.tokens.size(), 1u);  // one run, fully reduced
    }
  }
}

// ----------------------------------------------------------- arena pooling

TEST(ScratchBuilderPoolTest, PooledBuilderMatchesFreshBuilder) {
  Rng rng(7);
  std::vector<int32_t> tokens(400);
  for (auto& t : tokens) t = static_cast<int32_t>(rng.UniformInt(0, 6));

  const grammar::Grammar fresh = grammar::InduceGrammar(tokens);

  // Lease a builder, dirty it with an unrelated sequence, release, lease
  // again (warm arenas), and induce the same grammar via the Reset() path.
  {
    auto lease = grammar::AcquireScratchBuilder();
    lease->Reset();
    for (int32_t t : {1, 2, 1, 2, 3, 3, 3, 1, 2}) lease->Append(t);
  }
  auto lease = grammar::AcquireScratchBuilder();
  lease->Reset();
  lease->AppendAll(tokens);
  const grammar::Grammar pooled = lease->Build();

  EXPECT_EQ(pooled.input_length, fresh.input_length);
  EXPECT_EQ(pooled.root, fresh.root);
  ASSERT_EQ(pooled.rules.size(), fresh.rules.size());
  for (size_t i = 0; i < pooled.rules.size(); ++i) {
    EXPECT_EQ(pooled.rules[i].rhs, fresh.rules[i].rhs) << "rule " << i;
    EXPECT_EQ(pooled.rules[i].usage, fresh.rules[i].usage) << "rule " << i;
    EXPECT_EQ(pooled.rules[i].expansion_length,
              fresh.rules[i].expansion_length)
        << "rule " << i;
    EXPECT_EQ(pooled.rules[i].occurrences, fresh.rules[i].occurrences)
        << "rule " << i;
  }
}

TEST(ScratchBuilderPoolTest, LeasesRecycleInsteadOfGrowing) {
  const size_t before = grammar::ScratchBuilderPoolIdleCount();
  {
    auto lease = grammar::AcquireScratchBuilder();
    ASSERT_TRUE(lease);
    // Acquiring either pops an idle builder or constructs a new one; the
    // idle count never rises while the lease is live.
    EXPECT_LE(grammar::ScratchBuilderPoolIdleCount(),
              before > 0 ? before - 1 : 0);
  }
  const size_t after = grammar::ScratchBuilderPoolIdleCount();
  EXPECT_EQ(after, std::max<size_t>(before, 1));

  // A second acquire/release cycle reuses the pooled builder: the idle
  // count returns to the same level instead of growing per lease.
  { auto lease = grammar::AcquireScratchBuilder(); }
  EXPECT_EQ(grammar::ScratchBuilderPoolIdleCount(), after);
}

TEST(ScratchBuilderPoolTest, EnsembleRunsBitwiseStableAcrossPoolReuse) {
  // Back-to-back ensemble runs: the second run's grammar inductions all
  // execute on warm pooled arenas, and must reproduce the first run's
  // density curve bit-for-bit (the streaming refit replay contract depends
  // on this).
  Rng rng(13);
  const auto series = datasets::MakeRandomWalk(400, rng);
  core::EnsembleParams params;
  params.window_length = 50;
  params.ensemble_size = 8;
  params.seed = 5;
  auto first = core::ComputeEnsembleDensity(series, params);
  auto second = core::ComputeEnsembleDensity(series, params);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectBitwiseEqual(first->density, second->density, "density");
}

}  // namespace
}  // namespace egi::sax

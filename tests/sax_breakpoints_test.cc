#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "sax/breakpoints.h"
#include "sax/normal_quantile.h"
#include "sax/simd/kernels.h"
#include "util/rng.h"

namespace egi::sax {
namespace {

// --------------------------------------------------------- normal quantile

TEST(NormalQuantileTest, MedianIsExactlyZero) {
  EXPECT_EQ(InverseNormalCdf(0.5), 0.0);
}

TEST(NormalQuantileTest, KnownQuantiles) {
  EXPECT_NEAR(InverseNormalCdf(0.975), 1.959963984540054, 1e-12);
  EXPECT_NEAR(InverseNormalCdf(0.025), -1.959963984540054, 1e-12);
  EXPECT_NEAR(InverseNormalCdf(0.8413447460685429), 1.0, 1e-10);
  EXPECT_NEAR(InverseNormalCdf(0.9986501019683699), 3.0, 1e-9);
  EXPECT_NEAR(InverseNormalCdf(0.1), -1.2815515655446004, 1e-12);
}

TEST(NormalQuantileTest, Symmetry) {
  for (double p : {0.01, 0.1, 0.25, 0.33, 0.45}) {
    EXPECT_NEAR(InverseNormalCdf(p), -InverseNormalCdf(1.0 - p), 1e-12);
  }
}

TEST(NormalQuantileTest, RoundTripsThroughErfc) {
  for (double p = 0.02; p < 1.0; p += 0.02) {
    const double x = InverseNormalCdf(p);
    const double back = 0.5 * std::erfc(-x / std::sqrt(2.0));
    EXPECT_NEAR(back, p, 1e-13);
  }
}

TEST(NormalQuantileTest, TailAccuracy) {
  // Deep tails exercise Acklam's tail branch.
  const double x = InverseNormalCdf(1e-6);
  EXPECT_NEAR(0.5 * std::erfc(-x / std::sqrt(2.0)), 1e-6, 1e-12);
}

// -------------------------------------------------------------- breakpoints

TEST(BreakpointsTest, AlphabetTwo) {
  auto bps = GaussianBreakpoints(2);
  ASSERT_EQ(bps.size(), 1u);
  EXPECT_DOUBLE_EQ(bps[0], 0.0);
}

TEST(BreakpointsTest, AlphabetThreeMatchesPaperFigure3) {
  auto bps = GaussianBreakpoints(3);
  ASSERT_EQ(bps.size(), 2u);
  EXPECT_NEAR(bps[0], -0.43, 0.005);  // paper's table shows -0.43
  EXPECT_NEAR(bps[1], 0.43, 0.005);
}

TEST(BreakpointsTest, AlphabetFourMatchesPaperFigure3) {
  auto bps = GaussianBreakpoints(4);
  ASSERT_EQ(bps.size(), 3u);
  EXPECT_NEAR(bps[0], -0.6744897501960817, 1e-12);
  EXPECT_DOUBLE_EQ(bps[1], 0.0);
  EXPECT_NEAR(bps[2], 0.6744897501960817, 1e-12);
}

TEST(BreakpointsTest, StrictlyIncreasingForAllSizes) {
  for (int a = 2; a <= kMaxAlphabetSize; ++a) {
    auto bps = GaussianBreakpoints(a);
    ASSERT_EQ(bps.size(), static_cast<size_t>(a - 1));
    for (size_t i = 1; i < bps.size(); ++i) EXPECT_LT(bps[i - 1], bps[i]);
  }
}

TEST(BreakpointsTest, SharedQuantilesAreBitIdentical) {
  // p = 1/4 appears for a = 4, 8, 12, 16, 20; identical probabilities must
  // give bit-identical breakpoints (the multi-res summary relies on it).
  const double q4 = GaussianBreakpoints(4)[0];
  EXPECT_EQ(GaussianBreakpoints(8)[1], q4);
  EXPECT_EQ(GaussianBreakpoints(12)[2], q4);
  EXPECT_EQ(GaussianBreakpoints(16)[3], q4);
  EXPECT_EQ(GaussianBreakpoints(20)[4], q4);
}

TEST(BreakpointsTest, EachAlphabetIsComputedOncePerProcess) {
  for (int a = kMinAlphabetSize; a <= kMaxAlphabetSize; ++a) {
    const std::span<const double> first = GaussianBreakpoints(a);
    const std::span<const double> again = GaussianBreakpoints(a);
    EXPECT_EQ(first.data(), again.data()) << "a=" << a;
    ASSERT_EQ(again.size(), static_cast<size_t>(a - 1));
    for (int i = 1; i < a; ++i) {
      EXPECT_EQ(again[static_cast<size_t>(i) - 1],
                InverseNormalCdf(static_cast<double>(i) /
                                 static_cast<double>(a)))
          << "a=" << a << " i=" << i;
    }
  }
}

TEST(SymbolForValueTest, RegionsAndBoundaries) {
  auto bps = GaussianBreakpoints(4);  // {-0.674..., 0, 0.674...}
  EXPECT_EQ(SymbolForValue(-2.0, bps), 0);
  EXPECT_EQ(SymbolForValue(-0.5, bps), 1);
  EXPECT_EQ(SymbolForValue(0.5, bps), 2);
  EXPECT_EQ(SymbolForValue(2.0, bps), 3);
  // Boundary values belong to the upper region: [b, next) convention.
  EXPECT_EQ(SymbolForValue(0.0, bps), 2);
  EXPECT_EQ(SymbolForValue(bps[0], bps), 1);
}

TEST(SymbolToCharTest, LetterMapping) {
  EXPECT_EQ(SymbolToChar(0), 'a');
  EXPECT_EQ(SymbolToChar(1), 'b');
  EXPECT_EQ(SymbolToChar(25), 'z');
}

// ---------------------------------------------------------------- summary

TEST(BreakpointSummaryTest, IntervalCountMatchesDistinctBreakpoints) {
  BreakpointSummary summary(4);
  // a=2: {0}; a=3: {-q, q}; a=4: {-p, 0, p} -> 5 distinct points.
  EXPECT_EQ(summary.merged_breakpoints().size(), 5u);
  EXPECT_EQ(summary.num_intervals(), 6u);
}

TEST(BreakpointSummaryTest, PaperFigure6Example) {
  // Figure 6: with a in [2,4], PAA values in (-inf,-0.63], (-0.43,0] and
  // (0.63,inf) map to symbol sequences aaa, abb and bcd respectively.
  BreakpointSummary summary(4);
  for (int a = 2; a <= 4; ++a) {
    EXPECT_EQ(summary.Symbol(-1.0, a), 0);  // 'a' in all resolutions
  }
  EXPECT_EQ(summary.Symbol(-0.2, 2), 0);  // a
  EXPECT_EQ(summary.Symbol(-0.2, 3), 1);  // b
  EXPECT_EQ(summary.Symbol(-0.2, 4), 1);  // b
  EXPECT_EQ(summary.Symbol(1.0, 2), 1);   // b
  EXPECT_EQ(summary.Symbol(1.0, 3), 2);   // c
  EXPECT_EQ(summary.Symbol(1.0, 4), 3);   // d
}

// Property: the summary resolves every value to the same symbol as the
// per-alphabet breakpoint table, for all alphabet sizes up to amax.
class SummaryConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(SummaryConsistencyTest, MatchesDirectLookup) {
  const int amax = GetParam();
  BreakpointSummary summary(amax);
  Rng rng(static_cast<uint64_t>(amax) * 977);
  for (int a = 2; a <= amax; ++a) {
    auto bps = GaussianBreakpoints(a);
    for (int trial = 0; trial < 500; ++trial) {
      const double v = rng.Gaussian() * 1.5;
      EXPECT_EQ(summary.Symbol(v, a), SymbolForValue(v, bps))
          << "a=" << a << " v=" << v;
    }
    // Exact breakpoint values are the critical boundary cases.
    for (double b : bps) {
      EXPECT_EQ(summary.Symbol(b, a), SymbolForValue(b, bps));
      EXPECT_EQ(summary.Symbol(std::nextafter(b, -10.0), a),
                SymbolForValue(std::nextafter(b, -10.0), bps));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Amax, SummaryConsistencyTest,
                         ::testing::Values(2, 3, 4, 5, 8, 10, 15, 20, 32));

// ----------------------------------------------------- interval kernels
//
// The batched breakpoint-resolution kernels (sax/simd/) must agree with
// std::upper_bound — i.e. with SymbolForValue — value-for-value, including
// the boundary cases that distinguish a branchless comparison count from a
// binary search: values exactly on a breakpoint, +/-inf, and NaN. Pinned
// here for both the scalar kernel and (where the CPU has it) the AVX2 one,
// so the dispatch never changes a symbol.

std::vector<const simd::KernelSet*> AllKernels() {
  std::vector<const simd::KernelSet*> kernels = {&simd::ScalarKernels()};
  if (const simd::KernelSet* avx2 = simd::Avx2KernelsOrNull()) {
    kernels.push_back(avx2);
  }
  return kernels;
}

TEST(IntervalKernelBoundaryTest, MatchesUpperBoundForAllAlphabets) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int a = 2; a <= kMaxAlphabetSize; ++a) {
    const auto bps = GaussianBreakpoints(a);

    // Exact breakpoints, their one-ulp neighbors, region interiors, and the
    // non-finite values a provisional scorer could feed through.
    std::vector<double> values = {-inf, inf, nan, -nan, 0.0, -0.0, -100.0,
                                  100.0};
    for (const double b : bps) {
      values.push_back(b);
      values.push_back(std::nextafter(b, -inf));
      values.push_back(std::nextafter(b, inf));
    }

    std::vector<uint32_t> out(values.size());
    for (const simd::KernelSet* kernels : AllKernels()) {
      kernels->intervals(values.data(), values.size(), bps.data(), bps.size(),
                         out.data());
      for (size_t i = 0; i < values.size(); ++i) {
        const auto expected = static_cast<uint32_t>(
            std::upper_bound(bps.begin(), bps.end(), values[i]) - bps.begin());
        EXPECT_EQ(out[i], expected)
            << kernels->name << " a=" << a << " v=" << values[i];
        if (!std::isnan(values[i])) {
          EXPECT_EQ(static_cast<int>(out[i]), SymbolForValue(values[i], bps))
              << kernels->name << " a=" << a << " v=" << values[i];
        }
      }
    }
  }
}

TEST(IntervalKernelBoundaryTest, NonFiniteConventions) {
  // NaN and +inf land past every breakpoint (upper_bound convention for a
  // sorted finite axis); -inf lands before all of them. This is what makes
  // the branchless comparison count safe on un-sanitized inputs.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto bps = GaussianBreakpoints(8);
  const std::vector<double> values = {nan, inf, -inf};
  std::vector<uint32_t> out(values.size());
  for (const simd::KernelSet* kernels : AllKernels()) {
    kernels->intervals(values.data(), values.size(), bps.data(), bps.size(),
                       out.data());
    EXPECT_EQ(out[0], bps.size()) << kernels->name;
    EXPECT_EQ(out[1], bps.size()) << kernels->name;
    EXPECT_EQ(out[2], 0u) << kernels->name;
  }
}

TEST(IntervalKernelBoundaryTest, RemainderTailMatchesScalar) {
  // Lengths 0..9 cover every SIMD remainder case (the AVX2 kernel works in
  // groups of 4 and finishes the tail in scalar code).
  const auto bps = GaussianBreakpoints(16);
  Rng rng(4242);
  for (size_t len = 0; len <= 9; ++len) {
    std::vector<double> values(len);
    for (double& v : values) v = rng.Gaussian() * 1.5;
    std::vector<uint32_t> scalar_out(len), out(len);
    simd::ScalarKernels().intervals(values.data(), len, bps.data(), bps.size(),
                                    scalar_out.data());
    for (const simd::KernelSet* kernels : AllKernels()) {
      kernels->intervals(values.data(), len, bps.data(), bps.size(),
                         out.data());
      EXPECT_EQ(out, scalar_out) << kernels->name << " len=" << len;
    }
  }
}

}  // namespace
}  // namespace egi::sax

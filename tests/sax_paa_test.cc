#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "reference_paa.h"
#include "sax/fast_paa.h"
#include "ts/prefix_stats.h"
#include "ts/stats.h"
#include "util/rng.h"

namespace egi::sax {
namespace {

using reference::PaaOf;
using reference::ZNormalizedPaa;

// ---------------------------------------------------------- reference PAA

TEST(PaaTest, EvenSplitAverages) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  auto out = PaaOf(v, 2);
  EXPECT_DOUBLE_EQ(out[0], 1.5);
  EXPECT_DOUBLE_EQ(out[1], 3.5);
}

TEST(PaaTest, WEqualsNIsIdentity) {
  std::vector<double> v{1.0, -2.0, 3.0, 0.5};
  auto out = PaaOf(v, 4);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_DOUBLE_EQ(out[i], v[i]);
}

TEST(PaaTest, WEqualsOneIsMean) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  auto out = PaaOf(v, 1);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
}

TEST(PaaTest, FractionalBoundariesExact) {
  // n=3, w=2: segments [0,1.5) and [1.5,3).
  std::vector<double> v{1.0, 2.0, 3.0};
  auto out = PaaOf(v, 2);
  EXPECT_NEAR(out[0], (1.0 + 0.5 * 2.0) / 1.5, 1e-12);
  EXPECT_NEAR(out[1], (0.5 * 2.0 + 3.0) / 1.5, 1e-12);
}

TEST(PaaTest, MeanIsPreserved) {
  // PAA with equal-width segments preserves the mean exactly.
  Rng rng(5);
  std::vector<double> v(97);
  for (auto& x : v) x = rng.Gaussian();
  for (int w : {1, 2, 3, 5, 7, 10, 97}) {
    auto out = PaaOf(v, w);
    EXPECT_NEAR(ts::Mean(out), ts::Mean(v), 1e-10) << "w=" << w;
  }
}

TEST(ZNormalizedPaaTest, FlatWindowAllZeros) {
  std::vector<double> v(20, 2.5);
  std::vector<double> out(4);
  ZNormalizedPaa(v, 4, out);
  for (double x : out) EXPECT_DOUBLE_EQ(x, 0.0);
}

// --------------------------------------------------------------- Fast PAA

TEST(FastPaaTest, MatchesNaiveOnSimpleWindow) {
  std::vector<double> series{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  ts::PrefixStats stats(series);
  FastPaa fast(&stats);

  std::vector<double> got(2), want(2);
  fast.ComputeBlock(2, 1, 4, 2, got);
  ZNormalizedPaa(std::span<const double>(series).subspan(2, 4), 2, want);
  EXPECT_NEAR(got[0], want[0], 1e-10);
  EXPECT_NEAR(got[1], want[1], 1e-10);
}

TEST(FastPaaTest, FlatWindowAllZeros) {
  std::vector<double> series(50, 7.0);
  ts::PrefixStats stats(series);
  FastPaa fast(&stats);
  std::vector<double> out(5);
  fast.ComputeBlock(10, 1, 20, 5, out);
  for (double x : out) EXPECT_DOUBLE_EQ(x, 0.0);
}

// Property sweep: FastPaa (Algorithm 2) equals the z-normalize-then-PAA
// reference for every (n, w) combination on random series.
class FastPaaEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FastPaaEquivalenceTest, MatchesReference) {
  const auto [n, w] = GetParam();

  Rng rng(static_cast<uint64_t>(n) * 1000 + static_cast<uint64_t>(w));
  std::vector<double> series(300);
  for (auto& x : series) x = rng.Gaussian(10.0, 4.0);

  ts::PrefixStats stats(series);
  FastPaa fast(&stats);
  std::vector<double> got(static_cast<size_t>(w));
  std::vector<double> want(static_cast<size_t>(w));

  for (size_t start = 0; start + static_cast<size_t>(n) <= series.size();
       start += 7) {
    fast.ComputeBlock(start, 1, static_cast<size_t>(n), w, got);
    ZNormalizedPaa(
        std::span<const double>(series).subspan(start, static_cast<size_t>(n)),
        w, want);
    for (int i = 0; i < w; ++i) {
      EXPECT_NEAR(got[static_cast<size_t>(i)], want[static_cast<size_t>(i)],
                  1e-7)
          << "start=" << start << " n=" << n << " w=" << w << " i=" << i;
    }
  }
}

// The (n, w) grid {8, 13, 20, 50, 82, 150} x {2, 3, 4, 5, 7, 10, 13, 20},
// keeping only the pairs with w <= n (a window has at most n segments).
std::vector<std::tuple<int, int>> ApplicableGrid() {
  std::vector<std::tuple<int, int>> grid;
  for (const int n : {8, 13, 20, 50, 82, 150}) {
    for (const int w : {2, 3, 4, 5, 7, 10, 13, 20}) {
      if (w <= n) grid.emplace_back(n, w);
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, FastPaaEquivalenceTest,
                         ::testing::ValuesIn(ApplicableGrid()));

}  // namespace
}  // namespace egi::sax

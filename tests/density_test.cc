#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "grammar/density.h"
#include "grammar/grammar.h"
#include "grammar/sequitur.h"
#include "util/rng.h"

namespace egi::grammar {
namespace {

std::vector<size_t> IdentityOffsets(size_t n) {
  std::vector<size_t> off(n);
  for (size_t i = 0; i < n; ++i) off[i] = i;
  return off;
}

TEST(DensityTest, AnomalousTokenHasZeroCoverage) {
  // Paper Section 3.2: S = aa,bb,cc,xx,aa,bb,cc -> xx is incompressible.
  const std::vector<int32_t> in{0, 1, 2, 3, 0, 1, 2};
  const auto g = InduceGrammar(in);
  const auto offsets = IdentityOffsets(in.size());
  const auto density =
      BuildRuleDensityCurve(g, offsets, in.size(), /*window_length=*/1);

  ASSERT_EQ(density.size(), in.size());
  // R1 -> aa bb cc covers [0,2] and [4,6]; xx at 3 is uncovered.
  EXPECT_EQ(density, (std::vector<double>{1, 1, 1, 0, 1, 1, 1}));
}

TEST(DensityTest, WindowLengthExtendsCoverage) {
  const std::vector<int32_t> in{0, 1, 2, 3, 0, 1, 2};
  const auto g = InduceGrammar(in);
  const auto offsets = IdentityOffsets(in.size());
  // Window of 2: each token's subsequence covers two time points, so the
  // rule instance at tokens [0,2] covers time [0, 2+2-1] = [0,3].
  const size_t series_len = in.size() + 1;  // positions + window - 1
  const auto density = BuildRuleDensityCurve(g, offsets, series_len, 2);
  ASSERT_EQ(density.size(), series_len);
  EXPECT_EQ(density, (std::vector<double>{1, 1, 1, 1, 1, 1, 1, 1}));
}

TEST(DensityTest, NestedRulesStackCoverage) {
  // abababab: R1 -> ab (4 instances), R2 -> R1 R1 (2 instances). Every
  // point is covered by one R1 instance and one R2 instance.
  const std::vector<int32_t> in{0, 1, 0, 1, 0, 1, 0, 1};
  const auto g = InduceGrammar(in);
  const auto offsets = IdentityOffsets(in.size());
  const auto density = BuildRuleDensityCurve(g, offsets, in.size(), 1);
  EXPECT_EQ(density, std::vector<double>(8, 2.0));
}

TEST(DensityTest, NoRulesMeansZeroCurve) {
  const std::vector<int32_t> in{0, 1, 2, 3};
  const auto g = InduceGrammar(in);
  const auto density =
      BuildRuleDensityCurve(g, IdentityOffsets(4), 4, 1);
  EXPECT_EQ(density, std::vector<double>(4, 0.0));
}

TEST(DensityTest, NumerosityOffsetsMapBackToSeriesPositions) {
  // Two tokens at sparse offsets: a rule spanning tokens [0,1] covers the
  // series from offsets[0] through offsets[1] + window - 1.
  Grammar g;
  g.input_length = 4;
  GrammarRule r;
  r.rhs = {0, 1};
  r.expansion_length = 2;
  r.usage = 2;
  r.occurrences = {0, 2};
  g.rules.push_back(r);
  g.root = {MakeRuleSym(0), MakeRuleSym(0)};

  const std::vector<size_t> offsets{0, 3, 10, 14};
  const size_t series_len = 20;
  const size_t window = 4;
  const auto density = BuildRuleDensityCurve(g, offsets, series_len, window);

  // First instance: tokens 0..1 -> time [0, 3+4-1] = [0,6].
  for (size_t t = 0; t <= 6; ++t) EXPECT_EQ(density[t], 1.0) << t;
  for (size_t t = 7; t <= 9; ++t) EXPECT_EQ(density[t], 0.0) << t;
  // Second instance: tokens 2..3 -> time [10, 14+4-1] = [10,17].
  for (size_t t = 10; t <= 17; ++t) EXPECT_EQ(density[t], 1.0) << t;
  for (size_t t = 18; t < 20; ++t) EXPECT_EQ(density[t], 0.0) << t;
}

TEST(DensityTest, CoverageClampedAtSeriesEnd) {
  Grammar g;
  g.input_length = 2;
  GrammarRule r;
  r.rhs = {0, 0};
  r.expansion_length = 2;
  r.usage = 2;
  r.occurrences = {0};
  g.rules.push_back(r);
  g.root = {MakeRuleSym(0)};
  // usage bookkeeping is not validated here; this is a direct curve test.
  // Occurrence spans tokens [0,1] -> time [0, offsets[1] + window - 1] = 3,
  // clamped to the final point of the series.
  const std::vector<size_t> offsets{0, 1};
  const auto density = BuildRuleDensityCurve(g, offsets, 3, 3);
  EXPECT_EQ(density, (std::vector<double>{1, 1, 1}));
}

TEST(DensityTest, RejectsMismatchedOffsets) {
  const std::vector<int32_t> in{0, 1, 0, 1};
  const auto g = InduceGrammar(in);
  const std::vector<size_t> offsets{0, 1};  // wrong size
  EXPECT_DEATH(BuildRuleDensityCurve(g, offsets, 4, 1), "offsets");
}

TEST(DensityTest, BuilderPathMatchesBuiltGrammarBitwise) {
  // The builder-path curve (read from the live grammar, no Build()) must
  // equal BuildRuleDensityCurve(Build()) bit for bit, and its walk must
  // report Build()'s rule count and description length. One warm builder
  // serves every case, so stale arena slots of earlier runs are present.
  Rng rng(31);
  std::vector<std::pair<std::string, std::vector<int32_t>>> inputs;
  inputs.push_back({"table2", {0, 1, 2, 3, 4, 0, 1, 2}});
  inputs.push_back({"empty", {}});
  for (const size_t n : {50u, 600u, 3000u}) {
    std::vector<int32_t> random(n);
    for (auto& t : random) t = static_cast<int32_t>(rng.UniformInt(0, 7));
    inputs.push_back({"random" + std::to_string(n), random});
    // Highly repetitive: a short motif with rare substitutions, which
    // builds deep rule hierarchies with many nested occurrences.
    std::vector<int32_t> repetitive(n);
    for (size_t i = 0; i < n; ++i) {
      repetitive[i] = rng.UniformInt(0, 49) == 0
                          ? 9
                          : static_cast<int32_t>(i % 5);
    }
    inputs.push_back({"repetitive" + std::to_string(n), repetitive});
  }

  SequiturBuilder builder;
  for (const auto& [name, tokens] : inputs) {
    // Sparse, strictly increasing offsets stand in for numerosity reduction.
    std::vector<size_t> offsets(tokens.size());
    size_t at = 0;
    for (auto& o : offsets) {
      o = at;
      at += 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    }
    builder.Reset();
    builder.AppendAll(tokens);
    const Grammar g = builder.Build();
    for (const size_t window : {1u, 7u}) {
      const size_t series_length = at + window;
      for (const bool corrected : {false, true}) {
        SCOPED_TRACE(name + " window " + std::to_string(window) +
                     (corrected ? " corrected" : " raw"));
        const auto want =
            BuildRuleDensityCurve(g, offsets, series_length, window, corrected);
        GrammarSize size;
        const auto got = BuildRuleDensityCurve(builder, offsets, series_length,
                                               window, corrected, &size);
        ASSERT_EQ(got.size(), want.size());
        for (size_t t = 0; t < got.size(); ++t) {
          EXPECT_EQ(std::bit_cast<uint64_t>(got[t]),
                    std::bit_cast<uint64_t>(want[t]))
              << "t=" << t;
        }
        EXPECT_EQ(size.num_rules, g.rules.size());
        EXPECT_EQ(size.symbols, g.TotalRhsSymbols());
      }
    }
  }
}

TEST(DensityTest, BuilderPathRejectsMismatchedOffsets) {
  SequiturBuilder builder;
  builder.AppendAll(std::vector<int32_t>{0, 1, 0, 1});
  const std::vector<size_t> offsets{0, 1};  // wrong size
  EXPECT_DEATH(BuildRuleDensityCurve(builder, offsets, 4, 1, false),
               "offsets");
}

}  // namespace
}  // namespace egi::grammar

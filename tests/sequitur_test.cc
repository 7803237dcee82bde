#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "grammar/grammar.h"
#include "grammar/sequitur.h"
#include "util/rng.h"

namespace egi::grammar {
namespace {

std::vector<int32_t> Tokens(std::initializer_list<int32_t> list) {
  return std::vector<int32_t>(list);
}

// ------------------------------------------------------- worked examples

TEST(SequiturTest, PaperTable2Example) {
  // SNR = ab, bc, aa, cc, ca, ab, bc, aa  (ids: ab=0 bc=1 aa=2 cc=3 ca=4).
  // Expected final grammar (paper Table 2, step 11):
  //   R0 -> R2, cc, ca, R2       R2 -> ab, bc, aa
  const auto g = InduceGrammar(Tokens({0, 1, 2, 3, 4, 0, 1, 2}));

  ASSERT_EQ(g.rules.size(), 1u);
  EXPECT_EQ(g.rules[0].rhs, Tokens({0, 1, 2}));
  EXPECT_EQ(g.rules[0].usage, 2);
  EXPECT_EQ(g.rules[0].expansion_length, 3u);
  EXPECT_EQ(g.rules[0].occurrences, (std::vector<size_t>{0, 5}));

  const SymbolId r1 = MakeRuleSym(0);
  EXPECT_EQ(g.root, Tokens({r1, 3, 4, r1}));
  EXPECT_TRUE(g.Validate().ok());
}

TEST(SequiturTest, PaperSection32Example) {
  // S = aa, bb, cc, xx, aa, bb, cc (ids: aa=0 bb=1 cc=2 xx=3).
  // Expected: R0 -> R1, xx, R1 with R1 -> aa, bb, cc (paper Table 1).
  const auto g = InduceGrammar(Tokens({0, 1, 2, 3, 0, 1, 2}));
  ASSERT_EQ(g.rules.size(), 1u);
  EXPECT_EQ(g.rules[0].rhs, Tokens({0, 1, 2}));
  const SymbolId r1 = MakeRuleSym(0);
  EXPECT_EQ(g.root, Tokens({r1, 3, r1}));
  EXPECT_EQ(g.rules[0].occurrences, (std::vector<size_t>{0, 4}));
  EXPECT_TRUE(g.Validate().ok());
}

TEST(SequiturTest, ClassicAbcdbcAbcd) {
  // "abcdbc abcd"-style: rule sharing between overlapping repeats.
  const auto g = InduceGrammar(Tokens({0, 1, 2, 3, 1, 2, 0, 1, 2, 3}));
  EXPECT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.ExpandRoot(), Tokens({0, 1, 2, 3, 1, 2, 0, 1, 2, 3}));
  // The digram (b, c) repeats three times -> some rule must cover it.
  ASSERT_GE(g.rules.size(), 1u);
}

TEST(SequiturTest, NoRepetitionYieldsNoRules) {
  const auto g = InduceGrammar(Tokens({0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(g.rules.empty());
  EXPECT_EQ(g.root, Tokens({0, 1, 2, 3, 4, 5}));
}

TEST(SequiturTest, EmptyAndSingleToken) {
  EXPECT_EQ(InduceGrammar(Tokens({})).input_length, 0u);
  const auto g = InduceGrammar(Tokens({7}));
  EXPECT_EQ(g.root, Tokens({7}));
  EXPECT_TRUE(g.rules.empty());
}

TEST(SequiturTest, PairRepetition) {
  // abab -> R0 = R1 R1, R1 = a b.
  const auto g = InduceGrammar(Tokens({0, 1, 0, 1}));
  ASSERT_EQ(g.rules.size(), 1u);
  EXPECT_EQ(g.rules[0].rhs, Tokens({0, 1}));
  EXPECT_EQ(g.root, Tokens({MakeRuleSym(0), MakeRuleSym(0)}));
  EXPECT_TRUE(g.Validate().ok());
}

TEST(SequiturTest, OverlappingDigramsAaa) {
  // "aaa": the two (a,a) digrams overlap; Sequitur must not form a rule.
  const auto g = InduceGrammar(Tokens({0, 0, 0}));
  EXPECT_TRUE(g.rules.empty());
  EXPECT_EQ(g.root, Tokens({0, 0, 0}));
}

TEST(SequiturTest, AaaaFormsPairRule) {
  // "aaaa": digrams at positions (0,1) and (2,3) do not overlap.
  const auto g = InduceGrammar(Tokens({0, 0, 0, 0}));
  ASSERT_EQ(g.rules.size(), 1u);
  EXPECT_EQ(g.rules[0].rhs, Tokens({0, 0}));
  EXPECT_EQ(g.ExpandRoot(), Tokens({0, 0, 0, 0}));
}

TEST(SequiturTest, HierarchicalNesting) {
  // (ab ab) (ab ab) -> R2 R2 with R2 -> R1 R1, R1 -> a b.
  const auto g = InduceGrammar(Tokens({0, 1, 0, 1, 0, 1, 0, 1}));
  EXPECT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.ExpandRoot(), Tokens({0, 1, 0, 1, 0, 1, 0, 1}));
  ASSERT_EQ(g.rules.size(), 2u);
  // The nested rule occurs four times dynamically.
  std::map<size_t, size_t> occ_counts;
  for (const auto& r : g.rules) occ_counts[r.occurrences.size()]++;
  EXPECT_EQ(occ_counts.count(4), 1u);
  EXPECT_EQ(occ_counts.count(2), 1u);
}

TEST(SequiturTest, RuleReuseAcrossDistantRepeats) {
  const auto in = Tokens({5, 6, 9, 5, 6, 8, 5, 6, 9});
  const auto g = InduceGrammar(in);
  EXPECT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.ExpandRoot(), in);
}

TEST(SequiturTest, IncrementalAppendMatchesBatch) {
  const auto in = Tokens({0, 1, 2, 0, 1, 2, 3, 0, 1});
  SequiturBuilder b;
  for (int32_t t : in) b.Append(t);
  const auto g1 = b.Build();
  const auto g2 = InduceGrammar(in);
  EXPECT_EQ(g1.root, g2.root);
  ASSERT_EQ(g1.rules.size(), g2.rules.size());
  for (size_t i = 0; i < g1.rules.size(); ++i) {
    EXPECT_EQ(g1.rules[i].rhs, g2.rules[i].rhs);
  }
}

TEST(SequiturTest, VisitRuleOccurrencesMatchesBuild) {
  // Every (start, length) pair the in-place walk reports is one of Build()'s
  // (occurrence, expansion_length) pairs, and none is missing or repeated.
  Rng rng(5150);
  for (int round = 0; round < 6; ++round) {
    std::vector<int32_t> in(200 + 300 * static_cast<size_t>(round));
    for (size_t i = 0; i < in.size(); ++i) {
      in[i] = round % 2 == 0 ? static_cast<int32_t>(rng.UniformInt(0, 4))
                             : static_cast<int32_t>(i % 6);
    }
    SequiturBuilder b;
    b.AppendAll(in);
    const Grammar g = b.Build();
    std::vector<std::pair<size_t, size_t>> want;
    for (const auto& r : g.rules) {
      for (size_t p : r.occurrences) want.emplace_back(p, r.expansion_length);
    }
    std::vector<std::pair<size_t, size_t>> got;
    const GrammarSize size = b.VisitRuleOccurrences(
        [&](size_t start, size_t length) { got.emplace_back(start, length); });
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "round " << round;
    EXPECT_EQ(size.num_rules, g.rules.size());
    EXPECT_EQ(size.symbols, g.TotalRhsSymbols());
  }
}

TEST(SequiturTest, BuildIsNonDestructive) {
  SequiturBuilder b;
  b.AppendAll(Tokens({0, 1, 0, 1}));
  const auto g1 = b.Build();
  b.AppendAll(Tokens({0, 1}));
  const auto g2 = b.Build();
  EXPECT_EQ(g1.input_length, 4u);
  EXPECT_EQ(g2.input_length, 6u);
  EXPECT_EQ(g2.ExpandRoot(), Tokens({0, 1, 0, 1, 0, 1}));
}

// ------------------------------------------------------------- properties

class SequiturPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int, int>> {};

TEST_P(SequiturPropertyTest, RoundTripAndInvariantsOnRandomInput) {
  const auto [seed, alphabet, length] = GetParam();
  Rng rng(seed);
  std::vector<int32_t> in(static_cast<size_t>(length));
  for (auto& t : in)
    t = static_cast<int32_t>(rng.UniformInt(0, alphabet - 1));

  const auto g = InduceGrammar(in);
  // The grammar must reproduce its input exactly...
  EXPECT_EQ(g.ExpandRoot(), in);
  // ...and satisfy the structural invariants (rule utility, occurrence
  // bookkeeping, expansion lengths).
  const auto st = g.Validate();
  EXPECT_TRUE(st.ok()) << st.ToString();

  // Every dynamic occurrence must actually match the rule's expansion.
  for (size_t k = 0; k < g.rules.size(); ++k) {
    const auto expansion = g.ExpandRule(k);
    for (size_t pos : g.rules[k].occurrences) {
      for (size_t i = 0; i < expansion.size(); ++i) {
        ASSERT_EQ(in[pos + i], expansion[i])
            << "rule " << k << " occurrence at " << pos << " mismatches";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, SequiturPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
                       ::testing::Values(2, 3, 8),
                       ::testing::Values(50, 500, 3000)));

TEST(SequiturStressTest, RunLengthPatterns) {
  // Long runs exercise the overlapping-digram path heavily.
  Rng rng(4242);
  std::vector<int32_t> in;
  for (int block = 0; block < 200; ++block) {
    const auto tok = static_cast<int32_t>(rng.UniformInt(0, 2));
    const auto reps = static_cast<int>(rng.UniformInt(1, 9));
    for (int i = 0; i < reps; ++i) in.push_back(tok);
  }
  const auto g = InduceGrammar(in);
  EXPECT_EQ(g.ExpandRoot(), in);
  EXPECT_TRUE(g.Validate().ok()) << g.Validate().ToString();
}

TEST(SequiturStressTest, PeriodicPatternCompressesWell) {
  std::vector<int32_t> in;
  for (int i = 0; i < 512; ++i) in.push_back(i % 4);
  const auto g = InduceGrammar(in);
  EXPECT_EQ(g.ExpandRoot(), in);
  // Deep hierarchy: description far smaller than the input.
  EXPECT_LT(g.TotalRhsSymbols(), in.size() / 4);
}

TEST(SequiturTest, TotalRhsSymbolsCountsRootAndRules) {
  const auto g = InduceGrammar(Tokens({0, 1, 0, 1}));
  // root = R1 R1 (2 symbols), R1 = 0 1 (2 symbols).
  EXPECT_EQ(g.TotalRhsSymbols(), 4u);
}

TEST(SequiturTest, RejectsNegativeTokens) {
  SequiturBuilder b;
  EXPECT_DEATH(b.Append(-1), "non-negative");
}

// ------------------------------------------------------------ Reset reuse

void ExpectGrammarsIdentical(const Grammar& a, const Grammar& b) {
  EXPECT_EQ(a.input_length, b.input_length);
  EXPECT_EQ(a.root, b.root);
  ASSERT_EQ(a.rules.size(), b.rules.size());
  for (size_t k = 0; k < a.rules.size(); ++k) {
    EXPECT_EQ(a.rules[k].rhs, b.rules[k].rhs) << "rule " << k;
    EXPECT_EQ(a.rules[k].usage, b.rules[k].usage) << "rule " << k;
    EXPECT_EQ(a.rules[k].expansion_length, b.rules[k].expansion_length)
        << "rule " << k;
    EXPECT_EQ(a.rules[k].occurrences, b.rules[k].occurrences) << "rule " << k;
  }
}

TEST(SequiturResetTest, BuildResetBuildMatchesFreshBuilder) {
  // A reused builder must be indistinguishable from a fresh one: run a
  // sequence of different inputs through one Reset() builder and compare
  // every grammar against a from-scratch induction.
  Rng rng(909);
  SequiturBuilder reused;
  for (int round = 0; round < 8; ++round) {
    const size_t n = 64 + static_cast<size_t>(rng.UniformInt(0, 400));
    const int alphabet = 2 + static_cast<int>(rng.UniformInt(0, 6));
    std::vector<int32_t> in(n);
    for (auto& t : in)
      t = static_cast<int32_t>(rng.UniformInt(0, alphabet - 1));

    reused.Reset();
    reused.AppendAll(in);
    const Grammar fresh = InduceGrammar(in);
    const Grammar recycled = reused.Build();
    ExpectGrammarsIdentical(fresh, recycled);
    EXPECT_TRUE(recycled.Validate().ok());
    EXPECT_EQ(recycled.ExpandRoot(), in);
  }
}

TEST(SequiturResetTest, ResetClearsState) {
  SequiturBuilder b;
  b.AppendAll(Tokens({0, 1, 2, 3, 0, 1, 2, 3}));
  EXPECT_EQ(b.num_appended(), 8u);
  b.Reset();
  EXPECT_EQ(b.num_appended(), 0u);
  const Grammar empty = b.Build();
  EXPECT_TRUE(empty.root.empty());
  EXPECT_TRUE(empty.rules.empty());
  // Still fully usable after an empty Build.
  b.AppendAll(Tokens({0, 1, 2, 3, 4, 0, 1, 2}));
  const Grammar g = b.Build();
  ExpectGrammarsIdentical(g, InduceGrammar(Tokens({0, 1, 2, 3, 4, 0, 1, 2})));
}

TEST(SequiturResetTest, ResetAfterLargeInputShrinksToSmallInput) {
  // Arena rewind across very different input sizes: big, then tiny, then
  // big again — each must match a fresh induction.
  std::vector<int32_t> big(20000);
  for (size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<int32_t>(i % 11);
  const std::vector<int32_t> tiny{0, 1, 0, 1};

  SequiturBuilder b;
  b.AppendAll(big);
  ExpectGrammarsIdentical(b.Build(), InduceGrammar(big));
  b.Reset();
  b.AppendAll(tiny);
  ExpectGrammarsIdentical(b.Build(), InduceGrammar(tiny));
  b.Reset();
  b.AppendAll(big);
  ExpectGrammarsIdentical(b.Build(), InduceGrammar(big));
}

}  // namespace
}  // namespace egi::grammar

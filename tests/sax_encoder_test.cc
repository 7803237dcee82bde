#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "egi/primitives.h"
#include "sax/breakpoints.h"
#include "sax/fast_paa.h"
#include "sax/multires_encoder.h"
#include "sax/numerosity.h"
#include "sax/sax_encoder.h"
#include "sax/token_table.h"
#include "ts/prefix_stats.h"
#include "util/rng.h"

namespace egi::sax {
namespace {

// The per-position reference the encoder's table-driven word loop must
// reproduce bit for bit: FastPAA for one window at a time, a binary search
// in the alphabet's own breakpoints per coefficient, and interning in
// position order.
DiscretizedSeries ReferenceDiscretize(std::span<const double> series,
                                      const SaxParams& params) {
  DiscretizedSeries out;
  out.series_length = series.size();
  out.window_length = params.window_length;
  out.paa_size = params.paa_size;
  out.alphabet_size = params.alphabet_size;

  const ts::PrefixStats stats(series);
  const FastPaa fast_paa(&stats);
  const auto bps = GaussianBreakpoints(params.alphabet_size);
  const WordCodec codec(params.paa_size, params.alphabet_size);
  out.table = TokenTable(codec);

  const size_t positions = series.size() - params.window_length + 1;
  std::vector<double> coeffs(static_cast<size_t>(params.paa_size));
  WordCode last_code;
  for (size_t p = 0; p < positions; ++p) {
    fast_paa.ComputeBlock(p, 1, params.window_length, params.paa_size, coeffs);
    WordCode code;
    for (size_t i = 0; i < coeffs.size(); ++i) {
      codec.AppendSymbol(code, SymbolForValue(coeffs[i], bps));
    }
    if (params.numerosity_reduction && !out.seq.tokens.empty() &&
        code == last_code) {
      continue;
    }
    out.seq.tokens.push_back(out.table.Intern(code));
    out.seq.offsets.push_back(p);
    last_code = code;
  }
  return out;
}

// A table's codes in id order.
std::vector<WordCode> CodesOf(const TokenTable& table) {
  std::vector<WordCode> codes;
  for (size_t id = 0; id < table.size(); ++id) {
    codes.push_back(table.CodeAt(static_cast<int32_t>(id)));
  }
  return codes;
}

// Tokens, offsets and the table's codes in id order.
void ExpectSameDiscretization(const DiscretizedSeries& got,
                              const DiscretizedSeries& want) {
  EXPECT_EQ(got.seq.tokens, want.seq.tokens);
  EXPECT_EQ(got.seq.offsets, want.seq.offsets);
  EXPECT_EQ(CodesOf(got.table), CodesOf(want.table));
}

// ------------------------------------------------------------ token table

TEST(TokenTableTest, InternAssignsDenseIds) {
  const WordCodec codec(2, 4);
  TokenTable t(codec);
  EXPECT_EQ(t.Intern(codec.PackText("ab")), 0);
  EXPECT_EQ(t.Intern(codec.PackText("bc")), 1);
  EXPECT_EQ(t.Intern(codec.PackText("ab")), 0);  // idempotent
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.Word(0), "ab");
  EXPECT_EQ(t.Word(1), "bc");
}

TEST(TokenTableTest, FindWithoutInsert) {
  const WordCodec codec(2, 26);
  TokenTable t(codec);
  t.Intern(codec.PackText("xy"));
  EXPECT_EQ(t.Find(codec.PackText("xy")), 0);
  EXPECT_EQ(t.Find(codec.PackText("zz")), -1);
}

TEST(TokenTableTest, CodeStringRoundTripsThroughTable) {
  // Every interned id renders back to the word it was packed from, and the
  // rendered word re-packs to a code that finds the same id.
  const WordCodec codec(5, 8);
  TokenTable t(codec);
  Rng rng(21);
  std::vector<std::string> words;
  for (int k = 0; k < 200; ++k) {
    std::string w(5, 'a');
    for (auto& ch : w)
      ch = static_cast<char>('a' + rng.UniformInt(0, 7));
    words.push_back(w);
    t.Intern(codec.PackText(w));
  }
  for (const auto& w : words) {
    const int32_t id = t.Find(codec.PackText(w));
    ASSERT_GE(id, 0);
    EXPECT_EQ(t.Word(id), w);
    EXPECT_EQ(t.Find(t.CodeAt(id)), id);
  }
}

TEST(TokenTableTest, ManyWordsSurviveTableGrowth) {
  // 2000 distinct codes force several open-addressing growths; ids must
  // stay dense, stable, and findable throughout.
  const WordCodec codec(8, 16);
  TokenTable t(codec);
  std::vector<WordCode> codes;
  for (int i = 0; i < 2000; ++i) {
    std::vector<int> syms(8);
    int v = i;
    for (auto& s : syms) {
      s = v & 15;
      v >>= 4;
    }
    codes.push_back(codec.Pack(syms));
    EXPECT_EQ(t.Intern(codes.back()), i);
  }
  EXPECT_EQ(t.size(), 2000u);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(t.Find(codes[static_cast<size_t>(i)]), i);
    EXPECT_EQ(t.CodeAt(i), codes[static_cast<size_t>(i)]);
  }
}

// `count` codes drawn with repeats from a vocabulary of up to `pool` random
// words (a duplicate draw in the pool shrinks it). Under a wide layout the
// words set bits of the high half.
std::vector<WordCode> CodesWithRepeats(const WordCodec& codec, size_t pool,
                                       size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> symbols(static_cast<size_t>(codec.word_length()));
  std::vector<WordCode> vocabulary(pool);
  for (WordCode& code : vocabulary) {
    for (int& s : symbols) {
      s = static_cast<int>(rng.UniformInt(0, codec.alphabet_size() - 1));
    }
    code = codec.Pack(symbols);
  }
  std::vector<WordCode> codes(count);
  for (WordCode& code : codes) {
    code = vocabulary[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool) - 1))];
  }
  return codes;
}

TEST(TokenTableTest, SizedTableMatchesOneGrownFromEmpty) {
  // 12-bit and 100-bit layouts; every sizing — none (grown from empty),
  // below the vocabulary (grows past it), exactly the vocabulary, and the
  // run count — must give the grown table's ids, codes and lookups.
  for (const WordCodec& codec : {WordCodec(4, 8), WordCodec(20, 20)}) {
    const std::vector<WordCode> codes = CodesWithRepeats(codec, 300, 1000, 5);
    const std::vector<WordCode> probes = CodesWithRepeats(codec, 200, 200, 6);
    TokenTable grown(codec);
    for (const WordCode& code : codes) grown.Intern(code);
    const size_t vocabulary = grown.size();
    ASSERT_LT(vocabulary, codes.size());  // the draws repeat
    if (codec.word_length() == 20) {
      EXPECT_TRUE(std::any_of(codes.begin(), codes.end(),
                              [](const WordCode& c) { return c.hi != 0; }));
    }
    size_t absent = 0;
    for (const size_t expected :
         {size_t{0}, vocabulary / 3, vocabulary, codes.size()}) {
      TokenTable fresh(codec);
      TokenTable sized(codec, expected);
      for (const WordCode& code : codes) {
        ASSERT_EQ(sized.Intern(code), fresh.Intern(code))
            << "expected=" << expected;
      }
      EXPECT_EQ(CodesOf(sized), CodesOf(grown));
      for (const WordCode& code : codes) {
        EXPECT_EQ(sized.Find(code), grown.Find(code));
      }
      for (const WordCode& probe : probes) {
        EXPECT_EQ(sized.Find(probe), grown.Find(probe));
        absent += grown.Find(probe) < 0;
      }
      if (expected <= vocabulary) {
        EXPECT_EQ(sized.slot_count(), grown.slot_count())
            << "expected=" << expected;
      } else {
        EXPECT_GT(sized.slot_count(), grown.slot_count());
      }
    }
    EXPECT_GT(absent, 0u);
  }
}

TEST(TokenTableTest, CompactedKeepsIdsWithTheGrownSlotCount) {
  const WordCodec codec(6, 10);
  const std::vector<WordCode> codes = CodesWithRepeats(codec, 150, 2000, 9);
  TokenTable run_sized(codec, codes.size());
  for (const WordCode& code : codes) run_sized.Intern(code);
  // A table grown over the vocabulary alone, in id order.
  TokenTable grown(codec);
  for (const WordCode& code : CodesOf(run_sized)) grown.Intern(code);
  const TokenTable compacted = run_sized.Compacted();
  EXPECT_LT(compacted.slot_count(), run_sized.slot_count());
  EXPECT_EQ(compacted.slot_count(), grown.slot_count());
  EXPECT_EQ(compacted.codec().word_length(), 6);
  EXPECT_EQ(compacted.codec().alphabet_size(), 10);
  EXPECT_EQ(CodesOf(compacted), CodesOf(grown));
  for (const WordCode& code : codes) {
    EXPECT_EQ(compacted.Find(code), grown.Find(code));
  }

  const TokenTable empty = TokenTable(codec, 64).Compacted();
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.slot_count(), 0u);
  EXPECT_EQ(empty.Find(codes[0]), -1);
}

TEST(TokenTableTest, CodeWidthFollowsTheCodec) {
  // A 40-bit layout keeps 8 bytes per code and a 100-bit one 16; both index
  // them with 4-byte slots. Sized, grown and compacted tables give the same
  // ids, codes and lookups either way.
  for (const auto& [codec, code_bytes] :
       {std::pair{WordCodec(10, 10), size_t{8}},
        std::pair{WordCodec(20, 20), size_t{16}}}) {
    const std::vector<WordCode> codes = CodesWithRepeats(codec, 400, 1200, 3);
    const std::vector<WordCode> probes = CodesWithRepeats(codec, 300, 300, 4);
    TokenTable grown(codec);
    TokenTable sized(codec, codes.size());
    for (const WordCode& code : codes) {
      ASSERT_EQ(sized.Intern(code), grown.Intern(code));
    }
    const size_t vocabulary = grown.size();
    EXPECT_EQ(sized.heap_bytes(),
              code_bytes * codes.size() + 4 * sized.slot_count());
    const TokenTable compacted = sized.Compacted();
    EXPECT_EQ(compacted.slot_count(), grown.slot_count());
    EXPECT_EQ(compacted.heap_bytes(),
              code_bytes * vocabulary + 4 * compacted.slot_count());
    for (const TokenTable* table : {&std::as_const(sized), &compacted}) {
      EXPECT_EQ(CodesOf(*table), CodesOf(grown));
      for (int32_t id = 0; id < static_cast<int32_t>(vocabulary); ++id) {
        EXPECT_EQ(table->CodeAt(id), grown.CodeAt(id));
        EXPECT_EQ(table->Find(grown.CodeAt(id)), id);
      }
      size_t absent = 0;
      for (const WordCode& probe : probes) {
        EXPECT_EQ(table->Find(probe), grown.Find(probe));
        absent += grown.Find(probe) < 0;
      }
      EXPECT_GT(absent, 0u);
    }
  }
  // A narrow table finds no code with high bits set.
  const WordCodec narrow(10, 10);
  TokenTable table(narrow);
  const WordCode code = narrow.PackText("abcdefghij");
  table.Intern(code);
  EXPECT_EQ(table.Find(WordCode{1, code.lo}), -1);
}

// ------------------------------------------------------ numerosity (Eq. 2/3)

TEST(NumerosityTest, PaperExampleEq2ToEq3) {
  // S = ba,ba,ba,dc,dc,aa,ac,ac with ids ba=0, dc=1, aa=2, ac=3.
  std::vector<int32_t> raw{0, 0, 0, 1, 1, 2, 3, 3};
  auto reduced = NumerosityReduce(raw);
  EXPECT_EQ(reduced.tokens, (std::vector<int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(reduced.offsets, (std::vector<size_t>{0, 3, 5, 6}));
}

TEST(NumerosityTest, DisabledIsIdentity) {
  std::vector<int32_t> raw{0, 0, 1, 1};
  auto reduced = NumerosityReduce(raw, /*enabled=*/false);
  EXPECT_EQ(reduced.tokens, raw);
  EXPECT_EQ(reduced.offsets, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(NumerosityTest, EmptyInput) {
  auto reduced = NumerosityReduce(std::vector<int32_t>{});
  EXPECT_TRUE(reduced.tokens.empty());
}

TEST(NumerosityTest, ExpandRoundTrip) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int32_t> raw;
    const int runs = 1 + static_cast<int>(rng.UniformInt(0, 20));
    for (int r = 0; r < runs; ++r) {
      const auto tok = static_cast<int32_t>(rng.UniformInt(0, 4));
      const auto rep = static_cast<int>(rng.UniformInt(1, 5));
      for (int i = 0; i < rep; ++i) raw.push_back(tok);
    }
    auto reduced = NumerosityReduce(raw);
    EXPECT_EQ(NumerosityExpand(reduced, raw.size()), raw);
  }
}

TEST(NumerosityTest, AlternatingTokensNotReduced) {
  std::vector<int32_t> raw{0, 1, 0, 1};
  auto reduced = NumerosityReduce(raw);
  EXPECT_EQ(reduced.tokens, raw);
}

// ---------------------------------------------------------------- encoder

TEST(SaxWordTest, KnownSubsequenceWord) {
  // Ramp: z-normalized PAA coefficients ascend, so the word's symbols must
  // be non-decreasing and span the alphabet extremes.
  std::vector<double> ramp{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  auto word = SaxWordForSubsequence(ramp, 4, 4);
  ASSERT_TRUE(word.ok());
  EXPECT_EQ(word.value(), "abcd");
}

TEST(SaxWordTest, FlatSubsequenceMapsToMiddleSymbols) {
  std::vector<double> flat(16, 3.0);
  auto w3 = SaxWordForSubsequence(flat, 4, 3);
  ASSERT_TRUE(w3.ok());
  EXPECT_EQ(w3.value(), "bbbb");  // 0 falls in the middle region for a=3
  auto w4 = SaxWordForSubsequence(flat, 4, 4);
  ASSERT_TRUE(w4.ok());
  EXPECT_EQ(w4.value(), "cccc");  // boundary 0 belongs to the upper region
}

TEST(SaxWordTest, InvalidParamsRejected) {
  std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_FALSE(SaxWordForSubsequence(v, 5, 4).ok());   // w > n
  EXPECT_FALSE(SaxWordForSubsequence(v, 2, 1).ok());   // a < 2
  EXPECT_FALSE(SaxWordForSubsequence(v, 2, 100).ok()); // a > max
}

// The public SaxWord is the one-window DiscretizeSeries, rendered: the same
// word over an (n, w, a) grid, on real-valued and on integer-valued inputs.
// The grid includes w = 1 with even a, where the one coefficient is the
// window mean minus itself, exactly the middle breakpoint 0; integer inputs
// put more coefficients exactly on it.
TEST(SaxWordTest, EqualsSingleWindowDiscretization) {
  Rng rng(31);
  size_t cases = 0;
  for (const size_t n : {2u, 3u, 8u, 13u, 40u, 97u}) {
    for (const bool integer_valued : {false, true}) {
      std::vector<double> v(n);
      double x = 0.0;
      for (double& y : v) {
        x += integer_valued ? static_cast<double>(rng.UniformInt(-2, 2))
                            : rng.Gaussian();
        y = x;
      }
      for (int w = 1; w <= std::min(10, static_cast<int>(n)); ++w) {
        for (const int a : {2, 3, 4, 7, 10}) {
          SaxParams p;
          p.window_length = n;
          p.paa_size = w;
          p.alphabet_size = a;
          p.numerosity_reduction = false;
          const auto one = DiscretizeSeries(v, p);
          ASSERT_TRUE(one.ok()) << one.status().ToString();
          ASSERT_EQ(one->seq.size(), 1u);
          const auto word = egi::SaxWord(v, w, a);
          ASSERT_TRUE(word.ok()) << word.status().ToString();
          EXPECT_EQ(*word, one->table.Word(one->seq.tokens[0]))
              << "n=" << n << " w=" << w << " a=" << a
              << (integer_valued ? " integer" : " real");
          ++cases;
        }
      }
    }
  }
  EXPECT_GT(cases, 400u);
}

TEST(SaxWordTest, RejectsNonFiniteValues) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
    v[2] = bad;
    const auto word = egi::SaxWord(v, 3, 4);
    ASSERT_FALSE(word.ok()) << bad;
    EXPECT_EQ(word.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(DiscretizeTest, RejectsUnpackableWordConfigurations) {
  // ValidateSaxParams enforces w * BitsPerSymbol(a) <= 128 so every layer
  // downstream may assume words pack into one WordCode.
  std::vector<double> v(300, 0.0);
  SaxParams p;
  p.window_length = 100;
  p.paa_size = 22;
  p.alphabet_size = 64;  // 22 * 6 = 132 bits: rejected
  EXPECT_FALSE(DiscretizeSeries(v, p).ok());
  p.paa_size = 21;  // 126 bits: the widest supported a=64 word
  EXPECT_TRUE(DiscretizeSeries(v, p).ok());
  p.paa_size = 26;
  p.alphabet_size = 20;  // 26 * 5 = 130 bits: rejected
  EXPECT_FALSE(DiscretizeSeries(v, p).ok());
  p.paa_size = 25;  // 125 bits
  EXPECT_TRUE(DiscretizeSeries(v, p).ok());
}

TEST(DiscretizeTest, ValidatesParams) {
  std::vector<double> v(100, 0.0);
  SaxParams p;
  p.window_length = 0;
  EXPECT_FALSE(DiscretizeSeries(v, p).ok());
  p.window_length = 101;
  EXPECT_FALSE(DiscretizeSeries(v, p).ok());
  p.window_length = 10;
  p.paa_size = 11;
  EXPECT_FALSE(DiscretizeSeries(v, p).ok());
}

TEST(DiscretizeTest, OffsetsStrictlyIncreaseAndStartAtZero) {
  Rng rng(4);
  std::vector<double> v(500);
  for (auto& x : v) x = rng.Gaussian();
  SaxParams p;
  p.window_length = 50;
  p.paa_size = 4;
  p.alphabet_size = 4;
  auto d = DiscretizeSeries(v, p);
  ASSERT_TRUE(d.ok());
  ASSERT_FALSE(d->seq.tokens.empty());
  EXPECT_EQ(d->seq.offsets.front(), 0u);
  for (size_t i = 1; i < d->seq.offsets.size(); ++i) {
    EXPECT_LT(d->seq.offsets[i - 1], d->seq.offsets[i]);
  }
  EXPECT_LE(d->seq.offsets.back(), d->num_positions() - 1);
}

TEST(DiscretizeTest, NumerosityReductionCollapsesConstantSeries) {
  std::vector<double> v(200, 1.0);
  SaxParams p;
  p.window_length = 20;
  p.paa_size = 4;
  p.alphabet_size = 4;
  auto d = DiscretizeSeries(v, p);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->seq.size(), 1u);  // one token after reduction
}

TEST(DiscretizeTest, WithoutReductionOneTokenPerPosition) {
  std::vector<double> v(100, 1.0);
  SaxParams p;
  p.window_length = 10;
  p.paa_size = 2;
  p.alphabet_size = 2;
  p.numerosity_reduction = false;
  auto d = DiscretizeSeries(v, p);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->seq.size(), 91u);
}

TEST(DiscretizeTest, PeriodicSeriesYieldsRepeatingTokens) {
  std::vector<double> v(400);
  for (size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / 40.0);
  SaxParams p;
  p.window_length = 40;
  p.paa_size = 4;
  p.alphabet_size = 3;
  auto d = DiscretizeSeries(v, p);
  ASSERT_TRUE(d.ok());
  // Perfectly periodic data: far fewer distinct words than tokens.
  EXPECT_LT(d->table.size(), d->seq.size());
}

// ----------------------------------------------------- multi-res encoder

class MultiResEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MultiResEquivalenceTest, MatchesSingleResolutionEncoder) {
  const auto [w, a] = GetParam();
  Rng rng(static_cast<uint64_t>(w) * 31 + static_cast<uint64_t>(a));
  std::vector<double> v(600);
  for (size_t i = 0; i < v.size(); ++i)
    v[i] = rng.Gaussian() + std::sin(static_cast<double>(i) / 15.0);

  const size_t n = 60;
  SaxParams p;
  p.window_length = n;
  p.paa_size = w;
  p.alphabet_size = a;
  const DiscretizedSeries reference = ReferenceDiscretize(v, p);

  MultiResSaxEncoder encoder(v, n, /*amax=*/20);
  auto multi = encoder.Encode(w, a);
  ASSERT_TRUE(multi.ok());
  ExpectSameDiscretization(*multi, reference);

  auto direct = DiscretizeSeries(v, p);
  ASSERT_TRUE(direct.ok());
  ExpectSameDiscretization(*direct, reference);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiResEquivalenceTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 7, 10, 15, 20),
                       ::testing::Values(2, 3, 4, 7, 10, 15, 20)));

TEST(MultiResEncoderTest, EncodeAllMatchesIndividualEncodes) {
  Rng rng(77);
  std::vector<double> v(400);
  for (auto& x : v) x = rng.Gaussian();
  MultiResSaxEncoder encoder(v, 40, 10);

  std::vector<WaParam> params{{2, 5}, {4, 4}, {4, 9}, {7, 2}, {10, 10}};
  auto batch = encoder.EncodeAll(params);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    auto single = encoder.Encode(params[i].paa_size, params[i].alphabet_size);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batch)[i].seq.tokens, single->seq.tokens) << "param " << i;
    EXPECT_EQ((*batch)[i].seq.offsets, single->seq.offsets) << "param " << i;
  }
}

TEST(MultiResEncoderTest, EncodeAllMatchesPerPositionReference) {
  // One batch mixing widths: three alphabets share w = 5, a 64-bit word
  // (16 x 4 bits) fills the narrow accumulator exactly, and the w = 13 and
  // w = 20 words (65 and 100 bits) take the 128-bit path. Both numerosity
  // settings; a flat stretch exercises the all-zero coefficient rows.
  Rng rng(2024);
  std::vector<double> v(700);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = rng.Gaussian() + 2.0 * std::sin(static_cast<double>(i) / 9.0);
  }
  for (size_t i = 300; i < 380; ++i) v[i] = 4.0;
  const size_t n = 64;
  const std::vector<WaParam> params{{5, 2},  {16, 16}, {5, 20}, {13, 20},
                                    {2, 3},  {5, 7},   {20, 20}};
  for (const bool numerosity : {false, true}) {
    SCOPED_TRACE(numerosity ? "numerosity on" : "numerosity off");
    MultiResSaxEncoder encoder(v, n, /*amax=*/20, numerosity);
    auto batch = encoder.EncodeAll(params);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      SCOPED_TRACE("param " + std::to_string(i));
      SaxParams p;
      p.window_length = n;
      p.paa_size = params[i].paa_size;
      p.alphabet_size = params[i].alphabet_size;
      p.numerosity_reduction = numerosity;
      const DiscretizedSeries reference = ReferenceDiscretize(v, p);
      ExpectSameDiscretization((*batch)[i], reference);
      if (!numerosity) {
        EXPECT_EQ(reference.seq.size(), v.size() - n + 1);
      }
    }
  }
}

TEST(MultiResEncoderTest, RejectsAlphabetBeyondAmax) {
  std::vector<double> v(100, 0.0);
  MultiResSaxEncoder encoder(v, 10, 8);
  EXPECT_FALSE(encoder.Encode(4, 9).ok());
  EXPECT_TRUE(encoder.Encode(4, 8).ok());
}

TEST(MultiResEncoderTest, RejectsInvalidPaaSize) {
  std::vector<double> v(100, 0.0);
  MultiResSaxEncoder encoder(v, 10, 8);
  EXPECT_FALSE(encoder.Encode(11, 4).ok());  // w > window
  EXPECT_FALSE(encoder.Encode(0, 4).ok());
}

}  // namespace
}  // namespace egi::sax

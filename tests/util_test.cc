#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string_view>
#include <limits>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/env.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace egi {
namespace {

// ----------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsCarryCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::InvalidArgument("bad arg").message(), "bad arg");
}

TEST(StatusTest, ToStringIncludesCodeName) {
  EXPECT_EQ(Status::InvalidArgument("w too big").ToString(),
            "InvalidArgument: w too big");
}

TEST(StatusTest, StreamOperator) {
  std::ostringstream os;
  os << Status::NotFound("gone");
  EXPECT_EQ(os.str(), "NotFound: gone");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

Status FailingHelper() { return Status::OutOfRange("helper"); }

Status PropagationSite() {
  EGI_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(PropagationSite().code(), StatusCode::kOutOfRange);
}

// ----------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterViaMacro(int x) {
  EGI_ASSIGN_OR_RETURN(int half, HalveEven(x));
  EGI_ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnHappyPath) {
  auto r = QuarterViaMacro(8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 2);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  EXPECT_FALSE(QuarterViaMacro(6).ok());  // 6 -> 3, second halving fails
  EXPECT_FALSE(QuarterViaMacro(7).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(2, 10);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 10);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 9u);  // all values hit
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SampleWithoutReplacementUniqueAndInRange) {
  Rng rng(29);
  auto sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t s : sample) EXPECT_LT(s, 50u);
}

TEST(RngTest, SampleWholePopulation) {
  Rng rng(31);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(41);
  Rng child = a.Fork();
  // The child stream should not replay the parent's outputs.
  Rng reference(41);
  reference.NextUint64();  // parent consumed one draw to fork
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.NextUint64() == reference.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// -------------------------------------------------------------------- CSV

TEST(CsvTest, EscapePlainFieldUnchanged) {
  EXPECT_EQ(CsvWriter::EscapeField("abc"), "abc");
}

TEST(CsvTest, EscapeComma) {
  EXPECT_EQ(CsvWriter::EscapeField("a,b"), "\"a,b\"");
}

TEST(CsvTest, EscapeQuote) {
  EXPECT_EQ(CsvWriter::EscapeField("a\"b"), "\"a\"\"b\"");
}

TEST(CsvTest, EscapeNewline) {
  EXPECT_EQ(CsvWriter::EscapeField("a\nb"), "\"a\nb\"");
}

TEST(CsvTest, WritesRowsToFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "egi_csv_test.csv").string();
  {
    CsvWriter w(path);
    ASSERT_TRUE(w.ok());
    w.WriteRow({"h1", "h,2"});
    w.WriteNumericRow({1.5, 2.0});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "h1,\"h,2\"");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2");
  std::filesystem::remove(path);
}

// ------------------------------------------------------------------ Flags

TEST(FlagsTest, CountReadsNonNegativeSizesAndRejectsNegativeOnes) {
  char prog[] = "egid";
  char window[] = "--window=-3";
  char buffer[] = "--buffer=256";
  char queue[] = "--queue-capacity";
  char queue_value[] = "0";
  char* argv[] = {prog, window, buffer, queue, queue_value};
  const Flags flags(5, argv);

  size_t out = 99;
  const Status negative = flags.Count("window", 64, nullptr, &out);
  EXPECT_EQ(negative.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(negative.message(), "--window must be >= 0, got -3");
  EXPECT_EQ(out, 99u);  // untouched on error

  ASSERT_TRUE(flags.Count("buffer", 4096, nullptr, &out).ok());
  EXPECT_EQ(out, 256u);
  ASSERT_TRUE(flags.Count("queue-capacity", 8192, nullptr, &out).ok());
  EXPECT_EQ(out, 0u);
  ASSERT_TRUE(flags.Count("refit-interval", 512, nullptr, &out).ok());
  EXPECT_EQ(out, 512u);

  // The environment twin is held to the same rule, and the error names the
  // variable; a flag on the command line wins over it.
  ::setenv("EGI_TEST_COUNT", "-1", 1);
  EXPECT_EQ(flags.Count("refit-interval", 512, "EGI_TEST_COUNT", &out)
                .message(),
            "EGI_TEST_COUNT must be >= 0, got -1");
  EXPECT_EQ(flags.Count("window", 64, "EGI_TEST_COUNT", &out).message(),
            "--window must be >= 0, got -3");
  ASSERT_TRUE(flags.Count("buffer", 4096, "EGI_TEST_COUNT", &out).ok());
  EXPECT_EQ(out, 256u);
  ::setenv("EGI_TEST_COUNT", "17", 1);
  ASSERT_TRUE(flags.Count("refit-interval", 512, "EGI_TEST_COUNT", &out).ok());
  EXPECT_EQ(out, 17u);
  ::unsetenv("EGI_TEST_COUNT");
}

TEST(FlagsTest, NumericFlagsParseTheWholeValue) {
  char prog[] = "egid";
  char buffer[] = "--buffer=4k";
  char window[] = "--window=abc";
  char queue[] = "--queue-capacity=";
  char http_port[] = "--http-port= 8080 ";
  char rate[] = "--points-per-second=2.5e3";
  char burst[] = "--quota-burst=1.5x";
  char interval[] = "--checkpoint-interval=nan";
  char* argv[] = {prog,      buffer, window, queue,
                  http_port, rate,   burst,  interval};
  const Flags flags(8, argv);

  // A unit suffix, garbage or an empty value is an error naming the flag,
  // never a truncated number; the output keeps its value.
  size_t size = 99;
  EXPECT_EQ(flags.Count("buffer", 4096, nullptr, &size).message(),
            "--buffer expects an integer, got '4k'");
  EXPECT_EQ(flags.Count("window", 64, nullptr, &size).message(),
            "--window expects an integer, got 'abc'");
  EXPECT_EQ(flags.Count("queue-capacity", 8192, nullptr, &size).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(size, 99u);
  int port = -1;
  EXPECT_EQ(flags.Int("http-port", 0, nullptr, &port).message(),
            "--http-port expects an integer, got ' 8080 '");
  EXPECT_EQ(port, -1);
  double value = -1.0;
  ASSERT_TRUE(flags.Double("points-per-second", 0.0, nullptr, &value).ok());
  EXPECT_EQ(value, 2500.0);
  EXPECT_EQ(flags.Double("quota-burst", 0.0, nullptr, &value).message(),
            "--quota-burst expects a finite number, got '1.5x'");
  EXPECT_EQ(flags.Double("checkpoint-interval", 0.0, nullptr, &value).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(value, 2500.0);

  // The environment twin is parsed the same way and named in the error; an
  // empty variable counts as unset, and a flag wins over its twin.
  ::setenv("EGI_TEST_FLAG", "8k", 1);
  EXPECT_EQ(flags.Count("refit-interval", 512, "EGI_TEST_FLAG", &size)
                .message(),
            "EGI_TEST_FLAG expects an integer, got '8k'");
  EXPECT_EQ(flags.Int("ingest-port", 0, "EGI_TEST_FLAG", &port).message(),
            "EGI_TEST_FLAG expects an integer, got '8k'");
  EXPECT_EQ(flags.Count("buffer", 4096, "EGI_TEST_FLAG", &size).message(),
            "--buffer expects an integer, got '4k'");
  ::setenv("EGI_TEST_FLAG", "0.25", 1);
  ASSERT_TRUE(flags.Double("probe-interval", 1.0, "EGI_TEST_FLAG", &value)
                  .ok());
  EXPECT_EQ(value, 0.25);
  ASSERT_TRUE(flags.Double("points-per-second", 0.0, "EGI_TEST_FLAG", &value)
                  .ok());
  EXPECT_EQ(value, 2500.0);
  EXPECT_EQ(flags.Int("ingest-port", 0, "EGI_TEST_FLAG", &port).message(),
            "EGI_TEST_FLAG expects an integer, got '0.25'");
  ::setenv("EGI_TEST_FLAG", "8081", 1);
  ASSERT_TRUE(flags.Int("ingest-port", 0, "EGI_TEST_FLAG", &port).ok());
  EXPECT_EQ(port, 8081);
  ::setenv("EGI_TEST_FLAG", "", 1);
  ASSERT_TRUE(flags.Count("refit-interval", 512, "EGI_TEST_FLAG", &size).ok());
  EXPECT_EQ(size, 512u);
  ::unsetenv("EGI_TEST_FLAG");
}

// -------------------------------------------------------------------- Env

TEST(EnvTest, IntFallbackWhenUnset) {
  ::unsetenv("EGI_TEST_INT");
  EXPECT_EQ(GetEnvInt("EGI_TEST_INT", 7), 7);
}

TEST(EnvTest, IntParsed) {
  ::setenv("EGI_TEST_INT", "42", 1);
  EXPECT_EQ(GetEnvInt("EGI_TEST_INT", 7), 42);
  ::unsetenv("EGI_TEST_INT");
}

TEST(EnvTest, IntGarbageFallsBack) {
  ::setenv("EGI_TEST_INT", "4x2", 1);
  EXPECT_EQ(GetEnvInt("EGI_TEST_INT", 7), 7);
  ::unsetenv("EGI_TEST_INT");
}

TEST(EnvTest, IntOutOfRangeFallsBack) {
  // strtoll saturates these to LLONG_MAX/MIN with errno == ERANGE; the
  // clamp must not leak through as a parsed value.
  ::setenv("EGI_TEST_INT", "99999999999999999999999999", 1);
  EXPECT_EQ(GetEnvInt("EGI_TEST_INT", 7), 7);
  ::setenv("EGI_TEST_INT", "-99999999999999999999999999", 1);
  EXPECT_EQ(GetEnvInt("EGI_TEST_INT", 7), 7);
  ::unsetenv("EGI_TEST_INT");
}

TEST(EnvTest, IntLimitsStillParse) {
  ::setenv("EGI_TEST_INT", "9223372036854775807", 1);
  EXPECT_EQ(GetEnvInt("EGI_TEST_INT", 7),
            std::numeric_limits<int64_t>::max());
  ::setenv("EGI_TEST_INT", "-9223372036854775808", 1);
  EXPECT_EQ(GetEnvInt("EGI_TEST_INT", 7),
            std::numeric_limits<int64_t>::min());
  ::unsetenv("EGI_TEST_INT");
}

TEST(EnvTest, BoolVariants) {
  ::setenv("EGI_TEST_BOOL", "TRUE", 1);
  EXPECT_TRUE(GetEnvBool("EGI_TEST_BOOL", false));
  ::setenv("EGI_TEST_BOOL", "0", 1);
  EXPECT_FALSE(GetEnvBool("EGI_TEST_BOOL", true));
  ::setenv("EGI_TEST_BOOL", "banana", 1);
  EXPECT_TRUE(GetEnvBool("EGI_TEST_BOOL", true));
  ::unsetenv("EGI_TEST_BOOL");
}

TEST(EnvTest, StringFallback) {
  ::unsetenv("EGI_TEST_STR");
  EXPECT_EQ(GetEnvString("EGI_TEST_STR", "dflt"), "dflt");
  ::setenv("EGI_TEST_STR", "value", 1);
  EXPECT_EQ(GetEnvString("EGI_TEST_STR", "dflt"), "value");
  ::unsetenv("EGI_TEST_STR");
}

TEST(EnvTest, IntWhitespaceSymmetric) {
  // strtoll accepts leading whitespace; trailing whitespace must be
  // accepted symmetrically (daemon config leans on these parsers).
  ::setenv("EGI_TEST_INT", " 4", 1);
  EXPECT_EQ(GetEnvInt("EGI_TEST_INT", 7), 4);
  ::setenv("EGI_TEST_INT", "4 ", 1);
  EXPECT_EQ(GetEnvInt("EGI_TEST_INT", 7), 4);
  ::setenv("EGI_TEST_INT", " 4 \t\n", 1);
  EXPECT_EQ(GetEnvInt("EGI_TEST_INT", 7), 4);
  // Whitespace *inside* the number, or garbage after the spaces, still
  // falls back — the skip only widens the boundary, never the grammar.
  ::setenv("EGI_TEST_INT", "4 2", 1);
  EXPECT_EQ(GetEnvInt("EGI_TEST_INT", 7), 7);
  ::setenv("EGI_TEST_INT", "4 x", 1);
  EXPECT_EQ(GetEnvInt("EGI_TEST_INT", 7), 7);
  ::setenv("EGI_TEST_INT", "   ", 1);
  EXPECT_EQ(GetEnvInt("EGI_TEST_INT", 7), 7);
  ::unsetenv("EGI_TEST_INT");
}

TEST(EnvTest, BoolWhitespaceTolerant) {
  ::setenv("EGI_TEST_BOOL", " true ", 1);
  EXPECT_TRUE(GetEnvBool("EGI_TEST_BOOL", false));
  ::setenv("EGI_TEST_BOOL", "0\n", 1);
  EXPECT_FALSE(GetEnvBool("EGI_TEST_BOOL", true));
  ::unsetenv("EGI_TEST_BOOL");
}

// ------------------------------------------------------------------- JSON

// Hostile label strings of the kind the egid daemon's /metrics endpoint
// exposes to real parsers: quotes, backslashes, control characters, DEL,
// multi-byte UTF-8.
const char* const kHostileStrings[] = {
    "plain",
    "quote\"inside",
    "back\\slash",
    "both\\\"mixed\\\"",
    "new\nline\ttab\rcr",
    "bell\x07null-adjacent\x01\x1f",
    "backspace\b formfeed\f",
    "trailing backslash\\",
    "\"", "\\", "",
    "unicode \xc3\xa9\xe2\x82\xac ok",
    "del\x7f char",
};

TEST(JsonTest, EscapeUnescapeRoundTripsHostileStrings) {
  for (const char* s : kHostileStrings) {
    const std::string escaped = JsonEscape(s);
    // The escaped form must contain no raw control character, and
    // JsonUnescape (which rejects unescaped quotes and controls) must
    // accept it — together: safe inside a JSON string literal.
    for (const char c : escaped) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << s;
    }
    std::string decoded;
    ASSERT_TRUE(JsonUnescape(escaped, &decoded)) << s;
    EXPECT_EQ(decoded, s);
  }
}

TEST(JsonTest, EscapeUsesShortFormsForCommonControls) {
  EXPECT_EQ(JsonEscape("\n\t\r\b\f"), "\\n\\t\\r\\b\\f");
  EXPECT_EQ(JsonEscape("\x01"), "\\u0001");
  EXPECT_EQ(JsonEscape("q\"b\\"), "q\\\"b\\\\");
}

TEST(JsonTest, QuoteWrapsEscaped) {
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
}

TEST(JsonTest, UnescapeHandlesUnicodeEscapes) {
  std::string out;
  ASSERT_TRUE(JsonUnescape("caf\\u00e9", &out));
  EXPECT_EQ(out, "caf\xc3\xa9");
  ASSERT_TRUE(JsonUnescape("\\u20ac", &out));
  EXPECT_EQ(out, "\xe2\x82\xac");
  // Surrogate pair: U+1F600.
  ASSERT_TRUE(JsonUnescape("\\ud83d\\ude00", &out));
  EXPECT_EQ(out, "\xf0\x9f\x98\x80");
  ASSERT_TRUE(JsonUnescape("\\/", &out));
  EXPECT_EQ(out, "/");
}

TEST(JsonTest, UnescapeRejectsMalformed) {
  std::string out;
  EXPECT_FALSE(JsonUnescape("trailing\\", &out));
  EXPECT_FALSE(JsonUnescape("\\q", &out));
  EXPECT_FALSE(JsonUnescape("\\u12", &out));
  EXPECT_FALSE(JsonUnescape("\\u12zz", &out));
  EXPECT_FALSE(JsonUnescape("\\ud800 lone high", &out));
  EXPECT_FALSE(JsonUnescape("\\udc00 lone low", &out));
  EXPECT_FALSE(JsonUnescape("raw\"quote", &out));
  EXPECT_FALSE(JsonUnescape(std::string_view("raw\nnewline", 11), &out));
}

TEST(JsonTest, NumberRendersRoundTrippableOrNull) {
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  const std::string rendered = JsonNumber(0.1);
  EXPECT_DOUBLE_EQ(std::strtod(rendered.c_str(), nullptr), 0.1);
}

// ------------------------------------------------------------------ Table

TEST(JsonTest, FindUIntScansKeysAndRejectsOverflow) {
  uint64_t v = 0;
  // "stream" first appears as a value; the scan skips to the real key.
  EXPECT_TRUE(JsonFindUInt(R"({"name":"stream","stream": 42})", "stream", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(JsonFindUInt(R"({"a":18446744073709551615})", "a", &v));
  EXPECT_EQ(v, UINT64_MAX);
  v = 7;
  for (const char* body :
       {R"({"a":18446744073709551616})", R"({"a":99999999999999999999})",
        R"({"a":-1})", R"({"a":"1"})", R"({"a":})", R"({"b":1})"}) {
    EXPECT_FALSE(JsonFindUInt(body, "a", &v)) << body;
  }
  EXPECT_EQ(v, 7u);  // untouched on failure
}

TEST(JsonTest, FindStringArrayReadsFlatArrays) {
  std::vector<std::string> out;
  ASSERT_TRUE(JsonFindStringArray(R"({"a":["x","y:1"]})", "a", &out));
  EXPECT_EQ(out, (std::vector<std::string>{"x", "y:1"}));
  ASSERT_TRUE(
      JsonFindStringArray("{ \"a\" :\n[ \"x\" ,\t\"y\" ] }", "a", &out));
  EXPECT_EQ(out, (std::vector<std::string>{"x", "y"}));
  ASSERT_TRUE(JsonFindStringArray(R"({"a":[ ]})", "a", &out));
  EXPECT_TRUE(out.empty());
  // Elements decode like JsonFindString values: escaped quote, backslash
  // and \u escapes, and a "]" or "," inside a string ends nothing.
  ASSERT_TRUE(JsonFindStringArray(R"({"a":["q\"],\\","\u00e9"]})", "a",
                                  &out));
  EXPECT_EQ(out, (std::vector<std::string>{"q\"],\\", "\xc3\xa9"}));
  // "a" first appears as a value; the scan skips to the real key.
  ASSERT_TRUE(JsonFindStringArray(R"({"b":"a","a":["z"]})", "a", &out));
  EXPECT_EQ(out, (std::vector<std::string>{"z"}));
}

TEST(JsonTest, FindStringArrayRejectsMalformed) {
  std::vector<std::string> out = {"kept"};
  for (const char* body :
       {R"({"b":["x"]})", R"({"a":"x"})", R"({"a":[1]})", R"({"a":["x",2]})",
        R"({"a":["x",]})", R"({"a":["x" "y"]})", R"({"a":["x)",
        R"({"a":["x")", R"({"a":[)", R"({"a":["x\q"]})"}) {
    EXPECT_FALSE(JsonFindStringArray(body, "a", &out)) << body;
  }
  EXPECT_EQ(out, (std::vector<std::string>{"kept"}));  // untouched on failure
}

TEST(TableTest, FormatDoubleFixedPrecision) {
  EXPECT_EQ(FormatDouble(0.39514, 4), "0.3951");
  EXPECT_EQ(FormatDouble(1.0, 2), "1.00");
}

TEST(TableTest, PrintAlignsColumns) {
  TextTable t("Title");
  t.SetHeader({"Dataset", "Score"});
  t.AddRow({"Wafer", "0.31"});
  t.AddRow({"StarLightCurve", "0.94"});
  std::ostringstream os;
  t.Print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("StarLightCurve"), std::string::npos);
  // Both numeric cells right-aligned to the same column end.
  EXPECT_NE(s.find("0.31"), std::string::npos);
  EXPECT_NE(s.find("0.94"), std::string::npos);
}

TEST(TableTest, EmptyTablePrintsNothing) {
  TextTable t;
  std::ostringstream os;
  t.Print(os);
  EXPECT_TRUE(os.str().empty());
}

// -------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, MeasuresNonNegativeElapsed) {
  Stopwatch sw;
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  sw.Restart();
  EXPECT_GE(sw.ElapsedMillis(), 0.0);
}

}  // namespace
}  // namespace egi

// Spec-string parsing, registry resolution, and the library-wide
// parallelism default — the validation surface of the public front door
// (include/egi/). Edge cases: unknown/duplicate keys, empty values,
// out-of-range values, (w, a) combinations the packed word code rejects,
// and Spec -> ToString -> Spec round trips.

#include <cstdlib>

#include <gtest/gtest.h>

#include "core/ensemble.h"
#include "egi/registry.h"
#include "egi/session.h"
#include "egi/spec.h"
#include "eval/experiment.h"
#include "exec/parallel.h"

namespace egi {
namespace {

// ----------------------------------------------------------------- parsing

TEST(DetectorSpecTest, ParsesMethodOnly) {
  auto spec = DetectorSpec::Parse("ensemble");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->method, "ensemble");
  EXPECT_TRUE(spec->options.empty());
}

TEST(DetectorSpecTest, ParsesOptionsInOrder) {
  auto spec = DetectorSpec::Parse("ensemble:wmax=10,amax=8,tau=0.4");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->method, "ensemble");
  ASSERT_EQ(spec->options.size(), 3u);
  EXPECT_EQ(spec->options[0], (std::pair<std::string, std::string>{"wmax",
                                                                   "10"}));
  EXPECT_EQ(spec->options[1], (std::pair<std::string, std::string>{"amax",
                                                                   "8"}));
  EXPECT_EQ(spec->options[2], (std::pair<std::string, std::string>{"tau",
                                                                   "0.4"}));
}

TEST(DetectorSpecTest, TrimsWhitespace) {
  auto spec = DetectorSpec::Parse("  ensemble : wmax = 10 , tau = 0.5 ");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->method, "ensemble");
  ASSERT_EQ(spec->options.size(), 2u);
  EXPECT_EQ(spec->options[0].first, "wmax");
  EXPECT_EQ(spec->options[0].second, "10");
}

TEST(DetectorSpecTest, RejectsEmptyMethod) {
  EXPECT_FALSE(DetectorSpec::Parse("").ok());
  EXPECT_FALSE(DetectorSpec::Parse(":wmax=10").ok());
  EXPECT_FALSE(DetectorSpec::Parse("   ").ok());
}

TEST(DetectorSpecTest, RejectsEmptyOption) {
  // Nothing after the colon, dangling comma, or a hole in the list.
  EXPECT_FALSE(DetectorSpec::Parse("ensemble:").ok());
  EXPECT_FALSE(DetectorSpec::Parse("ensemble:wmax=10,").ok());
  EXPECT_FALSE(DetectorSpec::Parse("ensemble:wmax=10,,amax=8").ok());
}

TEST(DetectorSpecTest, RejectsMissingEqualsOrEmptyKeyOrValue) {
  EXPECT_FALSE(DetectorSpec::Parse("ensemble:wmax").ok());
  EXPECT_FALSE(DetectorSpec::Parse("ensemble:=10").ok());
  const auto empty_value = DetectorSpec::Parse("ensemble:wmax=");
  ASSERT_FALSE(empty_value.ok());
  EXPECT_NE(empty_value.status().message().find("empty value"),
            std::string::npos);
}

TEST(DetectorSpecTest, RejectsDuplicateKey) {
  const auto dup = DetectorSpec::Parse("ensemble:wmax=10,wmax=9");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.status().message().find("duplicate"), std::string::npos);
}

TEST(DetectorSpecTest, RoundTripsThroughToString) {
  for (const char* text : {
           "ensemble",
           "ensemble:wmax=10,amax=8,n=25,tau=0.4,seed=7,threads=2",
           "gi-fix:w=6,a=3",
           "discord:threads=4",
       }) {
    const auto spec = DetectorSpec::Parse(text);
    ASSERT_TRUE(spec.ok()) << text;
    const std::string rendered = spec->ToString();
    const auto reparsed = DetectorSpec::Parse(rendered);
    ASSERT_TRUE(reparsed.ok()) << rendered;
    EXPECT_EQ(*spec, *reparsed) << rendered;
    EXPECT_EQ(reparsed->ToString(), rendered);
  }
}

// ---------------------------------------------------------------- registry

TEST(RegistryTest, ListsThePaperMethodsInOrder) {
  const auto detectors = ListDetectors();
  ASSERT_EQ(detectors.size(), 5u);
  EXPECT_EQ(detectors[0].name, "ensemble");
  EXPECT_EQ(detectors[1].name, "gi-random");
  EXPECT_EQ(detectors[2].name, "gi-fix");
  EXPECT_EQ(detectors[3].name, "gi-select");
  EXPECT_EQ(detectors[4].name, "discord");
  EXPECT_TRUE(detectors[0].supports_streaming);
  EXPECT_TRUE(detectors[0].supports_score);
  EXPECT_FALSE(detectors[4].supports_streaming);
}

TEST(RegistryTest, FindDetector) {
  ASSERT_NE(FindDetector("ensemble"), nullptr);
  EXPECT_EQ(FindDetector("ensemble")->name, "ensemble");
  EXPECT_EQ(FindDetector("no-such-method"), nullptr);
}

TEST(RegistryTest, FormatDetectorListHasOneLinePerDetectorWithSchema) {
  const std::string listing = FormatDetectorList();
  size_t lines = 0;
  for (const char c : listing) lines += c == '\n';
  EXPECT_EQ(lines, ListDetectors().size());
  for (const auto& info : ListDetectors()) {
    EXPECT_NE(listing.find(std::string(info.name) + ":"), std::string::npos);
    for (const auto& opt : info.options) {
      EXPECT_NE(listing.find(std::string(opt.key) + "="), std::string::npos);
    }
  }
}

TEST(RegistryTest, MethodSpecNamesMatchRegistry) {
  for (const auto& m : eval::PaperMethods(50, 1)) {
    auto spec = DetectorSpec::Parse(m.spec);
    ASSERT_TRUE(spec.ok()) << m.spec;
    EXPECT_NE(FindDetector(spec->method), nullptr) << m.label;
  }
}

// ------------------------------------------------------- session validation

TEST(SessionOpenTest, UnknownMethodIsNotFound) {
  const auto session = Session::Open("hotsax");
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kNotFound);
  // The error lists what is registered.
  EXPECT_NE(session.status().message().find("ensemble"), std::string::npos);
}

TEST(SessionOpenTest, UnknownKeyIsRejectedWithSchemaInMessage) {
  const auto session = Session::Open("ensemble:window=82");
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(session.status().message().find("window"), std::string::npos);
  EXPECT_NE(session.status().message().find("wmax"), std::string::npos);
}

TEST(SessionOpenTest, KeysAreSchemaScoped) {
  // threads is an ensemble/discord key; the single-run baselines reject it.
  EXPECT_TRUE(Session::Open("ensemble:threads=2").ok());
  EXPECT_TRUE(Session::Open("discord:threads=2").ok());
  EXPECT_FALSE(Session::Open("gi-fix:threads=2").ok());
  EXPECT_FALSE(Session::Open("gi-random:threads=2").ok());
}

TEST(SessionOpenTest, MalformedValuesAreRejected) {
  EXPECT_FALSE(Session::Open("ensemble:wmax=ten").ok());
  EXPECT_FALSE(Session::Open("ensemble:wmax=7.5").ok());
  EXPECT_FALSE(Session::Open("ensemble:tau=zero.four").ok());
  EXPECT_FALSE(Session::Open("ensemble:seed=-1").ok());
  EXPECT_FALSE(Session::Open("ensemble:tau=nan").ok());
  EXPECT_FALSE(Session::Open("ensemble:tau=inf").ok());
}

TEST(SessionOpenTest, ProgrammaticDuplicateKeysAreRejectedToo) {
  // The duplicate-key contract holds for hand-assembled specs, not only
  // for parsed strings.
  DetectorSpec spec;
  spec.method = "ensemble";
  spec.options = {{"n", "10"}, {"n", "99"}};
  const auto session = Session::Open(spec);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(session.status().message().find("duplicate"), std::string::npos);
}

TEST(SessionOpenTest, IntOptionsBeyondIntRangeAreRejectedNotWrapped) {
  // 2^32 + 2 would silently narrow to 2 if cast; it must be an error.
  const auto wide = Session::Open("ensemble:wmax=4294967298");
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(Session::Open("ensemble:threads=4294967297").ok());
  EXPECT_FALSE(Session::Open("ensemble:n=2147483648").ok());
  EXPECT_TRUE(Session::Open("ensemble:n=2147483647").ok());
}

TEST(SessionOpenTest, OutOfRangeTauIsRejected) {
  for (const char* spec :
       {"ensemble:tau=0", "ensemble:tau=-0.4", "ensemble:tau=1.5"}) {
    const auto session = Session::Open(spec);
    ASSERT_FALSE(session.ok()) << spec;
    EXPECT_EQ(session.status().code(), StatusCode::kOutOfRange) << spec;
  }
  EXPECT_TRUE(Session::Open("ensemble:tau=1").ok());
  EXPECT_TRUE(Session::Open("ensemble:tau=0.01").ok());
}

TEST(SessionOpenTest, OutOfRangeSizesAreRejected) {
  EXPECT_FALSE(Session::Open("ensemble:wmax=1").ok());
  EXPECT_FALSE(Session::Open("ensemble:amax=1").ok());
  EXPECT_FALSE(Session::Open("ensemble:amax=65").ok());
  EXPECT_FALSE(Session::Open("ensemble:n=0").ok());
  EXPECT_FALSE(Session::Open("ensemble:threads=0").ok());
  EXPECT_FALSE(Session::Open("discord:threads=0").ok());
  EXPECT_FALSE(Session::Open("gi-select:train=0").ok());
  EXPECT_FALSE(Session::Open("gi-select:train=1.1").ok());
}

TEST(SessionOpenTest, WordCodeOverflowCombosAreRejectedLikeValidateSaxParams) {
  // w * bits-per-symbol(a) > 128 — the combinations ValidateSaxParams
  // rejects at detect time are already rejected at spec time.
  for (const char* spec : {"ensemble:wmax=64,amax=64", "ensemble:wmax=33,amax=16",
                           "gi-fix:w=22,a=64", "gi-random:wmax=129,amax=2",
                           "gi-select:wmax=43,amax=8"}) {
    const auto session = Session::Open(spec);
    ASSERT_FALSE(session.ok()) << spec;
    EXPECT_EQ(session.status().code(), StatusCode::kOutOfRange) << spec;
    EXPECT_NE(session.status().message().find("packed word code"),
              std::string::npos)
        << spec;
  }
  // The paper's widest sweep configurations still fit.
  EXPECT_TRUE(Session::Open("ensemble:wmax=20,amax=20").ok());
  EXPECT_TRUE(Session::Open("gi-fix:w=21,a=64").ok());
}

TEST(SessionOpenTest, CanonicalSpecRoundTripsToTheSameSession) {
  auto session = Session::Open("ensemble:tau=0.25,n=10");
  ASSERT_TRUE(session.ok());
  const std::string canonical = session->spec();
  // Canonical form lists every schema key in schema order.
  for (const auto& opt : session->info().options) {
    EXPECT_NE(canonical.find(std::string(opt.key) + "="), std::string::npos)
        << canonical;
  }
  auto reopened = Session::Open(canonical);
  ASSERT_TRUE(reopened.ok()) << canonical;
  EXPECT_EQ(reopened->spec(), canonical);
}

// --------------------------------------------------------- threads default

// The one documented parallelism default, shared by every layer:
// EGI_NUM_THREADS, falling back to hardware_concurrency (FromEnv).
TEST(ThreadsDefaultTest, AllConfigSurfacesAgreeOnFromEnv) {
  const int from_env = exec::Parallelism::FromEnv().threads;
  EXPECT_EQ(core::EnsembleParams{}.parallelism.threads, from_env);
  EXPECT_EQ(eval::ExperimentConfig{}.parallelism.threads, from_env);

  auto session = Session::Open("ensemble");
  ASSERT_TRUE(session.ok());
  EXPECT_NE(session->spec().find("threads=" + std::to_string(from_env)),
            std::string::npos)
      << session->spec();
}

TEST(ThreadsDefaultTest, RegistryDefaultFollowsEgiNumThreads) {
  const char* old = std::getenv("EGI_NUM_THREADS");
  const std::string saved = old == nullptr ? "" : old;
  setenv("EGI_NUM_THREADS", "3", 1);
  auto session = Session::Open("discord");
  auto ensemble = Session::Open("ensemble");
  if (old == nullptr) {
    unsetenv("EGI_NUM_THREADS");
  } else {
    setenv("EGI_NUM_THREADS", saved.c_str(), 1);
  }
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(ensemble.ok());
  EXPECT_EQ(session->spec(), "discord:threads=3");
  EXPECT_NE(ensemble->spec().find("threads=3"), std::string::npos)
      << ensemble->spec();
  // An explicit threads= key always wins over the environment.
  auto fixed = Session::Open("ensemble:threads=2");
  ASSERT_TRUE(fixed.ok());
  EXPECT_NE(fixed->spec().find("threads=2"), std::string::npos);
}

}  // namespace
}  // namespace egi

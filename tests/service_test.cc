#include <gtest/gtest.h>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "datasets/random_walk.h"
#include "egi/session.h"
#include "egi/telemetry.h"
#include "serialize/bytes.h"
#include "serialize/file_io.h"
#include "serialize/format.h"
#include "service/frame.h"
#include "service/http.h"
#include "service/hub_service.h"
#include "util/env.h"
#include "util/json.h"
#include "util/rng.h"

extern char** environ;

namespace egi::service {
namespace {

// ------------------------------------------------------------------- HTTP

TEST(HttpTest, ParsesRequestLineHeadersAndBody) {
  const std::string raw =
      "POST /v1/streams?tail=5 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 13\r\n"
      "\r\n"
      "{\"tenant\":1}x";
  HttpRequest req;
  size_t consumed = 0;
  ASSERT_EQ(ParseHttpRequest(raw, &req, &consumed),
            HttpParseResult::kComplete);
  EXPECT_EQ(consumed, raw.size());
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/v1/streams");
  EXPECT_EQ(req.query, "tail=5");
  EXPECT_EQ(req.QueryInt("tail", 0), 5);
  EXPECT_EQ(req.QueryInt("missing", 7), 7);
  EXPECT_EQ(req.Header("content-type"), "application/json");
  EXPECT_EQ(req.Header("CONTENT-TYPE"), "application/json");  // any case
  EXPECT_EQ(req.body, "{\"tenant\":1}x");
}

TEST(HttpTest, IncrementalParseAndPipelining) {
  const std::string first = "GET /healthz HTTP/1.1\r\n\r\n";
  const std::string second = "GET /metrics HTTP/1.1\r\n\r\n";
  HttpRequest req;
  size_t consumed = 0;
  EXPECT_EQ(ParseHttpRequest(first.substr(0, 10), &req, &consumed),
            HttpParseResult::kNeedMore);
  ASSERT_EQ(ParseHttpRequest(first + second, &req, &consumed),
            HttpParseResult::kComplete);
  EXPECT_EQ(req.path, "/healthz");
  EXPECT_EQ(consumed, first.size());  // the second request stays buffered
}

TEST(HttpTest, RejectsMalformedRequests) {
  HttpRequest req;
  size_t consumed = 0;
  for (const std::string raw :
       {std::string("BOGUS\r\n\r\n"),
        std::string("GET /x BADPROTO/1.1\r\n\r\n"),
        std::string("GET noslash HTTP/1.1\r\n\r\n"),
        std::string("GET /x HTTP/1.1\r\nbadheader\r\n\r\n"),
        std::string("GET /x HTTP/1.1\r\nContent-Length: huge\r\n\r\n")}) {
    EXPECT_EQ(ParseHttpRequest(raw, &req, &consumed),
              HttpParseResult::kMalformed)
        << raw;
  }
  // An unterminated header block larger than the cap is malformed, not
  // need-more (defends against memory exhaustion by drip-feeding).
  const std::string flood(kMaxHttpHeaderBytes + 2, 'a');
  EXPECT_EQ(ParseHttpRequest(flood, &req, &consumed),
            HttpParseResult::kMalformed);
}

TEST(HttpTest, RendersContentLengthFramedResponse) {
  const std::string resp = RenderHttpResponse(200, "{\"ok\":true}");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(resp.find("\r\n\r\n{\"ok\":true}"), std::string::npos);
  const std::string error = RenderHttpError(404, "no such \"thing\"");
  EXPECT_NE(error.find("HTTP/1.1 404 Not Found"), std::string::npos);
  EXPECT_NE(error.find("{\"error\":\"no such \\\"thing\\\"\"}"),
            std::string::npos);
}

TEST(HttpTest, ParsesStreamPaths) {
  size_t id = 0;
  std::string_view suffix;
  ASSERT_TRUE(ParseStreamPath("/v1/streams/42", &id, &suffix));
  EXPECT_EQ(id, 42u);
  EXPECT_EQ(suffix, "");
  ASSERT_TRUE(ParseStreamPath("/v1/streams/7/checkpoint", &id, &suffix));
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(suffix, "/checkpoint");
  ASSERT_TRUE(
      ParseStreamPath("/v1/streams/999999999999999999", &id, &suffix));
  EXPECT_EQ(id, 999999999999999999u);  // 18 digits: the longest id
  for (const std::string_view bad :
       {"/v1/streams/", "/v1/streams//checkpoint", "/v1/streams/4x",
        "/v1/streams/-1", "/v1/streams/1234567890123456789", "/v1/stream/1",
        "/v2/streams/1"}) {
    EXPECT_FALSE(ParseStreamPath(bad, &id, &suffix)) << bad;
  }
}

// The header block is parsed by one function behind both parsers, so every
// header-block defect must fail both the same way.
TEST(HttpTest, BothParsersRejectMalformedHeaderBlocks) {
  HttpRequest req;
  HttpResponse resp;
  size_t consumed = 0;
  for (const std::string headers :
       {std::string("badheader\r\n"),
        std::string("Content-Length: huge\r\n"),
        std::string("Content-Length: 12x\r\n"),
        std::string("Content-Length: ") +
            std::to_string(kMaxHttpBodyBytes + 1) + "\r\n"}) {
    const std::string request = "GET /x HTTP/1.1\r\n" + headers + "\r\n";
    const std::string response = "HTTP/1.1 200 OK\r\n" + headers + "\r\n";
    EXPECT_EQ(ParseHttpRequest(request, &req, &consumed),
              HttpParseResult::kMalformed)
        << request;
    EXPECT_EQ(ParseHttpResponse(response, &resp, &consumed),
              HttpParseResult::kMalformed)
        << response;
  }
  const std::string flood(kMaxHttpHeaderBytes + 2, 'a');
  EXPECT_EQ(ParseHttpRequest("GET /x HTTP/1.1\r\nX: " + flood, &req,
                             &consumed),
            HttpParseResult::kMalformed);
  EXPECT_EQ(ParseHttpResponse("HTTP/1.1 200 OK\r\nX: " + flood, &resp,
                              &consumed),
            HttpParseResult::kMalformed);
  // Complete but oversize header blocks fail too, not only unterminated
  // ones.
  EXPECT_EQ(ParseHttpRequest("GET /x HTTP/1.1\r\nX: " + flood + "\r\n\r\n",
                             &req, &consumed),
            HttpParseResult::kMalformed);
  EXPECT_EQ(ParseHttpResponse(
                "HTTP/1.1 200 OK\r\nX: " + flood + "\r\n\r\n", &resp,
                &consumed),
            HttpParseResult::kMalformed);

  // Response-only rules: Content-Length is required (a keep-alive client
  // cannot frame a close-delimited body) and the status is three digits.
  for (const std::string raw :
       {std::string("HTTP/1.1 200 OK\r\nContent-Type: x\r\n\r\n"),
        std::string("HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n"),
        std::string("HTTP/1.1 20\r\nContent-Length: 0\r\n\r\n")}) {
    EXPECT_EQ(ParseHttpResponse(raw, &resp, &consumed),
              HttpParseResult::kMalformed)
        << raw;
  }
  ASSERT_EQ(ParseHttpResponse("HTTP/1.1 404 Not Found\r\nContent-Length: "
                              "2\r\n\r\n{}",
                              &resp, &consumed),
            HttpParseResult::kComplete);
  EXPECT_EQ(resp.status, 404);
  EXPECT_EQ(resp.body, "{}");
}

// ------------------------------------------------------------------ frames

TEST(FrameTest, IngestRoundTrip) {
  const std::vector<double> values = {1.5, -2.25, 0.0, 1e300};
  std::vector<uint8_t> wire;
  EncodeIngestFrame(42, values, &wire);
  IngestRequest decoded;
  size_t consumed = 0;
  ASSERT_EQ(DecodeIngestFrame(wire, &decoded, &consumed),
            FrameParseResult::kComplete);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(decoded.stream, 42u);
  EXPECT_EQ(decoded.values, values);
}

TEST(FrameTest, ResponseRoundTripAckAndReject) {
  IngestResponse ack;
  ack.type = FrameType::kAck;
  ack.stream = 7;
  ack.accepted_total = 1000;
  ack.scored_total = 990;
  ack.last_score = 0.625;
  ack.last_scored = true;
  std::vector<uint8_t> wire;
  EncodeResponseFrame(ack, &wire);

  IngestResponse reject;
  reject.type = FrameType::kReject;
  reject.stream = 9;
  reject.reason = RejectReason::kQueueFull;
  EncodeResponseFrame(reject, &wire);  // pipelined after the ack

  IngestResponse out;
  size_t consumed = 0;
  ASSERT_EQ(DecodeResponseFrame(wire, &out, &consumed),
            FrameParseResult::kComplete);
  EXPECT_EQ(out.type, FrameType::kAck);
  EXPECT_EQ(out.stream, 7u);
  EXPECT_EQ(out.accepted_total, 1000u);
  EXPECT_EQ(out.scored_total, 990u);
  EXPECT_EQ(out.last_score, 0.625);
  EXPECT_TRUE(out.last_scored);

  const std::span<const uint8_t> rest =
      std::span<const uint8_t>(wire).subspan(consumed);
  ASSERT_EQ(DecodeResponseFrame(rest, &out, &consumed),
            FrameParseResult::kComplete);
  EXPECT_EQ(out.type, FrameType::kReject);
  EXPECT_EQ(out.stream, 9u);
  EXPECT_EQ(out.reason, RejectReason::kQueueFull);
}

TEST(FrameTest, PartialBuffersNeedMore) {
  std::vector<uint8_t> wire;
  EncodeIngestFrame(1, std::vector<double>{3.0, 4.0}, &wire);
  IngestRequest decoded;
  size_t consumed = 0;
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_EQ(DecodeIngestFrame(
                  std::span<const uint8_t>(wire).subspan(0, cut), &decoded,
                  &consumed),
              FrameParseResult::kNeedMore)
        << "cut " << cut;
  }
}

TEST(FrameTest, MalformedFramesRejected) {
  IngestRequest decoded;
  size_t consumed = 0;
  // Declared length beyond the frame cap.
  std::vector<uint8_t> huge = {0xff, 0xff, 0xff, 0x7f, 1};
  EXPECT_EQ(DecodeIngestFrame(huge, &decoded, &consumed),
            FrameParseResult::kMalformed);
  // Count that disagrees with the payload length.
  std::vector<uint8_t> wire;
  EncodeIngestFrame(1, std::vector<double>{1.0}, &wire);
  wire[4 + 9] = 2;  // count field: claims 2 points, carries 1
  EXPECT_EQ(DecodeIngestFrame(wire, &decoded, &consumed),
            FrameParseResult::kMalformed);
  // Unknown frame type.
  std::vector<uint8_t> bad_type = wire;
  bad_type[4] = 0x7f;
  EXPECT_EQ(DecodeIngestFrame(bad_type, &decoded, &consumed),
            FrameParseResult::kMalformed);
  IngestResponse resp;
  EXPECT_EQ(DecodeResponseFrame(bad_type, &resp, &consumed),
            FrameParseResult::kMalformed);
}

// ------------------------------------------------------------- HubService

constexpr const char* kTestSpec = "ensemble:wmax=5,amax=5,n=8,seed=42";

/// `threads` is the spec's per-refit member parallelism; drains always
/// run on the shared exec pool.
HubServiceOptions SmallServiceOptions(int threads = 2) {
  HubServiceOptions options;
  options.spec = std::string(kTestSpec) + ",threads=" + std::to_string(threads);
  options.stream.window_length = 32;
  options.stream.buffer_capacity = 256;
  options.stream.refit_interval = 48;
  return options;
}

std::unique_ptr<HubService> MustCreate(HubServiceOptions options) {
  auto service = HubService::Create(std::move(options));
  EXPECT_TRUE(service.ok()) << service.status();
  return std::move(service).value();
}

IngestResponse SendPoints(HubService& service, size_t stream,
                          std::span<const double> values) {
  IngestRequest request;
  request.stream = stream;
  request.values.assign(values.begin(), values.end());
  return service.HandleIngest(request);
}

/// Bit patterns of a score vector, so NaN (never-scored) entries compare
/// equal to NaN and every other score compares bitwise.
std::vector<uint64_t> Bits(const std::vector<double>& scores) {
  std::vector<uint64_t> out;
  out.reserve(scores.size());
  for (const double s : scores) out.push_back(std::bit_cast<uint64_t>(s));
  return out;
}

// ---------------------------------------------------- child daemon lives
//
// Tests that need a second daemon life run it in a fresh exec of this test
// binary, filtered to ServiceChildProcess.Run below. fork() alone is not
// enough: the child of this multithreaded binary would inherit the exec
// pool without its threads (exec/parallel.h), and its drains never run.

constexpr const char* kChildRoleEnv = "EGI_SERVICE_CHILD";
constexpr const char* kChildCheckpointEnv = "EGI_SERVICE_CHILD_CHECKPOINT";

/// Runs ServiceChildProcess.Run in a new process with the given role,
/// checkpoint path and extra NAME=VALUE environment entries (overriding
/// inherited ones); returns its wait status, or -1 if it could not start.
int RunChildLife(const std::string& role, const std::string& checkpoint,
                 const std::vector<std::string>& extra_env = {}) {
  std::vector<std::string> env = {std::string(kChildRoleEnv) + "=" + role,
                                  std::string(kChildCheckpointEnv) + "=" +
                                      checkpoint};
  env.insert(env.end(), extra_env.begin(), extra_env.end());
  const auto overridden = [&env](const std::string& entry) {
    const std::string name = entry.substr(0, entry.find('=') + 1);
    for (const std::string& e : env) {
      if (e.compare(0, name.size(), name) == 0) return true;
    }
    return false;
  };
  for (char** e = environ; *e != nullptr; ++e) {
    if (!overridden(*e)) env.emplace_back(*e);
  }
  std::vector<char*> envp;
  for (std::string& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);
  std::string exe = "/proc/self/exe";
  std::string filter = "--gtest_filter=ServiceChildProcess.Run";
  char* argv[] = {exe.data(), filter.data(), nullptr};
  pid_t pid = 0;
  if (posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv, envp.data()) !=
      0) {
    return -1;
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  return status;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("egi_service_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

TEST_F(ServiceTest, StreamLifecycleCreateListDescribeDelete) {
  auto service = MustCreate(SmallServiceOptions());
  auto a = service->CreateStream("acme", "cpu");
  auto b = service->CreateStream("acme", "disk");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 1u);
  EXPECT_EQ(service->num_streams(), 2u);

  auto info = service->Describe(*b);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->tenant, "acme");
  EXPECT_EQ(info->name, "disk");
  EXPECT_EQ(info->accepted_total, 0u);

  ASSERT_TRUE(service->DeleteStream(*a).ok());
  EXPECT_EQ(service->num_streams(), 1u);
  EXPECT_EQ(service->Describe(*a).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service->DeleteStream(*a).code(), StatusCode::kNotFound);
  // Ids are never reused: the next stream extends the dense range.
  auto c = service->CreateStream("acme", "net");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 2u);
}

TEST_F(ServiceTest, CreateRejectsBadOptions) {
  std::vector<HubServiceOptions> bad(5, SmallServiceOptions());
  bad[0].stream.window_length = 0;
  bad[1].stream.buffer_capacity = 16;  // < window_length
  bad[2].stream.refit_interval = 0;
  bad[3].spec = "discord";  // no streaming support
  bad[4].queue_capacity = 0;
  for (size_t i = 0; i < bad.size(); ++i) {
    EXPECT_FALSE(HubService::Create(bad[i]).ok()) << "case " << i;
  }
}

TEST_F(ServiceTest, HugeBufferCapacityIsInvalidArgumentNotAnAbort) {
  // egid --buffer=-1 casts to SIZE_MAX: opening that stream shape must be a
  // Status error from the detector's own bound, before any ring exists.
  HubServiceOptions options = SmallServiceOptions();
  options.stream.buffer_capacity = SIZE_MAX;
  const auto service = HubService::Create(options);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(service.status().message().find("restore limit"),
            std::string::npos)
      << service.status().ToString();

  auto session = Session::Open("ensemble");
  ASSERT_TRUE(session.ok());
  const auto stream = session->OpenStream(options.stream);
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServiceTest, PerTenantStreamQuota) {
  auto options = SmallServiceOptions();
  options.max_streams_per_tenant = 2;
  auto service = MustCreate(std::move(options));
  ASSERT_TRUE(service->CreateStream("small", "a").ok());
  ASSERT_TRUE(service->CreateStream("small", "b").ok());
  const auto third = service->CreateStream("small", "c");
  EXPECT_EQ(third.status().code(), StatusCode::kFailedPrecondition);
  // Other tenants are unaffected, and deletion frees quota.
  EXPECT_TRUE(service->CreateStream("other", "a").ok());
  ASSERT_TRUE(service->DeleteStream(0).ok());
  EXPECT_TRUE(service->CreateStream("small", "c").ok());
}

TEST_F(ServiceTest, IngestScoresAndAcks) {
  auto service = MustCreate(SmallServiceOptions());
  const size_t id = *service->CreateStream("t", "s");
  Rng rng(5);
  const auto series = datasets::MakeRandomWalk(120, rng);

  const IngestResponse ack = SendPoints(*service, id, series);
  EXPECT_EQ(ack.type, FrameType::kAck);
  EXPECT_EQ(ack.accepted_total, series.size());
  service->Flush();

  auto info = service->Describe(id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->accepted_total, series.size());
  EXPECT_EQ(info->scored_total, series.size());
  EXPECT_EQ(info->queued, 0u);
  EXPECT_TRUE(info->stats.fitted);  // 120 points > refit interval 48
  EXPECT_TRUE(info->last_scored);

  auto scores = service->RecentScores(id, 10);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->size(), 10u);
}

TEST_F(ServiceTest, RejectsUnknownDeletedAndDraining) {
  auto service = MustCreate(SmallServiceOptions());
  const size_t id = *service->CreateStream("t", "s");
  const std::vector<double> one = {1.0};

  EXPECT_EQ(SendPoints(*service, 99, one).reason,
            RejectReason::kUnknownStream);
  ASSERT_TRUE(service->DeleteStream(id).ok());
  EXPECT_EQ(SendPoints(*service, id, one).reason,
            RejectReason::kUnknownStream);

  const size_t live = *service->CreateStream("t", "s2");
  service->BeginDrain();
  const IngestResponse resp = SendPoints(*service, live, one);
  EXPECT_EQ(resp.type, FrameType::kReject);
  EXPECT_EQ(resp.reason, RejectReason::kDraining);
  EXPECT_FALSE(service->CreateStream("t", "s3").ok());
}

TEST_F(ServiceTest, QueueFullBackpressure) {
  auto options = SmallServiceOptions();
  options.queue_capacity = 8;
  auto service = MustCreate(std::move(options));
  const size_t id = *service->CreateStream("t", "s");
  // A frame that can never fit is rejected outright — the queue is a hard
  // bound, not a buffer that blocks the connection.
  const std::vector<double> big(9, 1.0);
  const IngestResponse resp = SendPoints(*service, id, big);
  EXPECT_EQ(resp.type, FrameType::kReject);
  EXPECT_EQ(resp.reason, RejectReason::kQueueFull);
  // And the stream is undamaged: a fitting frame is accepted.
  EXPECT_EQ(SendPoints(*service, id, std::vector<double>(8, 1.0)).type,
            FrameType::kAck);
}

TEST_F(ServiceTest, TokenBucketRateLimitWithInjectedClock) {
  auto options = SmallServiceOptions();
  options.points_per_second = 100.0;  // burst defaults to 100 points
  uint64_t fake_now = 0;
  options.now_ns = [&fake_now] { return fake_now; };
  auto service = MustCreate(std::move(options));
  const size_t id = *service->CreateStream("t", "s");

  const std::vector<double> eighty(80, 0.5);
  EXPECT_EQ(SendPoints(*service, id, eighty).type, FrameType::kAck);
  // 20 tokens left: another 80-point frame is over quota.
  const IngestResponse rejected = SendPoints(*service, id, eighty);
  EXPECT_EQ(rejected.type, FrameType::kReject);
  EXPECT_EQ(rejected.reason, RejectReason::kRateLimited);
  // A full second refills to the burst cap (100): now it fits.
  fake_now += 1'000'000'000ull;
  EXPECT_EQ(SendPoints(*service, id, eighty).type, FrameType::kAck);
  // Rejected frames must not consume tokens: 80 - 80 leaves ~0 but the
  // failed attempt above did not double-charge.
  const IngestResponse after = SendPoints(*service, id, eighty);
  EXPECT_EQ(after.reason, RejectReason::kRateLimited);

  // Nor do frames rejected as queue_full: 65 points never fit a 64-point
  // queue, so none is admitted and the next 40-point frame still finds the
  // full burst of 100 tokens.
  auto bounded_options = SmallServiceOptions();
  bounded_options.points_per_second = 100.0;
  bounded_options.queue_capacity = 64;
  bounded_options.now_ns = [&fake_now] { return fake_now; };
  auto bounded = MustCreate(std::move(bounded_options));
  const size_t bounded_id = *bounded->CreateStream("t", "s");
  const IngestResponse full =
      SendPoints(*bounded, bounded_id, std::vector<double>(65, 0.5));
  EXPECT_EQ(full.type, FrameType::kReject);
  EXPECT_EQ(full.reason, RejectReason::kQueueFull);
  EXPECT_EQ(SendPoints(*bounded, bounded_id, std::vector<double>(40, 0.5)).type,
            FrameType::kAck);
}

TEST_F(ServiceTest, HttpControlPlaneEndToEnd) {
  auto options = SmallServiceOptions();
  options.checkpoint_path = Path("ckpt.egis");
  auto service = MustCreate(std::move(options));

  HttpRequest req;
  req.method = "POST";
  req.path = "/v1/streams";
  req.body = "{\"tenant\":\"acme\",\"name\":\"cpu\"}";
  std::string resp = service->Handle(req);
  EXPECT_NE(resp.find("HTTP/1.1 201"), std::string::npos);
  EXPECT_NE(resp.find("\"stream\":0"), std::string::npos);

  // Missing tenant → 400; unknown route → 404; wrong method → 405.
  req.body = "{\"name\":\"x\"}";
  EXPECT_NE(service->Handle(req).find("HTTP/1.1 400"), std::string::npos);
  req.path = "/v1/bogus";
  EXPECT_NE(service->Handle(req).find("HTTP/1.1 404"), std::string::npos);
  req.path = "/healthz";
  EXPECT_NE(service->Handle(req).find("HTTP/1.1 405"), std::string::npos);
  req.method = "GET";
  resp = service->Handle(req);
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(resp.find("\"status\":\"ok\""), std::string::npos);

  // Ingest then query the stream with a score tail.
  Rng rng(6);
  const auto series = datasets::MakeRandomWalk(100, rng);
  EXPECT_EQ(SendPoints(*service, 0, series).type, FrameType::kAck);
  service->Flush();
  req.path = "/v1/streams/0";
  req.query = "tail=5";
  resp = service->Handle(req);
  EXPECT_NE(resp.find("\"accepted\":100"), std::string::npos);
  EXPECT_NE(resp.find("\"scores\":["), std::string::npos);

  // List, checkpoint, flush, metrics, delete.
  req.path = "/v1/streams";
  req.query.clear();
  EXPECT_NE(service->Handle(req).find("\"tenant\":\"acme\""),
            std::string::npos);
  req.method = "POST";
  req.path = "/v1/flush";
  EXPECT_NE(service->Handle(req).find("\"flushed\":true"),
            std::string::npos);
  req.path = "/v1/checkpoint";
  resp = service->Handle(req);
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(resp.find("\"bytes\":"), std::string::npos);
  req.method = "GET";
  req.path = "/metrics";
  resp = service->Handle(req);
  EXPECT_NE(resp.find("\"counters\""), std::string::npos);
  req.method = "DELETE";
  req.path = "/v1/streams/0";
  EXPECT_NE(service->Handle(req).find("\"deleted\":true"),
            std::string::npos);
  EXPECT_NE(service->Handle(req).find("HTTP/1.1 404"), std::string::npos);
}

TEST_F(ServiceTest, HostileLabelsSurviveJsonSurfaces) {
  auto service = MustCreate(SmallServiceOptions());
  const std::string hostile = "evil\"tenant\\with\nnewline\tand\x01ctrl";
  HttpRequest req;
  req.method = "POST";
  req.path = "/v1/streams";
  req.body = "{\"tenant\":" + JsonQuote(hostile) + ",\"name\":\"n\"}";
  const std::string created = service->Handle(req);
  ASSERT_NE(created.find("HTTP/1.1 201"), std::string::npos);

  // The decoded label is the original bytes...
  auto info = service->Describe(0);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->tenant, hostile);

  // ...and every JSON surface that re-emits it stays parseable: the stream
  // listing and (when telemetry is on) the journal tail in /metrics.
  req.method = "GET";
  const std::string listed = service->Handle(req);
  const std::string quoted = JsonQuote(hostile);
  EXPECT_NE(listed.find(quoted), std::string::npos);
  for (const char c : listed.substr(listed.find("\r\n\r\n"))) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\r' ||
                c == '\n')
        << "raw control byte leaked into JSON";
  }
  if (telemetry::Enabled()) {
    req.path = "/metrics";
    const std::string metrics = service->Handle(req);
    EXPECT_NE(metrics.find(JsonEscape(hostile)), std::string::npos);
  }
}

TEST_F(ServiceTest, CheckpointRestoreRoundTrip) {
  auto options = SmallServiceOptions();
  options.checkpoint_path = Path("ckpt.egis");
  Rng rng(7);
  const auto series = datasets::MakeRandomWalk(150, rng);

  {
    auto service = MustCreate(options);
    ASSERT_TRUE(service->CreateStream("acme", "cpu").ok());
    ASSERT_TRUE(service->CreateStream("beta", "gone").ok());
    ASSERT_TRUE(service->DeleteStream(1).ok());
    EXPECT_EQ(SendPoints(*service, 0, series).type, FrameType::kAck);
    service->Flush();
    ASSERT_TRUE(service->CheckpointNow().ok());
  }

  auto restored = MustCreate(options);  // Create restores from disk
  EXPECT_EQ(restored->num_streams(), 1u);  // the tombstone persisted
  auto info = restored->Describe(0);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->tenant, "acme");
  EXPECT_EQ(info->name, "cpu");
  EXPECT_EQ(info->accepted_total, series.size());
  EXPECT_EQ(info->scored_total, series.size());
  EXPECT_EQ(restored->Describe(1).status().code(), StatusCode::kNotFound);
  // The deleted id stays reserved after restore too.
  auto next = restored->CreateStream("acme", "more");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 2u);
}

// The daemon lifecycle contract: ingest a prefix, checkpoint, get killed
// without any shutdown path, restart from the checkpoint, ingest the
// remainder — and the scores must be bitwise-identical to one
// uninterrupted run.
constexpr size_t kCrashSplit = 120;

std::vector<double> CrashSeries() {
  Rng rng(11);
  return datasets::MakeRandomWalk(200, rng);
}

/// First daemon life (child process): score the prefix, checkpoint, then
/// SIGKILL itself — no drain, no final checkpoint, exactly a kill -9 after
/// the periodic checkpoint landed.
void CrashFirstLife(const std::string& checkpoint) {
  auto options = SmallServiceOptions();
  options.checkpoint_path = checkpoint;
  auto service = MustCreate(options);
  ASSERT_TRUE(service->CreateStream("t", "s").ok());
  const auto series = CrashSeries();
  ASSERT_EQ(SendPoints(*service, 0, std::span(series).first(kCrashSplit)).type,
            FrameType::kAck);
  service->Flush();
  ASSERT_TRUE(service->CheckpointNow().ok());
  std::raise(SIGKILL);
}

TEST_F(ServiceTest, CrashRestartContinuesBitwiseIdentically) {
  auto options = SmallServiceOptions();
  options.checkpoint_path = Path("ckpt.egis");
  const auto series = CrashSeries();

  // Reference: one uninterrupted service over the same spec and data.
  std::vector<double> reference;
  {
    auto uninterrupted = MustCreate(SmallServiceOptions());
    ASSERT_TRUE(uninterrupted->CreateStream("t", "s").ok());
    EXPECT_EQ(SendPoints(*uninterrupted, 0, series).type, FrameType::kAck);
    uninterrupted->Flush();
    reference = *uninterrupted->RecentScores(0, series.size());
  }

  const int status = RunChildLife("crash_first_life", options.checkpoint_path);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "the first life did not reach its kill -9 (wait status " << status
      << ")";

  // Second life: restore-on-boot, then the remainder of the stream.
  auto service = MustCreate(options);
  auto info = service->Describe(0);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->scored_total, kCrashSplit);
  EXPECT_EQ(SendPoints(*service, 0, std::span(series).subspan(kCrashSplit))
                .type,
            FrameType::kAck);
  service->Flush();

  const std::vector<double> continued =
      *service->RecentScores(0, series.size());
  EXPECT_EQ(Bits(continued), Bits(reference));
}

// Six streams fed interleaved frames: scheduling — how many drains run at
// once, whether a refit's members fan out — must never show in the output.
constexpr size_t kSixStreams = 6;

std::unique_ptr<HubService> IngestSixStreams(int threads,
                                             const std::string& checkpoint) {
  auto options = SmallServiceOptions(threads);
  options.checkpoint_path = checkpoint;
  auto service = MustCreate(options);
  std::vector<std::vector<double>> series;
  for (size_t s = 0; s < kSixStreams; ++s) {
    EXPECT_TRUE(service->CreateStream("t", std::to_string(s)).ok());
    Rng rng(300 + s);
    series.push_back(datasets::MakeRandomWalk(400, rng));
  }
  constexpr size_t kFrame = 20;
  for (size_t off = 0; off < 400; off += kFrame) {
    for (size_t s = 0; s < kSixStreams; ++s) {
      EXPECT_EQ(SendPoints(*service, s,
                           std::span(series[s]).subspan(off, kFrame))
                    .type,
                FrameType::kAck);
    }
  }
  service->Flush();
  EXPECT_TRUE(service->CheckpointNow().ok());
  return service;
}

TEST_F(ServiceTest, SixStreamsBitwiseIdenticalAtOneAndFourThreads) {
  auto serial = IngestSixStreams(1, Path("threads1.egis"));
  auto fanned = IngestSixStreams(4, Path("threads4.egis"));
  for (size_t s = 0; s < kSixStreams; ++s) {
    EXPECT_EQ(Bits(*serial->RecentScores(s, 256)),
              Bits(*fanned->RecentScores(s, 256)))
        << "stream " << s;
  }

  // Checkpoint bytes: the same for the spec's threads=1 and threads=4, and
  // for one pool thread in a child process (EGI_NUM_THREADS=1: drains one
  // at a time, no member ever fans out) against this process's full pool.
  const std::string child_checkpoint = Path("child.egis");
  const int status = RunChildLife("six_streams", child_checkpoint,
                                  {"EGI_NUM_THREADS=1"});
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child ingest failed (wait status " << status << ")";
  auto child_bytes = serialize::ReadFileBytes(child_checkpoint);
  auto serial_bytes = serialize::ReadFileBytes(Path("threads1.egis"));
  auto fanned_bytes = serialize::ReadFileBytes(Path("threads4.egis"));
  ASSERT_TRUE(child_bytes.ok() && serial_bytes.ok() && fanned_bytes.ok());
  EXPECT_TRUE(*serial_bytes == *fanned_bytes)
      << "checkpoint bytes depend on the spec's threads=";
  EXPECT_TRUE(*child_bytes == *fanned_bytes)
      << "checkpoint bytes depend on the number of scoring threads";
}

TEST_F(ServiceTest, SingleStreamFanOutMatchesStreamSession) {
  // A lone stream leaves the other pool workers idle, so its refits offer
  // their members to helpers: the fan-out path, checked against the
  // in-process streaming API on the same spec and points.
  auto* helpers = telemetry::Registry::Global().GetCounter("exec.helpers");
  const uint64_t helpers_before = helpers->Value();
  const auto options = SmallServiceOptions(4);
  auto service = MustCreate(options);
  const size_t id = *service->CreateStream("t", "s");
  Rng rng(21);
  const auto series = datasets::MakeRandomWalk(600, rng);
  for (size_t off = 0; off < series.size(); off += 25) {
    ASSERT_EQ(SendPoints(*service, id, std::span(series).subspan(off, 25)).type,
              FrameType::kAck);
  }
  service->Flush();

  auto session = Session::Open(options.spec);
  ASSERT_TRUE(session.ok()) << session.status();
  auto stream = session->OpenStream(options.stream);
  ASSERT_TRUE(stream.ok()) << stream.status();
  stream->Ingest(series);
  EXPECT_EQ(Bits(*service->RecentScores(id, series.size())),
            Bits(stream->ScoresSnapshot()));
  EXPECT_EQ(service->Describe(id)->stats.refit_count, stream->refit_count());
  if (telemetry::Enabled()) {
    EXPECT_GT(helpers->Value(), helpers_before)
        << "no refit opened a parallel region";
  }
}

TEST_F(ServiceTest, CheckpointUnderConcurrentIngest) {
  auto options = SmallServiceOptions();
  options.checkpoint_path = Path("ckpt.egis");
  auto service = MustCreate(options);
  constexpr size_t kStreams = 3;
  for (size_t s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(service->CreateStream("t", std::to_string(s)).ok());
  }
  Rng rng(13);
  const auto series = datasets::MakeRandomWalk(400, rng);

  std::atomic<bool> done{false};
  std::atomic<bool> checkpointed{false};
  std::thread producer([&] {
    for (size_t off = 0; off < series.size(); off += 20) {
      const size_t len = std::min<size_t>(20, series.size() - off);
      for (size_t s = 0; s < kStreams; ++s) {
        IngestRequest request;
        request.stream = s;
        request.values.assign(series.begin() + static_cast<ptrdiff_t>(off),
                              series.begin() +
                                  static_cast<ptrdiff_t>(off + len));
        // Backpressure may reject under load; totals are checked at the
        // end from the ack the service reports, not assumed.
        service->HandleIngest(request);
      }
      // Send the rest only once the first checkpoint has returned, so at
      // least one is always taken while points are in flight.
      checkpointed.wait(false);
    }
    done.store(true);
  });
  size_t checkpoints = 0;
  while (!done.load()) {
    ASSERT_TRUE(service->CheckpointNow().ok());
    ++checkpoints;
    checkpointed.store(true);
    checkpointed.notify_one();
  }
  producer.join();
  EXPECT_GE(checkpoints, 1u);
  service->Flush();
  ASSERT_TRUE(service->CheckpointNow().ok());

  // The final checkpoint restores to exactly the final state.
  auto restored = MustCreate(options);
  for (size_t s = 0; s < kStreams; ++s) {
    auto before = service->Describe(s);
    auto after = restored->Describe(s);
    ASSERT_TRUE(before.ok() && after.ok());
    EXPECT_EQ(after->scored_total, before->scored_total) << s;
    EXPECT_EQ(*restored->RecentScores(s, 64), *service->RecentScores(s, 64))
        << s;
  }
}

// Every checkpoint written while a producer feeds the service — not only
// the final one — is a consistent cut of each stream: restored into a fresh
// service and fed the rest of each series from its restored scored_total,
// it ends bitwise-identical to an uninterrupted run.
TEST_F(ServiceTest, CheckpointUnderLoadCapturesConsistentSections) {
  constexpr size_t kStreams = 3;
  constexpr size_t kPoints = 480;
  constexpr size_t kFrame = 20;
  std::vector<std::vector<double>> series;
  for (size_t s = 0; s < kStreams; ++s) {
    Rng rng(500 + s);
    series.push_back(datasets::MakeRandomWalk(kPoints, rng));
  }
  const auto send_round = [&](HubService& service, size_t off) {
    for (size_t s = 0; s < kStreams; ++s) {
      EXPECT_EQ(
          SendPoints(service, s, std::span(series[s]).subspan(off, kFrame))
              .type,
          FrameType::kAck);
    }
  };

  std::vector<std::vector<double>> reference(kStreams);
  {
    auto uninterrupted = MustCreate(SmallServiceOptions());
    for (size_t s = 0; s < kStreams; ++s) {
      ASSERT_TRUE(uninterrupted->CreateStream("t", std::to_string(s)).ok());
    }
    for (size_t off = 0; off < kPoints; off += kFrame) {
      send_round(*uninterrupted, off);
    }
    uninterrupted->Flush();
    for (size_t s = 0; s < kStreams; ++s) {
      reference[s] = *uninterrupted->RecentScores(s, kPoints);
    }
  }

  auto options = SmallServiceOptions();
  options.checkpoint_path = Path("ckpt.egis");
  auto service = MustCreate(options);
  for (size_t s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(service->CreateStream("t", std::to_string(s)).ok());
  }
  // After each round the producer waits for one more checkpoint, so every
  // round's drains race a checkpoint.
  std::atomic<size_t> written{0};
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (size_t off = 0, round = 0; off < kPoints; off += kFrame, ++round) {
      send_round(*service, off);
      while (written.load() <= round) std::this_thread::yield();
    }
    service->Flush();
    done.store(true);
  });
  std::vector<std::vector<uint8_t>> files;
  while (!done.load()) {
    ASSERT_TRUE(service->CheckpointNow().ok());
    auto bytes = serialize::ReadFileBytes(options.checkpoint_path);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    files.push_back(std::move(*bytes));
    written.fetch_add(1);
  }
  producer.join();
  ASSERT_GE(files.size(), kPoints / kFrame);

  auto restore_options = SmallServiceOptions();
  restore_options.checkpoint_path = Path("restore.egis");
  for (size_t c = 0; c < files.size(); ++c) {
    ASSERT_TRUE(
        serialize::WriteFileAtomic(restore_options.checkpoint_path, files[c])
            .ok());
    auto restored = MustCreate(restore_options);
    for (size_t s = 0; s < kStreams; ++s) {
      const uint64_t at = restored->Describe(s)->scored_total;
      ASSERT_LE(at, kPoints) << "checkpoint " << c;
      if (at == kPoints) continue;
      EXPECT_EQ(SendPoints(*restored, s, std::span(series[s]).subspan(at)).type,
                FrameType::kAck);
    }
    restored->Flush();
    for (size_t s = 0; s < kStreams; ++s) {
      ASSERT_EQ(Bits(*restored->RecentScores(s, kPoints)), Bits(reference[s]))
          << "checkpoint " << c << " of " << files.size() << ", stream " << s;
    }
  }
}

/// A service checkpoint file with `entries` manifest entries and the given
/// detector snapshots as its stream sections, framed by hand.
std::vector<uint8_t> HandBuiltCheckpoint(
    size_t entries, const std::vector<std::vector<uint8_t>>& sections) {
  serialize::ByteWriter engine;
  engine.PutVarint(sections.size());
  for (const auto& section : sections) {
    engine.PutVarint(section.size());
    engine.PutBytes(section);
  }
  const std::vector<uint8_t> engine_blob = serialize::WrapPayload(
      serialize::BlobKind::kStreamEngine, engine.bytes());
  serialize::ByteWriter w;
  w.PutVarint(entries);
  for (size_t i = 0; i < entries; ++i) {
    w.PutString("t");
    w.PutString(std::to_string(i));
    w.PutBool(false);
  }
  w.PutVarint(engine_blob.size());
  w.PutBytes(engine_blob);
  return serialize::WrapPayload(serialize::BlobKind::kServiceCheckpoint,
                                w.bytes());
}

TEST_F(ServiceTest, RestoreRejectsManifestSectionCountMismatch) {
  auto options = SmallServiceOptions();
  options.checkpoint_path = Path("ckpt.egis");
  auto session = Session::Open(options.spec);
  ASSERT_TRUE(session.ok()) << session.status();
  auto stream = session->OpenStream(options.stream);
  ASSERT_TRUE(stream.ok()) << stream.status();
  const std::vector<uint8_t> section = stream->Checkpoint();

  // Matching counts restore.
  ASSERT_TRUE(serialize::WriteFileAtomic(options.checkpoint_path,
                                         HandBuiltCheckpoint(1, {section}))
                  .ok());
  {
    auto service = MustCreate(options);
    EXPECT_EQ(service->num_streams(), 1u);
  }

  // CRC-valid files whose counts disagree fail at boot, both ways round.
  const std::vector<uint8_t> one_entry_no_section = HandBuiltCheckpoint(1, {});
  const std::vector<uint8_t> no_entry_one_section =
      HandBuiltCheckpoint(0, {section});
  for (const auto* bad : {&one_entry_no_section, &no_entry_one_section}) {
    ASSERT_TRUE(serialize::WriteFileAtomic(options.checkpoint_path, *bad).ok());
    auto created = HubService::Create(options);
    ASSERT_FALSE(created.ok());
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument)
        << created.status();
  }

  // A live service asked to restore such a file keeps its streams.
  std::filesystem::remove(options.checkpoint_path);
  auto live = MustCreate(options);
  ASSERT_TRUE(live->CreateStream("t", "s").ok());
  Rng rng(19);
  const auto series = datasets::MakeRandomWalk(60, rng);
  EXPECT_EQ(SendPoints(*live, 0, series).type, FrameType::kAck);
  live->Flush();
  ASSERT_TRUE(serialize::WriteFileAtomic(options.checkpoint_path,
                                         no_entry_one_section)
                  .ok());
  EXPECT_EQ(live->RestoreFromDisk().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(live->num_streams(), 1u);
  EXPECT_EQ(live->Describe(0)->scored_total, series.size());
}

TEST_F(ServiceTest, ShutdownWritesFinalCheckpointAndDrains) {
  auto options = SmallServiceOptions();
  options.checkpoint_path = Path("ckpt.egis");
  auto service = MustCreate(options);
  ASSERT_TRUE(service->CreateStream("t", "s").ok());
  Rng rng(17);
  const auto series = datasets::MakeRandomWalk(100, rng);
  EXPECT_EQ(SendPoints(*service, 0, series).type, FrameType::kAck);
  ASSERT_TRUE(service->Shutdown().ok());  // drains the queue first
  EXPECT_TRUE(service->draining());
  // Everything queued before the drain was scored and checkpointed.
  auto restored = MustCreate(options);
  auto info = restored->Describe(0);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->scored_total, series.size());
}

// Drains hold no structural lock, so stream creation and deletion, which
// take it exclusively, go through while ingest keeps every drain busy.
TEST_F(ServiceTest, CreateAndDeleteStreamWhileIngestSaturatesScoring) {
  auto service = MustCreate(SmallServiceOptions());
  constexpr size_t kStreams = 3;
  for (size_t s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(service->CreateStream("t", std::to_string(s)).ok());
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(40 + p);
      IngestRequest request;
      request.values = datasets::MakeRandomWalk(20, rng);
      // Unpaced: queues fill and stay full (kQueueFull rejects).
      for (size_t i = p; !stop.load(std::memory_order_relaxed); ++i) {
        request.stream = i % kStreams;
        service->HandleIngest(request);
      }
    });
  }
  // Wait until scoring is saturated: some queue is full.
  const auto saturated = [&] {
    for (size_t s = 0; s < kStreams; ++s) {
      if (service->Describe(s)->queued + 20 > 8192) return true;
    }
    return false;
  };
  for (int i = 0; i < 500 && !saturated(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  auto created = std::async(std::launch::async, [&] {
    return service->CreateStream("t", "late");
  });
  const bool create_ready =
      created.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  auto deleted =
      std::async(std::launch::async, [&] { return service->DeleteStream(0); });
  const bool delete_ready =
      deleted.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  // Stop the producers before waiting on the futures, so a starved call
  // still returns once the queues run dry.
  stop.store(true);
  for (std::thread& t : producers) t.join();
  EXPECT_TRUE(create_ready) << "CreateStream starved behind the drains";
  EXPECT_TRUE(delete_ready) << "DeleteStream starved behind the drains";
  auto id = created.get();
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*id, kStreams);
  EXPECT_TRUE(deleted.get().ok());
}

// Entry point of the child processes above; skipped in a normal run.
TEST(ServiceChildProcess, Run) {
  const std::string role = GetEnvString(kChildRoleEnv, "");
  const std::string checkpoint = GetEnvString(kChildCheckpointEnv, "");
  if (role.empty() || checkpoint.empty()) {
    GTEST_SKIP() << "runs only as a child process of another ServiceTest";
  }
  if (role == "crash_first_life") {
    CrashFirstLife(checkpoint);
  } else if (role == "six_streams") {
    IngestSixStreams(4, checkpoint);
  } else {
    FAIL() << "unknown child role " << role;
  }
}

}  // namespace
}  // namespace egi::service

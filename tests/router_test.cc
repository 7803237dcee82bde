// RouterCore (src/router/) driven entirely in-process: loopback channels
// wrap real HubService shards, so every router behavior — placement,
// id rewriting, fan-out merging, shard loss, and live checkpoint-handoff
// migration — is tested without a socket. The migration tests assert the
// tentpole contract: after a reshard moves live streams between shards,
// every stream's score sequence is bitwise-identical to an un-sharded
// HubService fed the same points.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exec/parallel.h"
#include "router/router_core.h"
#include "router/shard_map.h"
#include "service/frame.h"
#include "service/http.h"
#include "service/hub_service.h"
#include "util/rng.h"

namespace egi::router {
namespace {

// ---------------------------------------------------------------- jump hash

TEST(JumpHashTest, StaysInRangeAndIsDeterministic) {
  for (uint64_t key = 0; key < 1000; ++key) {
    for (int32_t n = 1; n <= 7; ++n) {
      const int32_t bucket = JumpConsistentHash(key, n);
      ASSERT_GE(bucket, 0);
      ASSERT_LT(bucket, n);
      EXPECT_EQ(bucket, JumpConsistentHash(key, n));
    }
    EXPECT_EQ(JumpConsistentHash(key, 1), 0);
  }
}

TEST(JumpHashTest, GrowingTheMapOnlyMovesKeysToTheNewBucket) {
  // The consistency property the migration cost rides on: going n -> n+1,
  // a key either keeps its bucket or moves to the NEW bucket — never
  // between old buckets.
  size_t moved = 0;
  for (uint64_t key = 0; key < 5000; ++key) {
    for (int32_t n = 1; n <= 6; ++n) {
      const int32_t before = JumpConsistentHash(key, n);
      const int32_t after = JumpConsistentHash(key, n + 1);
      if (after != before) {
        EXPECT_EQ(after, n) << "key " << key << " moved between old buckets";
        ++moved;
      }
    }
  }
  EXPECT_GT(moved, 0u);  // some keys must move, or the map never balances
}

TEST(JumpHashTest, SpreadsKeysRoughlyEvenly) {
  constexpr int32_t kBuckets = 3;
  std::vector<size_t> counts(kBuckets, 0);
  for (uint64_t key = 0; key < 9000; ++key) {
    counts[static_cast<size_t>(JumpConsistentHash(key, kBuckets))] += 1;
  }
  for (const size_t count : counts) {
    EXPECT_GT(count, 9000u / kBuckets / 2);  // no bucket starves
  }
}

// ---------------------------------------------------------------- endpoints

TEST(EndpointTest, ParsesListsAndRejectsGarbage) {
  auto list = ParseEndpointList("127.0.0.1:8080:8081,db.example:80:81");
  ASSERT_TRUE(list.ok()) << list.status();
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[0].host, "127.0.0.1");
  EXPECT_EQ((*list)[0].http_port, 8080);
  EXPECT_EQ((*list)[0].ingest_port, 8081);
  EXPECT_EQ(EndpointToString((*list)[1]), "db.example:80:81");
  for (const char* bad :
       {"", "hostonly", "h:80", "h:80:0", "h:80:65536", ":80:81",
        "h:80:x"}) {
    EXPECT_FALSE(ParseEndpointList(bad).ok()) << bad;
  }
}

// ----------------------------------------------------------- protocol pins

TEST(ProtocolPinTest, HelloWireLayoutIsPinned) {
  // These numbers are the wire contract between routers, daemons, and
  // clients built from different checkouts. Changing any of them is a
  // protocol revision: bump kProtocolVersion and update this test.
  EXPECT_EQ(static_cast<uint8_t>(service::FrameType::kHello), 2);
  EXPECT_EQ(static_cast<uint8_t>(service::FrameType::kHelloAck), 0x83);
  EXPECT_EQ(static_cast<uint8_t>(service::RejectReason::kUnavailable), 6);
  EXPECT_EQ(static_cast<uint8_t>(service::RejectReason::kVersionMismatch),
            7);
  EXPECT_EQ(service::kProtocolVersion, 1);

  std::vector<uint8_t> wire;
  service::EncodeHelloFrame(service::kProtocolVersion, &wire);
  // u32 len=10 | u8 type=2 | u64 reserved=0 | u8 version=1
  const std::vector<uint8_t> expected = {10, 0, 0, 0, 2, 0, 0, 0, 0,
                                         0,  0, 0, 0, 1};
  EXPECT_EQ(wire, expected);

  service::IngestResponse helloack;
  helloack.type = service::FrameType::kHelloAck;
  helloack.protocol_version = service::kProtocolVersion;
  wire.clear();
  service::EncodeResponseFrame(helloack, &wire);
  // u32 len=2 | u8 type=0x83 | u8 version=1
  const std::vector<uint8_t> expected_ack = {2, 0, 0, 0, 0x83, 1};
  EXPECT_EQ(wire, expected_ack);
}

// ----------------------------------------------------- loopback shard rig

constexpr const char* kTestSpec = "ensemble:wmax=5,amax=5,n=8,seed=42";

/// `threads` is the spec's per-refit member parallelism.
service::HubServiceOptions ShardOptions(size_t threads) {
  service::HubServiceOptions options;
  options.spec = std::string(kTestSpec) + ",threads=" + std::to_string(threads);
  options.stream.window_length = 32;
  options.stream.buffer_capacity = 256;
  options.stream.refit_interval = 48;
  return options;
}

struct LoopbackShard {
  std::unique_ptr<service::HubService> service;
  std::atomic<bool> dead{false};
};

/// In-process channel: Http/Ingest call straight into a HubService. The
/// dead flag simulates a crashed shard (transport errors, as TCP would
/// surface them).
class LoopbackChannel final : public ShardChannel {
 public:
  explicit LoopbackChannel(LoopbackShard* shard) : shard_(shard) {}

  Result<HttpReply> Http(std::string_view method, std::string_view target,
                         std::string_view body,
                         std::string_view /*content_type*/) override {
    if (shard_->dead.load()) return Status::Internal("loopback shard down");
    service::HttpRequest request;
    request.method = std::string(method);
    const size_t q = target.find('?');
    request.path = std::string(target.substr(0, q));
    if (q != std::string_view::npos) {
      request.query = std::string(target.substr(q + 1));
    }
    request.body = std::string(body);
    const std::string raw = shard_->service->Handle(request);
    service::HttpResponse response;
    size_t consumed = 0;
    if (service::ParseHttpResponse(raw, &response, &consumed) !=
        service::HttpParseResult::kComplete) {
      return Status::Internal("loopback response did not parse");
    }
    return HttpReply{response.status, std::move(response.body)};
  }

  Result<service::IngestResponse> Ingest(
      uint64_t stream, std::span<const double> values) override {
    if (shard_->dead.load()) return Status::Internal("loopback shard down");
    service::IngestRequest request;
    request.stream = stream;
    request.values.assign(values.begin(), values.end());
    return shard_->service->HandleIngest(request);
  }

 private:
  LoopbackShard* shard_;
};

/// N loopback shards plus a router over the first `active` of them.
class RouterRig {
 public:
  RouterRig(size_t num_shards, size_t active, size_t threads) {
    for (size_t i = 0; i < num_shards; ++i) {
      auto shard = std::make_unique<LoopbackShard>();
      auto service = service::HubService::Create(ShardOptions(threads));
      EXPECT_TRUE(service.ok()) << service.status();
      shard->service = std::move(service).value();
      endpoints_.push_back({"shard" + std::to_string(i), 80, 81});
      by_endpoint_[EndpointToString(endpoints_.back())] = shard.get();
      shards_.push_back(std::move(shard));
    }
    RouterOptions options;
    options.shards.assign(endpoints_.begin(),
                          endpoints_.begin() +
                              static_cast<ptrdiff_t>(active));
    options.channels_per_shard = 2;
    options.acquire_timeout_seconds = 5.0;
    options.migrate_timeout_seconds = 10.0;
    options.factory = [this](const ShardEndpoint& endpoint) {
      return std::make_unique<LoopbackChannel>(
          by_endpoint_.at(EndpointToString(endpoint)));
    };
    auto router = RouterCore::Create(std::move(options));
    EXPECT_TRUE(router.ok()) << router.status();
    router_ = std::move(router).value();
  }

  RouterCore& router() { return *router_; }
  LoopbackShard& shard(size_t i) { return *shards_[i]; }
  const ShardEndpoint& endpoint(size_t i) const { return endpoints_[i]; }

  /// One control-plane round trip through the router, parsed.
  service::HttpResponse Http(std::string_view method, std::string_view path,
                             std::string_view query = "",
                             std::string_view body = "") {
    service::HttpRequest request;
    request.method = std::string(method);
    request.path = std::string(path);
    request.query = std::string(query);
    request.body = std::string(body);
    const std::string raw = router_->Handle(request);
    service::HttpResponse response;
    size_t consumed = 0;
    EXPECT_EQ(service::ParseHttpResponse(raw, &response, &consumed),
              service::HttpParseResult::kComplete);
    return response;
  }

  size_t CreateStream(const std::string& name) {
    const auto response =
        Http("POST", "/v1/streams", "",
             "{\"tenant\":\"t\",\"name\":\"" + name + "\"}");
    EXPECT_EQ(response.status, 201) << response.body;
    return ParseUInt(response.body, "stream");
  }

  service::IngestResponse Ingest(uint64_t stream,
                                 std::span<const double> values) {
    service::IngestRequest request;
    request.stream = stream;
    request.values.assign(values.begin(), values.end());
    return router_->HandleIngest(request);
  }

  static size_t ParseUInt(const std::string& body, const std::string& key) {
    const size_t pos = body.find("\"" + key + "\":");
    EXPECT_NE(pos, std::string::npos) << key << " not in " << body;
    if (pos == std::string::npos) return SIZE_MAX;
    return static_cast<size_t>(std::strtoull(
        body.c_str() + pos + key.size() + 3, nullptr, 10));
  }

 private:
  std::vector<std::unique_ptr<LoopbackShard>> shards_;
  std::vector<ShardEndpoint> endpoints_;
  std::map<std::string, LoopbackShard*> by_endpoint_;
  std::unique_ptr<RouterCore> router_;
};

// ------------------------------------------------------------ router basics

TEST(RouterTest, CreatesStreamsAcrossShardsAndRewritesIds) {
  RouterRig rig(2, 2, 2);
  std::vector<size_t> gids;
  for (size_t i = 0; i < 8; ++i) {
    const size_t gid = rig.CreateStream("s" + std::to_string(i));
    EXPECT_EQ(gid, i);  // router ids are dense, regardless of shard
    gids.push_back(gid);
  }
  // Both shards got streams (jump hash spreads 8 ids over 2 buckets).
  EXPECT_GT(rig.shard(0).service->num_streams(), 0u);
  EXPECT_GT(rig.shard(1).service->num_streams(), 0u);
  EXPECT_EQ(rig.shard(0).service->num_streams() +
                rig.shard(1).service->num_streams(),
            8u);
  EXPECT_EQ(rig.router().num_streams(), 8u);

  // Acks come back with the router's id, not the shard-local one.
  const std::vector<double> points = {1.0, 2.0, 3.0};
  for (const size_t gid : gids) {
    const auto ack = rig.Ingest(gid, points);
    ASSERT_EQ(ack.type, service::FrameType::kAck)
        << service::RejectReasonName(ack.reason);
    EXPECT_EQ(ack.stream, gid);
    EXPECT_EQ(ack.accepted_total, points.size());
  }

  // Describe routes to the owner and rewrites the id; the shard field
  // reports where the stream lives.
  const auto describe = rig.Http("GET", "/v1/streams/7");
  EXPECT_EQ(describe.status, 200);
  EXPECT_EQ(RouterRig::ParseUInt(describe.body, "stream"), 7u);
  EXPECT_LT(RouterRig::ParseUInt(describe.body, "shard"), 2u);

  // Unknown ids and unknown routes are typed errors.
  EXPECT_EQ(rig.Http("GET", "/v1/streams/99").status, 404);
  EXPECT_EQ(rig.Http("GET", "/v1/streams/7/checkpoint").status, 404);
  EXPECT_EQ(rig.Http("GET", "/v1/bogus").status, 404);
  const auto reject = rig.Ingest(99, points);
  EXPECT_EQ(reject.type, service::FrameType::kReject);
  EXPECT_EQ(reject.reason, service::RejectReason::kUnknownStream);
}

TEST(RouterTest, AnswersHelloLocallyAndRejectsVersionSkew) {
  RouterRig rig(1, 1, 1);
  service::IngestRequest hello;
  hello.hello = true;
  hello.protocol_version = service::kProtocolVersion;
  const auto ack = rig.router().HandleIngest(hello);
  EXPECT_EQ(ack.type, service::FrameType::kHelloAck);
  EXPECT_EQ(ack.protocol_version, service::kProtocolVersion);

  hello.protocol_version = service::kProtocolVersion + 1;
  const auto reject = rig.router().HandleIngest(hello);
  EXPECT_EQ(reject.type, service::FrameType::kReject);
  EXPECT_EQ(reject.reason, service::RejectReason::kVersionMismatch);
}

TEST(RouterTest, FanOutMergesPerShardSections) {
  RouterRig rig(2, 2, 2);
  rig.CreateStream("a");
  rig.CreateStream("b");
  rig.CreateStream("c");

  const auto health = rig.Http("GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.body.find("\"map_version\":1"), std::string::npos);
  EXPECT_NE(health.body.find("shard0:80:81"), std::string::npos);
  EXPECT_NE(health.body.find("shard1:80:81"), std::string::npos);

  const auto metrics = rig.Http("GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("\"router\":"), std::string::npos);
  EXPECT_NE(metrics.body.find("\"shards\":["), std::string::npos);
  EXPECT_NE(metrics.body.find("\"metrics\":{"), std::string::npos);

  const auto list = rig.Http("GET", "/v1/streams");
  EXPECT_EQ(list.status, 200);
  EXPECT_NE(list.body.find("\"map_version\":1"), std::string::npos);
  EXPECT_NE(list.body.find("\"streams\":3"), std::string::npos);

  const auto flush = rig.Http("POST", "/v1/flush");
  EXPECT_EQ(flush.status, 200) << flush.body;
  EXPECT_NE(flush.body.find("\"flushed\":true"), std::string::npos);

  const auto map = rig.Http("GET", "/v1/shards");
  EXPECT_EQ(map.status, 200);
  EXPECT_NE(map.body.find("\"version\":1"), std::string::npos);
  EXPECT_NE(map.body.find("\"shard0:80:81\""), std::string::npos);
}

TEST(RouterTest, ShardLossGivesTypedRejectsAndProbeRecovers) {
  RouterRig rig(2, 2, 2);
  std::vector<size_t> gids;
  for (size_t i = 0; i < 6; ++i) {
    gids.push_back(rig.CreateStream("s" + std::to_string(i)));
  }
  const std::vector<double> points = {0.5, 0.25};
  for (const size_t gid : gids) {
    ASSERT_EQ(rig.Ingest(gid, points).type, service::FrameType::kAck);
  }

  // Kill shard 0. Frames routed there must come back as typed
  // kUnavailable rejects — never stalls, never kMalformed.
  rig.shard(0).dead.store(true);
  size_t unavailable = 0;
  for (const size_t gid : gids) {
    const auto response = rig.Ingest(gid, points);
    if (response.type == service::FrameType::kReject) {
      EXPECT_EQ(response.reason, service::RejectReason::kUnavailable);
      ++unavailable;
    }
  }
  EXPECT_GT(unavailable, 0u);
  EXPECT_FALSE(rig.router().shard_healthy(0));
  EXPECT_TRUE(rig.router().shard_healthy(1));
  const auto health = rig.Http("GET", "/healthz");
  EXPECT_NE(health.body.find("\"status\":\"degraded\""), std::string::npos);

  // Once marked down, frames reject immediately without touching the
  // dead shard again (the probe owns recovery).
  const auto fast_reject = rig.Ingest(gids[0], points);
  if (fast_reject.type == service::FrameType::kReject) {
    EXPECT_EQ(fast_reject.reason, service::RejectReason::kUnavailable);
  }

  // Shard comes back; one probe round restores routing automatically.
  rig.shard(0).dead.store(false);
  rig.router().ProbeNow();
  EXPECT_TRUE(rig.router().shard_healthy(0));
  for (const size_t gid : gids) {
    EXPECT_EQ(rig.Ingest(gid, points).type, service::FrameType::kAck);
  }
}

// ------------------------------------------------- live migration identity

std::string ScoresSection(const std::string& body) {
  const size_t pos = body.find("\"scores\":");
  EXPECT_NE(pos, std::string::npos) << body;
  if (pos == std::string::npos) return "";
  const size_t end = body.find(']', pos);
  EXPECT_NE(end, std::string::npos) << body;
  return body.substr(pos, end - pos + 1);
}

/// The tentpole acceptance test: streams live through a 2 -> 3 shard
/// reshard under continued ingest, and every score matches an un-sharded
/// HubService fed the identical points — bitwise, because the migrated
/// checkpoint IS the complete detector state.
void RunMigrationIdentity(size_t threads) {
  constexpr size_t kStreams = 6;
  constexpr size_t kBatch = 16;
  constexpr int kRoundsBefore = 8;
  constexpr int kRoundsAfter = 8;

  RouterRig rig(3, 2, threads);  // shard2 exists but is not active yet
  auto reference = service::HubService::Create(ShardOptions(threads));
  ASSERT_TRUE(reference.ok()) << reference.status();

  std::vector<size_t> gids;
  for (size_t s = 0; s < kStreams; ++s) {
    gids.push_back(rig.CreateStream("m" + std::to_string(s)));
    auto ref_id = (*reference)->CreateStream("t", "m" + std::to_string(s));
    ASSERT_TRUE(ref_id.ok()) << ref_id.status();
    ASSERT_EQ(*ref_id, gids.back());  // both sides use dense ids
  }

  std::vector<Rng> rngs;
  for (size_t s = 0; s < kStreams; ++s) rngs.emplace_back(900 + s);
  std::vector<double> values(kBatch);
  const auto feed_round = [&] {
    for (size_t s = 0; s < kStreams; ++s) {
      for (double& v : values) v = rngs[s].UniformDouble();
      const auto via_router = rig.Ingest(gids[s], values);
      ASSERT_EQ(via_router.type, service::FrameType::kAck)
          << service::RejectReasonName(via_router.reason);
      service::IngestRequest direct;
      direct.stream = gids[s];
      direct.values = values;
      ASSERT_EQ((*reference)->HandleIngest(direct).type,
                service::FrameType::kAck);
    }
  };

  for (int round = 0; round < kRoundsBefore; ++round) feed_round();

  // Record placements, then install the 3-shard map mid-stream. The
  // summary must report real movement and zero failures.
  std::vector<size_t> shard_before(kStreams);
  for (size_t s = 0; s < kStreams; ++s) {
    shard_before[s] = RouterRig::ParseUInt(
        rig.Http("GET", "/v1/streams/" + std::to_string(gids[s])).body,
        "shard");
  }
  std::vector<ShardEndpoint> new_map = {rig.endpoint(0), rig.endpoint(1),
                                        rig.endpoint(2)};
  auto summary = rig.router().InstallShardMap(new_map);
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_GE(RouterRig::ParseUInt(*summary, "moved"), 1u);
  EXPECT_EQ(RouterRig::ParseUInt(*summary, "failed"), 0u);
  EXPECT_EQ(rig.router().map_version(), 2u);
  EXPECT_GT(rig.shard(2).service->num_streams(), 0u);

  size_t relocated = 0;
  for (size_t s = 0; s < kStreams; ++s) {
    const size_t now = RouterRig::ParseUInt(
        rig.Http("GET", "/v1/streams/" + std::to_string(gids[s])).body,
        "shard");
    if (now != shard_before[s]) ++relocated;
  }
  EXPECT_GE(relocated, 1u);

  // Keep feeding through the new map, then compare every stream's entire
  // score tail against the un-sharded reference.
  for (int round = 0; round < kRoundsAfter; ++round) feed_round();
  ASSERT_EQ(rig.Http("POST", "/v1/flush").status, 200);
  (*reference)->Flush();

  for (size_t s = 0; s < kStreams; ++s) {
    const auto routed =
        rig.Http("GET", "/v1/streams/" + std::to_string(gids[s]),
                 "tail=1000");
    ASSERT_EQ(routed.status, 200);
    service::HttpRequest direct;
    direct.method = "GET";
    direct.path = "/v1/streams/" + std::to_string(gids[s]);
    direct.query = "tail=1000";
    service::HttpResponse ref_response;
    size_t consumed = 0;
    ASSERT_EQ(service::ParseHttpResponse((*reference)->Handle(direct),
                                         &ref_response, &consumed),
              service::HttpParseResult::kComplete);
    ASSERT_EQ(ref_response.status, 200);
    EXPECT_EQ(ScoresSection(routed.body), ScoresSection(ref_response.body))
        << "stream " << gids[s] << " diverged after migration";
    EXPECT_EQ(RouterRig::ParseUInt(routed.body, "accepted"),
              RouterRig::ParseUInt(ref_response.body, "accepted"));
  }
}

TEST(RouterMigrationTest, BitwiseIdentityWithOneWorker) {
  RunMigrationIdentity(1);
}

TEST(RouterMigrationTest, BitwiseIdentityWithFourWorkers) {
  RunMigrationIdentity(4);
}

TEST(RouterMigrationTest, ShardsEndpointInstallsMapOverHttp) {
  RouterRig rig(3, 2, 2);
  for (size_t i = 0; i < 5; ++i) rig.CreateStream("h" + std::to_string(i));
  const std::vector<double> points = {1.0, -1.0};
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(rig.Ingest(i, points).type, service::FrameType::kAck);
  }
  const std::string body =
      "{\"shards\":[\"shard0:80:81\",\"shard1:80:81\",\"shard2:80:81\"]}";
  const auto installed = rig.Http("POST", "/v1/shards", "", body);
  EXPECT_EQ(installed.status, 200) << installed.body;
  EXPECT_NE(installed.body.find("\"version\":2"), std::string::npos);
  EXPECT_NE(installed.body.find("\"failed\":0"), std::string::npos);
  const auto map = rig.Http("GET", "/v1/shards");
  EXPECT_NE(map.body.find("\"shard2:80:81\""), std::string::npos);
  // Streams still serve after the reshard.
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rig.Ingest(i, points).type, service::FrameType::kAck);
  }
  // Garbage maps are 400s and leave the map untouched.
  EXPECT_EQ(rig.Http("POST", "/v1/shards", "", "{\"shards\":[]}").status,
            400);
  EXPECT_EQ(
      rig.Http("POST", "/v1/shards", "", "{\"shards\":[\"nope\"]}").status,
      400);
  EXPECT_EQ(rig.router().map_version(), 2u);
}

TEST(RouterTest, ShardsBodyFindsTheKeyAfterItAppearsAsAValue) {
  // "shards" first appears as another field's value; the map must still
  // install from the real key, with JSON whitespace around its array.
  RouterRig rig(2, 1, 1);
  const std::string body =
      "{\"note\":\"shards\", \"shards\" : [ \"shard0:80:81\" ,"
      " \"shard1:80:81\" ]}";
  const auto installed = rig.Http("POST", "/v1/shards", "", body);
  EXPECT_EQ(installed.status, 200) << installed.body;
  EXPECT_EQ(rig.router().map_version(), 2u);
  const auto map = rig.Http("GET", "/v1/shards");
  EXPECT_NE(map.body.find("\"shard1:80:81\""), std::string::npos);
}

// ---------------------------------------------- per-stream export / import

/// Occupies every worker of the shared exec pool until destroyed, so a
/// drain posted meanwhile provably waits in the pool's queue.
class ParkedPool {
 public:
  ParkedPool() : state_(std::make_shared<State>()) {
    exec::ThreadPool& pool = exec::ThreadPool::Shared();
    for (int i = 0; i < pool.num_workers(); ++i) {
      pool.Enqueue([state = state_] {
        std::unique_lock<std::mutex> lock(state->mu);
        ++state->parked;
        state->cv.notify_all();
        state->cv.wait(lock, [&] { return state->released; });
      });
    }
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->parked == pool.num_workers(); });
  }
  ~ParkedPool() {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->released = true;
    state_->cv.notify_all();
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    int parked = 0;
    bool released = false;
  };
  std::shared_ptr<State> state_;
};

TEST(StreamCheckpointTest, ExportRequiresDrainedQueueThenRoundTrips) {
  auto source = service::HubService::Create(ShardOptions(1));
  ASSERT_TRUE(source.ok());
  auto stream = (*source)->CreateStream("t", "x");
  ASSERT_TRUE(stream.ok());

  // A burst whose drain cannot start while the pool is parked: export must
  // refuse (the blob would miss acked points) until a flush drains it.
  Rng rng(7);
  std::vector<double> burst(8192);
  for (double& v : burst) v = rng.UniformDouble();
  service::IngestRequest request;
  request.stream = *stream;
  request.values = burst;
  std::optional<ParkedPool> parked(std::in_place);
  ASSERT_EQ((*source)->HandleIngest(request).type, service::FrameType::kAck);
  const auto early = (*source)->ExportStreamCheckpoint(*stream);
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);
  parked.reset();

  (*source)->Flush();
  auto blob = (*source)->ExportStreamCheckpoint(*stream);
  ASSERT_TRUE(blob.ok()) << blob.status();
  EXPECT_FALSE(blob->empty());

  // Import into a fresh stream elsewhere: counters reconcile and scores
  // continue from the restored state.
  auto target = service::HubService::Create(ShardOptions(1));
  ASSERT_TRUE(target.ok());
  auto target_stream = (*target)->CreateStream("t", "x");
  ASSERT_TRUE(target_stream.ok());
  ASSERT_TRUE((*target)
                  ->ImportStreamCheckpoint(*target_stream, *blob)
                  .ok());
  auto src_info = (*source)->Describe(*stream);
  auto dst_info = (*target)->Describe(*target_stream);
  ASSERT_TRUE(src_info.ok());
  ASSERT_TRUE(dst_info.ok());
  EXPECT_EQ(dst_info->accepted_total, src_info->accepted_total);
  EXPECT_EQ(dst_info->scored_total, src_info->scored_total);

  request.values = {1.0, 2.0, 3.0, 4.0};
  ASSERT_EQ((*source)->HandleIngest(request).type, service::FrameType::kAck);
  request.stream = *target_stream;
  ASSERT_EQ((*target)->HandleIngest(request).type, service::FrameType::kAck);
  (*source)->Flush();
  (*target)->Flush();
  auto src_scores = (*source)->RecentScores(*stream, 64);
  auto dst_scores = (*target)->RecentScores(*target_stream, 64);
  ASSERT_TRUE(src_scores.ok());
  ASSERT_TRUE(dst_scores.ok());
  EXPECT_EQ(*src_scores, *dst_scores);  // bitwise-identical continuation
}

TEST(StreamCheckpointTest, ImportOfUnfittedBlobClearsTheLastScore) {
  // Source: fewer points than one refit interval, so nothing was scored.
  auto source = service::HubService::Create(ShardOptions(1));
  ASSERT_TRUE(source.ok());
  auto stream = (*source)->CreateStream("t", "x");
  ASSERT_TRUE(stream.ok());
  Rng rng(11);
  service::IngestRequest request;
  request.stream = *stream;
  request.values.resize(20);
  for (double& v : request.values) v = rng.UniformDouble();
  ASSERT_EQ((*source)->HandleIngest(request).type, service::FrameType::kAck);
  (*source)->Flush();
  ASSERT_FALSE((*source)->Describe(*stream)->stats.fitted);
  auto blob = (*source)->ExportStreamCheckpoint(*stream);
  ASSERT_TRUE(blob.ok()) << blob.status();

  // Target: past its first refit, so it has a last score to replace.
  auto target = service::HubService::Create(ShardOptions(1));
  ASSERT_TRUE(target.ok());
  auto target_stream = (*target)->CreateStream("t", "y");
  ASSERT_TRUE(target_stream.ok());
  request.stream = *target_stream;
  request.values.resize(100);
  for (double& v : request.values) v = rng.UniformDouble();
  ASSERT_EQ((*target)->HandleIngest(request).type, service::FrameType::kAck);
  (*target)->Flush();
  ASSERT_TRUE((*target)->Describe(*target_stream)->last_scored);

  ASSERT_TRUE(
      (*target)->ImportStreamCheckpoint(*target_stream, *blob).ok());
  auto info = (*target)->Describe(*target_stream);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->last_scored);
  EXPECT_EQ(info->last_score, 0.0);
  EXPECT_EQ(info->accepted_total, 20u);
  EXPECT_EQ(info->scored_total, 20u);
  EXPECT_EQ(info->stats.total_appended, 20u);
}

}  // namespace
}  // namespace egi::router

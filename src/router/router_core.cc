#include "router/router_core.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <utility>

#include "egi/session.h"
#include "egi/telemetry.h"
#include "service/http.h"
#include "util/json.h"

namespace egi::router {

namespace {

using service::FrameType;
using service::HttpRequest;
using service::IngestRequest;
using service::IngestResponse;
using service::RejectReason;

using Clock = std::chrono::steady_clock;

telemetry::Registry& Telemetry() { return telemetry::Registry::Global(); }

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Rewrites the leading `{"stream":<local>` of a shard response body to the
/// router's global id and injects the shard index, so clients only ever see
/// router ids: `{"stream":<gid>,"shard":<idx>,...`.
std::string RewriteStreamBody(std::string_view body, size_t gid,
                              size_t shard) {
  constexpr std::string_view kPrefix = "{\"stream\":";
  if (body.substr(0, kPrefix.size()) != kPrefix) return std::string(body);
  size_t i = kPrefix.size();
  while (i < body.size() && body[i] >= '0' && body[i] <= '9') ++i;
  std::string out = "{\"stream\":" + std::to_string(gid) +
                    ",\"shard\":" + std::to_string(shard);
  out += body.substr(i);
  return out;
}

}  // namespace

// -------------------------------------------------------------------- state

struct RouterCore::Impl {
  struct Backend {
    ShardEndpoint endpoint;
    std::atomic<bool> healthy{true};

    // Probe schedule; guarded by probe_mu (probe thread + ProbeNow).
    std::mutex probe_mu;
    uint32_t failed_probes = 0;
    Clock::time_point next_probe{};

    // Channel pool: at most channels_per_shard live channels, so in-flight
    // requests per shard are bounded by construction.
    std::mutex pool_mu;
    std::condition_variable pool_cv;
    std::vector<std::unique_ptr<ShardChannel>> idle;
    size_t live = 0;
  };

  struct StreamRoute {
    size_t gid = 0;
    std::string tenant;
    std::string name;

    std::mutex m;
    std::condition_variable cv;
    size_t backend = 0;      // index into backends
    uint64_t local_id = 0;   // the stream's id on that backend
    bool ready = false;      // create-on-shard completed
    bool migrating = false;  // blocks new frames; waits drain in-flight
    bool claimed = false;    // reserved by an in-progress map install
    size_t in_flight = 0;
    bool deleted = false;
  };

  RouterOptions options;

  // Shape lock: routes/backends/active/map_version. Route and backend
  // objects are held by pointer and never destroyed, so a raw pointer
  // captured under a shared lock stays valid afterwards. Lock order:
  // table_mu before any route mutex.
  mutable std::shared_mutex table_mu;
  std::vector<std::unique_ptr<StreamRoute>> routes;
  std::vector<std::unique_ptr<Backend>> backends;
  std::vector<size_t> active;  // backend indices, map order
  uint64_t version = 1;

  std::atomic<bool> draining{false};

  std::thread probe_thread;
  std::atomic<bool> stop_probe{false};
  std::mutex shutdown_mu;
  bool shut_down = false;

  // ---- channel pool ----
  std::unique_ptr<ShardChannel> Acquire(Backend& b);
  void Release(Backend& b, std::unique_ptr<ShardChannel> channel);
  void Discard(Backend& b);

  // ---- shard I/O ----
  Backend* BackendAt(size_t index);
  Result<HttpReply> ShardHttp(size_t backend_index, std::string_view method,
                              std::string_view target, std::string_view body,
                              std::string_view content_type =
                                  "application/json");
  /// Sends `method path` to every active shard, in map order, and renders
  /// one comma-joined JSON section per shard:
  /// `{"shard":i,"endpoint":e,"status":code,<body_key>:body}` with the
  /// body null unless the shard answered 200, or
  /// `{"shard":i,"endpoint":e,"status":0,"error":message}` when it could
  /// not be reached. An empty `body_key` leaves out the endpoint and the
  /// body. `*all_ok` (when non-null) tells whether every shard answered 200.
  std::string FanOut(std::string_view method, std::string_view path,
                     std::string_view body_key, bool* all_ok = nullptr);
  void MarkDown(Backend& b);
  void MarkUp(Backend& b);
  void ProbeOne(Backend& b);
  void ProbeLoop();

  // ---- streams ----
  Result<std::pair<size_t, std::string>> CreateStream(std::string tenant,
                                                      std::string name);
  bool MigrateStream(StreamRoute* route, size_t target_index);

  std::vector<size_t> ActiveSnapshot() const {
    std::shared_lock<std::shared_mutex> lock(table_mu);
    return active;
  }
};

// -------------------------------------------------------------------- pool

std::unique_ptr<ShardChannel> RouterCore::Impl::Acquire(Backend& b) {
  const auto deadline =
      Clock::now() + Seconds(options.acquire_timeout_seconds);
  std::unique_lock<std::mutex> lock(b.pool_mu);
  while (true) {
    if (!b.idle.empty()) {
      auto channel = std::move(b.idle.back());
      b.idle.pop_back();
      return channel;
    }
    if (b.live < options.channels_per_shard) {
      b.live += 1;
      lock.unlock();
      return options.factory(b.endpoint);
    }
    if (b.pool_cv.wait_until(lock, deadline) == std::cv_status::timeout &&
        b.idle.empty() && b.live >= options.channels_per_shard) {
      return nullptr;
    }
  }
}

void RouterCore::Impl::Release(Backend& b,
                               std::unique_ptr<ShardChannel> channel) {
  std::lock_guard<std::mutex> lock(b.pool_mu);
  b.idle.push_back(std::move(channel));
  b.pool_cv.notify_one();
}

void RouterCore::Impl::Discard(Backend& b) {
  std::lock_guard<std::mutex> lock(b.pool_mu);
  b.live -= 1;
  b.pool_cv.notify_one();
}

// ----------------------------------------------------------------- shard IO

RouterCore::Impl::Backend* RouterCore::Impl::BackendAt(size_t index) {
  std::shared_lock<std::shared_mutex> lock(table_mu);
  return backends[index].get();
}

void RouterCore::Impl::MarkDown(Backend& b) {
  if (b.healthy.exchange(false, std::memory_order_relaxed)) {
    Telemetry().GetCounter("router.shard_down")->Add(1);
    Telemetry().journal().Emit("router.shard_down",
                               {{"endpoint", EndpointToString(b.endpoint)}});
  }
  // Flush the idle pool: channels that sat unused while the shard died
  // hold sockets to the dead process, and would poison the first requests
  // after a restart on the same ports. Channels currently acquired fail
  // on use and are discarded by their holders.
  std::lock_guard<std::mutex> lock(b.pool_mu);
  if (!b.idle.empty()) {
    b.live -= b.idle.size();
    b.idle.clear();
    b.pool_cv.notify_all();
  }
}

void RouterCore::Impl::MarkUp(Backend& b) {
  if (!b.healthy.exchange(true, std::memory_order_relaxed)) {
    Telemetry().GetCounter("router.shard_up")->Add(1);
    Telemetry().journal().Emit("router.shard_up",
                               {{"endpoint", EndpointToString(b.endpoint)}});
  }
}

Result<HttpReply> RouterCore::Impl::ShardHttp(size_t backend_index,
                                              std::string_view method,
                                              std::string_view target,
                                              std::string_view body,
                                              std::string_view content_type) {
  Backend& b = *BackendAt(backend_index);
  auto channel = Acquire(b);
  if (channel == nullptr) {
    return Status::Internal("no channel to shard " +
                            EndpointToString(b.endpoint) +
                            " within the acquire timeout");
  }
  auto reply = channel->Http(method, target, body, content_type);
  if (!reply.ok()) {
    Discard(b);
    MarkDown(b);
    return reply.status();
  }
  Release(b, std::move(channel));
  MarkUp(b);
  return reply;
}

std::string RouterCore::Impl::FanOut(std::string_view method,
                                     std::string_view path,
                                     std::string_view body_key,
                                     bool* all_ok) {
  std::string sections;
  bool ok = true;
  for (const size_t index : ActiveSnapshot()) {
    auto reply = ShardHttp(index, method, path, "");
    if (!sections.empty()) sections += ',';
    sections += "{\"shard\":" + std::to_string(index);
    if (!body_key.empty()) {
      sections += ",\"endpoint\":" +
                  JsonQuote(EndpointToString(BackendAt(index)->endpoint));
    }
    if (!reply.ok()) {
      ok = false;
      sections += ",\"status\":0,\"error\":" +
                  JsonQuote(reply.status().message());
    } else {
      ok = ok && reply->status == 200;
      sections += ",\"status\":" + std::to_string(reply->status);
      if (!body_key.empty()) {
        sections += ",\"" + std::string(body_key) + "\":" +
                    (reply->status == 200 ? reply->body : "null");
      }
    }
    sections += '}';
  }
  if (all_ok != nullptr) *all_ok = ok;
  return sections;
}

void RouterCore::Impl::ProbeOne(Backend& b) {
  // A fresh single-use channel per probe: the pool's channels are for
  // serving, and a dead shard would only poison them.
  auto channel = options.factory(b.endpoint);
  auto reply = channel->Http("GET", "/healthz", "", "application/json");
  std::lock_guard<std::mutex> lock(b.probe_mu);
  if (reply.ok() && reply->status == 200) {
    MarkUp(b);
    b.failed_probes = 0;
    b.next_probe =
        Clock::now() + Seconds(options.probe_interval_seconds);
    return;
  }
  MarkDown(b);
  if (b.failed_probes < 16) b.failed_probes += 1;
  const double base = options.probe_interval_seconds > 0.0
                          ? options.probe_interval_seconds
                          : 0.05;
  const double backoff =
      std::min(base * static_cast<double>(1u << std::min(b.failed_probes,
                                                         10u)),
               options.probe_backoff_max_seconds);
  b.next_probe = Clock::now() + Seconds(backoff);
}

void RouterCore::Impl::ProbeLoop() {
  while (!stop_probe.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<Backend*> snapshot;
    {
      std::shared_lock<std::shared_mutex> lock(table_mu);
      snapshot.reserve(backends.size());
      for (const auto& b : backends) snapshot.push_back(b.get());
    }
    const auto now = Clock::now();
    for (Backend* b : snapshot) {
      bool due = false;
      {
        std::lock_guard<std::mutex> lock(b->probe_mu);
        due = now >= b->next_probe;
      }
      if (due) ProbeOne(*b);
      if (stop_probe.load(std::memory_order_relaxed)) return;
    }
  }
}

// ------------------------------------------------------------- construction

RouterCore::RouterCore(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Result<std::unique_ptr<RouterCore>> RouterCore::Create(RouterOptions options) {
  if (options.shards.empty()) {
    return Status::InvalidArgument("router needs at least one shard");
  }
  if (options.factory == nullptr) {
    return Status::InvalidArgument("router needs a channel factory");
  }
  if (options.channels_per_shard == 0) {
    return Status::InvalidArgument("channels_per_shard must be >= 1");
  }
  auto impl = std::make_unique<Impl>();
  impl->options = std::move(options);
  for (const ShardEndpoint& endpoint : impl->options.shards) {
    auto backend = std::make_unique<Impl::Backend>();
    backend->endpoint = endpoint;
    impl->backends.push_back(std::move(backend));
    impl->active.push_back(impl->backends.size() - 1);
  }
  auto core = std::unique_ptr<RouterCore>(new RouterCore(std::move(impl)));
  if (core->impl_->options.probe_interval_seconds > 0.0) {
    core->impl_->probe_thread =
        std::thread([impl = core->impl_.get()] { impl->ProbeLoop(); });
  }
  return core;
}

RouterCore::~RouterCore() {
  if (impl_ != nullptr) Shutdown();
}

void RouterCore::BeginDrain() {
  impl_->draining.store(true, std::memory_order_relaxed);
}

Status RouterCore::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(impl_->shutdown_mu);
    if (impl_->shut_down) return Status::OK();
    impl_->shut_down = true;
  }
  BeginDrain();
  impl_->stop_probe.store(true, std::memory_order_relaxed);
  if (impl_->probe_thread.joinable()) impl_->probe_thread.join();
  return Status::OK();
}

// ----------------------------------------------------------------- streams

Result<std::pair<size_t, std::string>> RouterCore::Impl::CreateStream(
    std::string tenant, std::string name) {
  static auto* created = Telemetry().GetCounter("router.streams_created");
  if (draining.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("router is draining");
  }
  StreamRoute* route = nullptr;
  size_t backend_index = 0;
  {
    std::unique_lock<std::shared_mutex> lock(table_mu);
    auto fresh = std::make_unique<StreamRoute>();
    fresh->gid = routes.size();
    fresh->tenant = std::move(tenant);
    fresh->name = std::move(name);
    backend_index = active[static_cast<size_t>(JumpConsistentHash(
        fresh->gid, static_cast<int32_t>(active.size())))];
    fresh->backend = backend_index;
    fresh->migrating = true;  // blocks frames until the shard create lands
    route = fresh.get();
    routes.push_back(std::move(fresh));
  }
  const std::string body = "{\"tenant\":" + JsonQuote(route->tenant) +
                           ",\"name\":" + JsonQuote(route->name) + "}";
  auto reply = ShardHttp(backend_index, "POST", "/v1/streams", body);
  uint64_t local_id = 0;
  const bool ok = reply.ok() && reply->status == 201 &&
                  JsonFindUInt(reply->body, "stream", &local_id);
  {
    std::lock_guard<std::mutex> lock(route->m);
    if (ok) {
      route->local_id = local_id;
      route->ready = true;
    } else {
      route->deleted = true;  // the gid is burned; ids stay dense
    }
    route->migrating = false;
    route->cv.notify_all();
  }
  if (!ok) {
    if (!reply.ok()) {
      return Status::Internal("shard create failed: " +
                              reply.status().message());
    }
    return Status::Internal("shard create failed (HTTP " +
                            std::to_string(reply->status) + "): " +
                            reply->body);
  }
  created->Add(1);
  return std::make_pair(route->gid,
                        RewriteStreamBody(reply->body, route->gid,
                                          backend_index));
}

bool RouterCore::Impl::MigrateStream(StreamRoute* route,
                                     size_t target_index) {
  static auto* migrations = Telemetry().GetCounter("router.migrations");
  static auto* failures =
      Telemetry().GetCounter("router.migration_failures");
  static auto* hist = Telemetry().GetHistogram("router.migrate_seconds");
  telemetry::ScopedTimer timer(hist);

  const auto deadline =
      Clock::now() + Seconds(options.migrate_timeout_seconds);
  const auto fail = [&](std::string_view step) {
    failures->Add(1);
    Telemetry().journal().Emit(
        "router.migrate_failed", {{"stream", std::to_string(route->gid)},
                                  {"step", std::string(step)}});
    std::lock_guard<std::mutex> lock(route->m);
    route->migrating = false;
    route->claimed = false;
    route->cv.notify_all();
    return false;
  };

  size_t source_index = 0;
  uint64_t source_local = 0;
  {
    // Block new frames for this stream only now (the install claimed the
    // route but kept frames flowing to the old owner), then wait for the
    // in-flight ones to drain so the source shard has acked everything it
    // will ever see for this stream.
    std::unique_lock<std::mutex> lock(route->m);
    route->migrating = true;
    if (!route->cv.wait_until(lock, deadline,
                              [&] { return route->in_flight == 0; })) {
      lock.unlock();
      return fail("drain_in_flight");
    }
    if (route->deleted) {
      route->migrating = false;
      route->claimed = false;
      route->cv.notify_all();
      return true;  // deleted mid-install: nothing to move
    }
    source_index = route->backend;
    source_local = route->local_id;
  }
  const std::string source_path =
      "/v1/streams/" + std::to_string(source_local);

  // Dedicated single-use channels for the handoff: the pooled channels are
  // for serving frames, and a migration competing with the ingest threads
  // for the bounded pool could starve past the frame-wait deadline — the
  // one thing a live reshard must never do.
  auto source_channel =
      options.factory(BackendAt(source_index)->endpoint);
  auto target_channel =
      options.factory(BackendAt(target_index)->endpoint);
  const auto http = [](ShardChannel& channel, std::string_view method,
                       std::string_view target, std::string_view body = "",
                       std::string_view content_type = "application/json") {
    return channel.Http(method, target, body, content_type);
  };

  // 1. Snapshot the source's accepted count (stable: no new frames).
  auto described = http(*source_channel, "GET", source_path);
  uint64_t source_accepted = 0;
  if (!described.ok() || described->status != 200 ||
      !JsonFindUInt(described->body, "accepted", &source_accepted)) {
    return fail("describe_source");
  }

  // 2. Export. 409 means the drain worker is still scoring the tail of the
  //    queue — the points exist, they just have not reached the detector
  //    yet — so retry until the deadline.
  std::vector<uint8_t> blob;
  while (true) {
    auto exported =
        http(*source_channel, "GET", source_path + "/checkpoint");
    if (!exported.ok()) return fail("export");
    if (exported->status == 200) {
      blob.assign(exported->body.begin(), exported->body.end());
      break;
    }
    if (exported->status != 409 || Clock::now() >= deadline) {
      return fail("export");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // 3. Create the target stream and restore the snapshot into it.
  const std::string create_body =
      "{\"tenant\":" + JsonQuote(route->tenant) +
      ",\"name\":" + JsonQuote(route->name) + "}";
  auto created =
      http(*target_channel, "POST", "/v1/streams", create_body);
  uint64_t target_local = 0;
  if (!created.ok() || created->status != 201 ||
      !JsonFindUInt(created->body, "stream", &target_local)) {
    return fail("create_target");
  }
  const std::string target_path =
      "/v1/streams/" + std::to_string(target_local);
  auto imported = http(
      *target_channel, "PUT", target_path + "/checkpoint",
      std::string_view(reinterpret_cast<const char*>(blob.data()),
                       blob.size()),
      "application/octet-stream");
  if (!imported.ok() || imported->status != 200) {
    http(*target_channel, "DELETE", target_path);  // best effort
    return fail("import");
  }

  // 4. Reconcile: the target's accepted_total (rebuilt from the restored
  //    detector) must equal everything the source ever acked — otherwise
  //    the handoff lost or duplicated points and must not commit.
  auto verify = http(*target_channel, "GET", target_path);
  uint64_t target_accepted = 0;
  if (!verify.ok() || verify->status != 200 ||
      !JsonFindUInt(verify->body, "accepted", &target_accepted) ||
      target_accepted != source_accepted) {
    http(*target_channel, "DELETE", target_path);  // best effort
    return fail("reconcile_accepted");
  }

  // 5. Retire the source copy (best effort — a leaked tombstoned stream on
  //    the source is harmless) and commit the route swap.
  http(*source_channel, "DELETE", source_path);
  {
    std::lock_guard<std::mutex> lock(route->m);
    route->backend = target_index;
    route->local_id = target_local;
    route->migrating = false;
    route->claimed = false;
    route->cv.notify_all();
  }
  migrations->Add(1);
  Telemetry().journal().Emit(
      "router.migrated",
      {{"stream", std::to_string(route->gid)},
       {"points", std::to_string(source_accepted)}});
  return true;
}

Result<std::string> RouterCore::InstallShardMap(
    std::vector<ShardEndpoint> shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("shard map must list at least one shard");
  }
  for (size_t i = 0; i < shards.size(); ++i) {
    for (size_t j = i + 1; j < shards.size(); ++j) {
      if (shards[i] == shards[j]) {
        return Status::InvalidArgument("duplicate shard endpoint " +
                                       EndpointToString(shards[i]));
      }
    }
  }
  struct Move {
    Impl::StreamRoute* route;
    size_t target;
  };
  std::vector<Move> moves;
  uint64_t version = 0;
  size_t shard_count = shards.size();
  {
    std::unique_lock<std::shared_mutex> lock(impl_->table_mu);
    std::vector<size_t> fresh_active;
    fresh_active.reserve(shards.size());
    for (ShardEndpoint& endpoint : shards) {
      size_t index = impl_->backends.size();
      for (size_t i = 0; i < impl_->backends.size(); ++i) {
        if (impl_->backends[i]->endpoint == endpoint) {
          index = i;
          break;
        }
      }
      if (index == impl_->backends.size()) {
        auto backend = std::make_unique<Impl::Backend>();
        backend->endpoint = std::move(endpoint);
        impl_->backends.push_back(std::move(backend));
      }
      fresh_active.push_back(index);
    }
    impl_->active = std::move(fresh_active);
    version = ++impl_->version;
    // Claim every stream whose owner changes under the new map so a
    // concurrent install cannot double-migrate it. The claim does NOT
    // block frames — they keep flowing to the old owner until the
    // stream's own handoff starts, so a frame never waits out the whole
    // (sequential) migration sweep, only its own stream's few-ms handoff.
    // Routes mid-create (not ready) keep their placement — the next
    // install re-evaluates them.
    for (const auto& entry : impl_->routes) {
      Impl::StreamRoute* route = entry.get();
      std::lock_guard<std::mutex> route_lock(route->m);
      if (route->deleted || !route->ready || route->migrating ||
          route->claimed) {
        continue;
      }
      const size_t owner = impl_->active[static_cast<size_t>(
          JumpConsistentHash(route->gid,
                             static_cast<int32_t>(impl_->active.size())))];
      if (owner != route->backend) {
        route->claimed = true;
        moves.push_back({route, owner});
      }
    }
  }
  size_t failed = 0;
  for (const Move& move : moves) {
    if (!impl_->MigrateStream(move.route, move.target)) failed += 1;
  }
  Telemetry().journal().Emit(
      "router.map_install",
      {{"version", std::to_string(version)},
       {"shards", std::to_string(shard_count)},
       {"moved", std::to_string(moves.size() - failed)},
       {"failed", std::to_string(failed)}});
  return "{\"version\":" + std::to_string(version) +
         ",\"shards\":" + std::to_string(shard_count) +
         ",\"moved\":" + std::to_string(moves.size() - failed) +
         ",\"failed\":" + std::to_string(failed) + "}";
}

// -------------------------------------------------------------- data plane

IngestResponse RouterCore::HandleIngest(const IngestRequest& request) {
  static auto* frames = Telemetry().GetCounter("router.ingest_frames");
  static auto* forwarded =
      Telemetry().GetCounter("router.points_forwarded");
  static auto* rejected = Telemetry().GetCounter("router.frames_rejected");
  frames->Add(1);

  IngestResponse resp;
  resp.stream = request.stream;
  const auto reject = [&](RejectReason reason) {
    rejected->Add(1);
    Telemetry()
        .GetCounter(std::string("router.reject.") +
                    std::string(service::RejectReasonName(reason)))
        ->Add(1);
    resp.type = FrameType::kReject;
    resp.reason = reason;
    return resp;
  };

  if (request.hello) {
    if (request.protocol_version != service::kProtocolVersion) {
      return reject(RejectReason::kVersionMismatch);
    }
    resp.type = FrameType::kHelloAck;
    resp.protocol_version = service::kProtocolVersion;
    return resp;
  }
  if (impl_->draining.load(std::memory_order_relaxed)) {
    return reject(RejectReason::kDraining);
  }

  Impl::StreamRoute* route = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(impl_->table_mu);
    if (request.stream >= impl_->routes.size()) {
      return reject(RejectReason::kUnknownStream);
    }
    route = impl_->routes[request.stream].get();
  }

  size_t backend_index = 0;
  uint64_t local_id = 0;
  {
    // Frames wait out a migration instead of bouncing: the handoff takes
    // milliseconds, and blocking here is what makes a reshard invisible
    // to a well-behaved client. The wait must outlast a worst-case
    // handoff (bounded by the migrate deadline) — a shorter wait would
    // turn a slow-but-successful migration into client-visible rejects.
    std::unique_lock<std::mutex> lock(route->m);
    const auto deadline =
        Clock::now() + Seconds(impl_->options.acquire_timeout_seconds +
                               impl_->options.migrate_timeout_seconds);
    if (!route->cv.wait_until(lock, deadline,
                              [&] { return !route->migrating; })) {
      Telemetry().GetCounter("router.reject_site.migrate_wait")->Add(1);
      return reject(RejectReason::kUnavailable);
    }
    if (route->deleted) return reject(RejectReason::kUnknownStream);
    backend_index = route->backend;
    local_id = route->local_id;
    route->in_flight += 1;
  }
  struct InFlightGuard {
    Impl::StreamRoute* route;
    ~InFlightGuard() {
      std::lock_guard<std::mutex> lock(route->m);
      route->in_flight -= 1;
      route->cv.notify_all();
    }
  } guard{route};

  Impl::Backend& backend = *impl_->BackendAt(backend_index);
  if (!backend.healthy.load(std::memory_order_relaxed)) {
    Telemetry().GetCounter("router.reject_site.unhealthy")->Add(1);
    return reject(RejectReason::kUnavailable);
  }
  auto channel = impl_->Acquire(backend);
  if (channel == nullptr) {
    Telemetry().GetCounter("router.reject_site.pool_exhausted")->Add(1);
    return reject(RejectReason::kUnavailable);
  }
  auto reply = channel->Ingest(local_id, request.values);
  if (!reply.ok()) {
    Telemetry().GetCounter("router.reject_site.transport")->Add(1);
    Telemetry().journal().Emit(
        "router.shard_transport_error",
        {{"shard", std::to_string(backend_index)},
         {"error", std::string(reply.status().message())}});
    impl_->Discard(backend);
    impl_->MarkDown(backend);
    return reject(RejectReason::kUnavailable);
  }
  impl_->Release(backend, std::move(channel));
  resp = *reply;
  resp.stream = request.stream;  // local → global rewrite
  if (resp.type == FrameType::kAck) {
    forwarded->Add(request.values.size());
  } else {
    rejected->Add(1);
    Telemetry()
        .GetCounter(std::string("router.reject.") +
                    std::string(service::RejectReasonName(resp.reason)))
        ->Add(1);
  }
  return resp;
}

// ----------------------------------------------------------- control plane

size_t RouterCore::num_streams() const {
  std::shared_lock<std::shared_mutex> lock(impl_->table_mu);
  size_t live = 0;
  for (const auto& route : impl_->routes) {
    std::lock_guard<std::mutex> route_lock(route->m);
    if (!route->deleted) ++live;
  }
  return live;
}

size_t RouterCore::num_shards() const {
  std::shared_lock<std::shared_mutex> lock(impl_->table_mu);
  return impl_->active.size();
}

uint64_t RouterCore::map_version() const {
  std::shared_lock<std::shared_mutex> lock(impl_->table_mu);
  return impl_->version;
}

bool RouterCore::shard_healthy(size_t index) const {
  std::shared_lock<std::shared_mutex> lock(impl_->table_mu);
  return index < impl_->backends.size() &&
         impl_->backends[index]->healthy.load(std::memory_order_relaxed);
}

void RouterCore::ProbeNow() {
  std::vector<Impl::Backend*> snapshot;
  {
    std::shared_lock<std::shared_mutex> lock(impl_->table_mu);
    snapshot.reserve(impl_->backends.size());
    for (const auto& backend : impl_->backends) {
      snapshot.push_back(backend.get());
    }
  }
  for (Impl::Backend* backend : snapshot) impl_->ProbeOne(*backend);
}

std::string RouterCore::Handle(const HttpRequest& request) {
  static auto* requests = Telemetry().GetCounter("router.http_requests");
  static auto* hist = Telemetry().GetHistogram("router.http_seconds");
  requests->Add(1);
  telemetry::ScopedTimer timer(hist);
  using service::RenderHttpError;
  using service::RenderHttpResponse;

  if (request.path == "/healthz") {
    if (request.method != "GET") return RenderHttpError(405, "use GET");
    std::string shards;
    bool all_healthy = true;
    {
      std::shared_lock<std::shared_mutex> lock(impl_->table_mu);
      for (size_t i = 0; i < impl_->backends.size(); ++i) {
        const Impl::Backend& b = *impl_->backends[i];
        const bool healthy = b.healthy.load(std::memory_order_relaxed);
        const bool is_active =
            std::find(impl_->active.begin(), impl_->active.end(), i) !=
            impl_->active.end();
        if (is_active && !healthy) all_healthy = false;
        if (!shards.empty()) shards += ',';
        shards += "{\"shard\":" + std::to_string(i) +
                  ",\"endpoint\":" + JsonQuote(EndpointToString(b.endpoint)) +
                  ",\"healthy\":" + (healthy ? "true" : "false") +
                  ",\"active\":" + (is_active ? "true" : "false") + "}";
      }
    }
    return RenderHttpResponse(
        200, std::string("{\"status\":") +
                 (all_healthy ? "\"ok\"" : "\"degraded\"") +
                 ",\"draining\":" +
                 (impl_->draining.load(std::memory_order_relaxed) ? "true"
                                                                  : "false") +
                 ",\"streams\":" + std::to_string(num_streams()) +
                 ",\"map_version\":" + std::to_string(map_version()) +
                 ",\"shards\":[" + shards + "]}");
  }
  if (request.path == "/metrics") {
    if (request.method != "GET") return RenderHttpError(405, "use GET");
    std::string body = "{\"router\":" + Session::MetricsJson() +
                       ",\"shards\":[";
    body += impl_->FanOut("GET", "/metrics", "metrics");
    return RenderHttpResponse(200, body + "]}");
  }
  if (request.path == "/v1/streams") {
    if (request.method == "POST") {
      std::string tenant;
      std::string name;
      if (!JsonFindString(request.body, "tenant", &tenant)) {
        return RenderHttpError(400, "body must carry a \"tenant\" field");
      }
      JsonFindString(request.body, "name", &name);  // optional
      auto created =
          impl_->CreateStream(std::move(tenant), std::move(name));
      if (!created.ok()) {
        return RenderHttpError(service::StatusToHttp(created.status()),
                               created.status().message());
      }
      return RenderHttpResponse(201, created->second);
    }
    if (request.method == "GET") {
      std::string body = "{\"map_version\":" + std::to_string(map_version()) +
                         ",\"streams\":" + std::to_string(num_streams()) +
                         ",\"shards\":[";
      body += impl_->FanOut("GET", "/v1/streams", "body");
      return RenderHttpResponse(200, body + "]}");
    }
    return RenderHttpError(405, "use GET or POST");
  }
  std::string_view suffix;  // the router serves no per-stream subroutes
  if (size_t gid = 0; service::ParseStreamPath(request.path, &gid, &suffix) &&
                      suffix.empty()) {
    if (request.method != "GET" && request.method != "DELETE") {
      return RenderHttpError(405, "use GET or DELETE");
    }
    Impl::StreamRoute* route = nullptr;
    {
      std::shared_lock<std::shared_mutex> lock(impl_->table_mu);
      if (gid < impl_->routes.size()) route = impl_->routes[gid].get();
    }
    size_t backend_index = 0;
    uint64_t local_id = 0;
    if (route != nullptr) {
      std::lock_guard<std::mutex> lock(route->m);
      if (route->deleted || !route->ready) route = nullptr;
      if (route != nullptr) {
        backend_index = route->backend;
        local_id = route->local_id;
      }
    }
    if (route == nullptr) {
      return RenderHttpError(404, "no stream " + std::to_string(gid));
    }
    std::string target = "/v1/streams/" + std::to_string(local_id);
    if (request.method == "GET" && !request.query.empty()) {
      target += '?';
      target += request.query;
    }
    auto reply = impl_->ShardHttp(backend_index, request.method, target, "");
    if (!reply.ok()) {
      return RenderHttpError(503, "shard unavailable: " +
                                      reply.status().message());
    }
    if (request.method == "DELETE" && reply->status == 200) {
      std::lock_guard<std::mutex> lock(route->m);
      route->deleted = true;
    }
    return RenderHttpResponse(
        reply->status,
        reply->status == 200
            ? RewriteStreamBody(reply->body, gid, backend_index)
            : reply->body);
  }
  if (request.path == "/v1/flush" || request.path == "/v1/checkpoint") {
    if (request.method != "POST") return RenderHttpError(405, "use POST");
    bool all_ok = true;
    const std::string sections =
        impl_->FanOut("POST", request.path, "", &all_ok);
    const std::string verb =
        request.path == "/v1/flush" ? "flushed" : "checkpointed";
    return RenderHttpResponse(all_ok ? 200 : 500,
                              "{\"" + verb + "\":" +
                                  (all_ok ? "true" : "false") +
                                  ",\"shards\":[" + sections + "]}");
  }
  if (request.path == "/v1/shards") {
    if (request.method == "GET") {
      std::string body;
      {
        std::shared_lock<std::shared_mutex> lock(impl_->table_mu);
        body = "{\"version\":" + std::to_string(impl_->version) +
               ",\"shards\":[";
        bool first = true;
        for (const size_t index : impl_->active) {
          if (!first) body += ',';
          first = false;
          body += JsonQuote(
              EndpointToString(impl_->backends[index]->endpoint));
        }
        body += "]}";
      }
      return RenderHttpResponse(200, body);
    }
    if (request.method == "POST") {
      std::vector<std::string> specs;
      if (!JsonFindStringArray(request.body, "shards", &specs) ||
          specs.empty()) {
        return RenderHttpError(
            400, "body must carry a \"shards\" array of endpoint strings");
      }
      std::vector<ShardEndpoint> endpoints;
      endpoints.reserve(specs.size());
      for (const std::string& spec : specs) {
        auto parsed = ParseEndpointList(spec);
        if (!parsed.ok()) {
          return RenderHttpError(400, parsed.status().message());
        }
        for (ShardEndpoint& endpoint : *parsed) {
          endpoints.push_back(std::move(endpoint));
        }
      }
      auto installed = InstallShardMap(std::move(endpoints));
      if (!installed.ok()) {
        return RenderHttpError(service::StatusToHttp(installed.status()),
                               installed.status().message());
      }
      // Partial migration failure reports 500 with the summary: the moved
      // streams are committed, the failed ones still serve from their old
      // shard, and the operator re-POSTs after fixing the target.
      uint64_t failed = 0;
      JsonFindUInt(*installed, "failed", &failed);
      return RenderHttpResponse(failed == 0 ? 200 : 500, *installed);
    }
    return RenderHttpError(405, "use GET or POST");
  }
  return RenderHttpError(404, "no route for " + std::string(request.path));
}

}  // namespace egi::router

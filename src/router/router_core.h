#pragma once

// The egid-router's socket-free core (src/router): everything the sharding
// front door does, behind the same ServiceHandler seam the scoring daemon
// uses — so src/service/server.cc serves it unchanged and the tests drive
// it in-process with loopback channels (the HubService testability model).
//
// Responsibilities:
//  - Stream placement: global stream ids are dense router indices; a new
//    stream is created on the shard JumpConsistentHash(gid, active_shards)
//    picks, and the (backend, local_id) pair is remembered in the route
//    table. Frames and per-stream queries forward with id rewriting, so
//    clients only ever see router ids.
//  - Per-shard connection pools with bounded in-flight frames: each backend
//    holds at most `channels_per_shard` channels; a frame that cannot lease
//    one within the acquire timeout is rejected (kUnavailable), never
//    stalled — the same reject-not-stall backpressure contract as the
//    shard's own ingest queue.
//  - Health: a forward that hits a transport error marks the backend down
//    immediately and answers kUnavailable; the probe loop (or ProbeNow)
//    re-checks /healthz with exponential backoff and flips the backend
//    healthy again, so recovery after a shard restart is automatic.
//  - Scatter-gather control plane: /v1/flush, /v1/checkpoint, /metrics and
//    GET /v1/streams fan out to every active shard and merge the replies as
//    per-shard JSON sections plus router-level telemetry.
//  - Live migration: POST /v1/shards installs a new endpoint list as a
//    versioned map. Every live stream whose owner changes is moved with the
//    checkpoint handoff protocol (see DESIGN.md "Sharded routing"): block
//    new frames, drain in-flight, flush the source shard, export the
//    per-stream checkpoint, create + import on the target, reconcile
//    accepted_total, delete the source copy, swap the route. Scores
//    continue bitwise-identically because the checkpoint *is* the complete
//    detector state (the PR 4 restore contract).
//
// Locking: `table_mu` (shared_mutex) guards only table shape — the routes
// vector, the backends vector, and the active map. Per-route fields live
// under each route's own mutex; the lock order is always table_mu before
// route mutex, and no lock is held across network I/O on the ingest path
// (in-flight accounting, not the table lock, is what migration waits on).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "egi/result.h"
#include "egi/status.h"
#include "router/shard_channel.h"
#include "router/shard_map.h"
#include "service/handler.h"

namespace egi::router {

struct RouterOptions {
  /// Initial shard map (all endpoints active). Must be non-empty.
  std::vector<ShardEndpoint> shards;
  /// Channels (and therefore maximum concurrent in-flight requests) per
  /// backend shard.
  size_t channels_per_shard = 4;
  /// How long a request waits for a pool channel or a migrating stream
  /// before giving up with kUnavailable.
  double acquire_timeout_seconds = 2.0;
  /// Per-stream migration deadline (drain + export + import + verify).
  double migrate_timeout_seconds = 10.0;
  /// Seconds between /healthz probes of healthy shards; 0 disables the
  /// probe thread (tests drive ProbeNow() instead).
  double probe_interval_seconds = 0.0;
  /// Ceiling of the exponential probe backoff for unhealthy shards.
  double probe_backoff_max_seconds = 5.0;
  /// Dials channels; required. egid_router_main passes TcpChannelFactory.
  ChannelFactory factory;
};

class RouterCore : public service::ServiceHandler {
 public:
  static Result<std::unique_ptr<RouterCore>> Create(RouterOptions options);

  ~RouterCore() override;
  RouterCore(const RouterCore&) = delete;
  RouterCore& operator=(const RouterCore&) = delete;

  // ----------------------------------------------------- ServiceHandler

  /// Routes: GET /healthz, GET /metrics, POST|GET /v1/streams,
  /// GET|DELETE /v1/streams/<gid>[?tail=K], POST /v1/flush,
  /// POST /v1/checkpoint, GET|POST /v1/shards.
  std::string Handle(const service::HttpRequest& request) override;

  /// Forwards one frame to the owning shard (rewriting stream ids in both
  /// directions). Hello frames answer locally. Never blocks longer than
  /// the acquire timeout: kUnavailable is the slow-path answer.
  service::IngestResponse HandleIngest(
      const service::IngestRequest& request) override;

  void BeginDrain() override;
  Status Shutdown() override;
  /// The router holds no durable state; the timer tick is a no-op.
  Status PeriodicCheckpoint() override { return Status::OK(); }

  // ------------------------------------------------------------- control

  /// Installs a new shard map (the POST /v1/shards core): endpoints
  /// already known keep their backend (and its health + pool); new ones
  /// are dialed lazily. Every live stream whose owner changes under the
  /// new map is migrated via checkpoint handoff. Returns the summary the
  /// endpoint renders; a partial failure leaves failed streams serving
  /// from their old shard.
  Result<std::string> InstallShardMap(std::vector<ShardEndpoint> shards);

  // ---------------------------------------------------------- inspection

  size_t num_streams() const;
  /// Active shards under the current map.
  size_t num_shards() const;
  uint64_t map_version() const;
  /// Health flag of backend `index` (creation order, matching /healthz).
  bool shard_healthy(size_t index) const;
  /// One synchronous probe round over every backend — the deterministic
  /// test/smoke hook behind the probe thread.
  void ProbeNow();

 private:
  struct Impl;
  explicit RouterCore(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace egi::router

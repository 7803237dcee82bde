#pragma once

// The egid daemon's socket-free core (src/service): one StreamSession per
// stream, opened from the service's Session, wrapped with everything the
// network layer needs but the library deliberately does not provide —
// admission control, asynchronous bounded ingest queues, and durable
// checkpoints. server.cc plugs sockets into the two entry points (Handle
// for HTTP control-plane requests, HandleIngest for binary data-plane
// frames); tests drive both in-process.
//
// Concurrency model (see DESIGN.md, "Service architecture"):
//  - A shared_mutex guards the stream table's *shape*: CreateStream /
//    DeleteStream / RestoreFromDisk take it exclusively, every other
//    operation shared, and only for the length of one call. Drain tasks
//    never take it: they hold their stream's pointer, and RestoreFromDisk,
//    the only code that destroys streams, first waits for every drain task
//    to finish. Stream ids are dense table indices; deletion is a
//    tombstone so ids stay positionally stable across checkpoint/restore.
//  - Each stream has a small queue mutex (accept path: bounded queue,
//    accepted counter) and a detect mutex (score path: its StreamSession).
//    Frame handlers only ever touch the queue mutex, so a slow refit never
//    blocks the TCP threads — backpressure is an immediate reject frame,
//    not a stalled socket.
//  - Scoring runs on the process-wide exec pool (one worker per core), the
//    service's only scheduler. Admitting points into an idle stream's queue
//    posts one drain task for that stream (a scheduled flag keeps a stream
//    on at most one task, preserving append order); the task appends the
//    queued points to the stream's session under the detect mutex until
//    the queue is empty. A refit inside a drain fans its ensemble members
//    out onto the same pool, so its helpers queue behind the drains already
//    waiting: streams run in parallel first, and a refit's members spread
//    only onto idle workers.
//  - CheckpointNow serializes each stream under its detect mutex (ahead of
//    the stream's drain, which yields between chunks), streams in parallel
//    on the pool, so a checkpoint under full ingest load captures a
//    consistent point-in-time snapshot of each stream, then lands on disk
//    via serialize::WriteFileAtomic (crash leaves the previous complete
//    checkpoint). Queued-but-unscored points are *not* part of a
//    checkpoint: an ack means "accepted", durability begins once a point
//    has been scored into a checkpointed stream. Clients that need
//    exactly-once resumption reconcile against `accepted_total` after a
//    reconnect.
//  - Tenant quotas: max streams per tenant, and a token-bucket points/sec
//    rate. The bucket clock is injectable so quota tests are deterministic.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "egi/result.h"
#include "egi/session.h"
#include "egi/status.h"
#include "service/frame.h"
#include "service/handler.h"
#include "service/http.h"

namespace egi::service {

struct HubServiceOptions {
  /// Registry spec for the detector every stream runs (must support
  /// streaming).
  std::string spec = "ensemble";
  /// Stream shape shared by every stream; window_length must be set.
  StreamOptions stream;
  /// Checkpoint file path; empty disables persistence (CheckpointNow
  /// becomes an error, RestoreFromDisk a no-op).
  std::string checkpoint_path;
  /// Bounded per-stream ingest queue, in points. A frame that does not fit
  /// entirely is rejected (kQueueFull) — the queue never grows past this.
  size_t queue_capacity = 8192;
  /// Streams a single tenant may hold (tombstoned streams do not count);
  /// 0 = unlimited.
  size_t max_streams_per_tenant = 0;
  /// Token-bucket refill rate per tenant, in points/second; 0 = unlimited.
  double points_per_second = 0.0;
  /// Bucket capacity in points; 0 = one second's worth at the refill rate.
  double quota_burst = 0.0;
  /// Monotonic nanosecond clock for the token buckets; null = steady_clock.
  /// Injectable so quota behavior is testable without sleeping.
  std::function<uint64_t()> now_ns;
};

/// Wire-independent stream listing entry (the JSON list/query endpoints
/// render these).
struct StreamInfo {
  size_t stream = 0;
  std::string tenant;
  std::string name;
  uint64_t accepted_total = 0;
  uint64_t scored_total = 0;
  size_t queued = 0;
  double last_score = 0.0;
  bool last_scored = false;
  HubStreamStats stats;
};

class HubService : public ServiceHandler {
 public:
  /// Builds the service: opens the Session, validates options, and — when a
  /// checkpoint file exists — restores it. Drains run on
  /// exec::ThreadPool::Shared(), so a service must not be created in a
  /// child forked after the pool started (see exec/parallel.h).
  static Result<std::unique_ptr<HubService>> Create(HubServiceOptions options);

  ~HubService() override;
  HubService(const HubService&) = delete;
  HubService& operator=(const HubService&) = delete;

  // ------------------------------------------------------------ data plane

  /// Admits (or rejects) one decoded ingest frame. Never blocks on detector
  /// work: the points are queued and the response reports queue-accept
  /// totals plus the most recent score. Hello frames answer with a
  /// helloack (or a kVersionMismatch reject).
  IngestResponse HandleIngest(const IngestRequest& request) override;

  // --------------------------------------------------------- control plane

  /// Routes one control-plane request and returns the complete HTTP
  /// response. Endpoints: GET /healthz, GET /metrics, POST /v1/streams,
  /// GET /v1/streams, GET /v1/streams/<id>[?tail=K], DELETE
  /// /v1/streams/<id>, GET/PUT /v1/streams/<id>/checkpoint, POST
  /// /v1/flush, POST /v1/checkpoint.
  std::string Handle(const HttpRequest& request) override;

  // ----------------------------------------------------------- operations

  /// Creates a stream for `tenant` (enforcing the per-tenant stream quota)
  /// and returns its id.
  Result<size_t> CreateStream(std::string tenant, std::string name);

  /// Tombstones a stream: further frames are rejected with kUnknownStream,
  /// the id is never reused, and the tombstone persists across
  /// checkpoint/restore.
  Status DeleteStream(size_t stream);

  /// Point-in-time listing of one stream / all live streams.
  Result<StreamInfo> Describe(size_t stream) const;
  std::vector<StreamInfo> List() const;

  /// Latest `max_points` scores of a stream, oldest first.
  Result<std::vector<double>> RecentScores(size_t stream,
                                           size_t max_points) const;

  /// Blocks until every queued point has been scored (with quiescent
  /// producers; concurrent ingest can re-raise the pending count).
  void Flush();

  /// Serializes every stream (consistent under concurrent ingest, see the
  /// header comment) and atomically replaces the checkpoint file.
  Status CheckpointNow();

  /// Loads the checkpoint file, replacing all streams. Missing file = OK
  /// fresh start. Called by Create; exposed for tests.
  Status RestoreFromDisk();

  /// Serializes one live stream into a standalone detector blob — the unit
  /// of shard migration. FailedPrecondition while the stream still has
  /// queued-but-unscored points (the caller flushes first): the blob must
  /// capture everything the stream has acked, or the handoff would lose
  /// points.
  Result<std::vector<uint8_t>> ExportStreamCheckpoint(size_t stream) const;

  /// Replaces one live stream's detector with an ExportStreamCheckpoint
  /// blob and reconciles the admission counters (accepted_total,
  /// scored_total, last score) from the restored detector. Same
  /// empty-queue precondition as the export side.
  Status ImportStreamCheckpoint(size_t stream,
                                std::span<const uint8_t> blob);

  /// Enters drain mode: every subsequent frame is rejected with kDraining
  /// and stream creation fails. Idempotent.
  void BeginDrain() override;

  /// Graceful shutdown: BeginDrain, Flush, wait for the last drain task,
  /// and write a final checkpoint (when persistence is configured).
  /// Idempotent; also run by the destructor minus the checkpoint-error
  /// reporting.
  Status Shutdown() override;

  /// Periodic-checkpoint tick for the socket layer's timer: CheckpointNow.
  Status PeriodicCheckpoint() override { return CheckpointNow(); }

  size_t num_streams() const;
  bool draining() const;

 private:
  struct Impl;
  explicit HubService(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace egi::service

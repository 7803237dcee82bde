#pragma once

// Part of the installed public API (see DESIGN.md, "Public API"). The one
// front door to the library: a Session is a configured detector built from
// a registry spec string, covering batch detection, point-wise scoring,
// streaming sessions, and checkpoint/restore — callers never touch src/
// internals.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "egi/registry.h"
#include "egi/result.h"
#include "egi/spec.h"
#include "egi/types.h"

namespace egi {

/// Configuration of a streaming session opened from a batch Session. The
/// Algorithm 1 knobs (wmax, amax, n, tau, seed, prune_to, threads) come from
/// the owning Session's spec; these are the stream-shape knobs.
struct StreamOptions {
  /// Sliding-window length n (the anomaly scale of interest). Required.
  size_t window_length = 0;
  /// Points of history kept (and re-scored per refit). Must be
  /// >= window_length.
  size_t buffer_capacity = 4096;
  /// A full batch refit runs once per this many appends (amortization knob:
  /// larger = faster ingest, staler provisional model). Must be >= 1. Under
  /// RefitPolicy::kAdaptive this is the floor of the effective cadence.
  size_t refit_interval = 512;
  /// Refit cadence policy. Deterministic either way: the same ingested
  /// values produce the same refit boundaries at every thread count.
  RefitPolicy refit_policy = RefitPolicy::kFixed;
  /// Ceiling of the adaptive cadence; 0 = 8 * refit_interval. Must be 0 or
  /// >= refit_interval. Ignored under kFixed.
  size_t refit_interval_max = 0;
  /// Width of the adaptive drift band, in baseline standard deviations of
  /// the post-refit provisional scores. Must be finite and > 0 under
  /// kAdaptive. Ignored under kFixed.
  double drift_tolerance = 0.25;
};

/// A single online detection stream (the façade over the streaming
/// detector). Obtained from Session::OpenStream or restored from a
/// Checkpoint() blob; move-only and not thread-safe — one thread advances a
/// stream at a time (a StreamHub holds many).
class StreamSession {
 public:
  StreamSession(StreamSession&&) noexcept;
  StreamSession& operator=(StreamSession&&) noexcept;
  ~StreamSession();

  /// Ingests one point and returns its score. Non-finite values are
  /// rejected: not buffered, returned with scored == false.
  StreamPoint Append(double value);

  /// Batch ingest: appends every value in order, one StreamPoint per value.
  std::vector<StreamPoint> Ingest(std::span<const double> values);

  /// Runs a batch refit now (also happens automatically every
  /// refit_interval appends). Fails — leaving the previous model in place —
  /// when fewer than window_length points are buffered.
  Status ForceRefit();

  size_t window_length() const;
  uint64_t total_appended() const;
  size_t buffered() const;        ///< points currently held in the ring
  uint64_t refit_count() const;
  bool fitted() const;            ///< at least one refit has completed

  /// Rolling mean / standard deviation of the trailing sliding window.
  double RollingMean() const;
  double RollingStdDev() const;

  /// Linearized copy of the buffered points, oldest first.
  std::vector<double> BufferSnapshot() const;
  /// Scores aligned 1:1 with BufferSnapshot(); NaN for never-scored points.
  std::vector<double> ScoresSnapshot() const;
  /// The last min(max_points, buffered()) entries of ScoresSnapshot(),
  /// oldest first, copied without materializing the whole curve.
  std::vector<double> RecentScores(size_t max_points) const;

  /// Serializes the complete stream state into a versioned, checksummed
  /// blob. A StreamSession restored from it continues bitwise-identically
  /// to the uninterrupted original (see DESIGN.md, "Snapshot format").
  std::vector<uint8_t> Checkpoint() const;

  /// Restores a stream from a Checkpoint() blob. Every malformed input —
  /// truncation, bit flips, version or kind mismatches — yields a Status
  /// error, never a crash. The spec lives inside the blob, so no Session is
  /// needed; only its threads= does not (scores are the same at every
  /// thread count, and so are the blob's bytes): the restored stream runs
  /// at EGI_NUM_THREADS, all cores by default.
  static Result<StreamSession> Restore(std::span<const uint8_t> blob);

 private:
  friend class Session;
  struct Impl;
  explicit StreamSession(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Point-in-time statistics of one hub stream (the hub-side counterpart of
/// StreamSession's accessors; served by the egid daemon's query endpoint).
struct HubStreamStats {
  uint64_t total_appended = 0;  ///< points ingested since creation
  size_t buffered = 0;          ///< points currently held in the ring
  uint64_t refit_count = 0;     ///< completed batch refits
  bool fitted = false;          ///< at least one refit has completed
  size_t window_length = 0;     ///< the stream's sliding-window length n
};

/// Many independent streams sharing one configuration, addressed by dense
/// ids. Each stream is advanced on the calling thread; different streams
/// may be advanced concurrently, one thread per stream. Checkpoint() and
/// Restore() capture and restore every stream as one all-or-nothing blob,
/// serializing and decoding the streams in parallel (the spec's threads=);
/// the bytes are identical for every thread count.
class StreamHub {
 public:
  StreamHub(StreamHub&&) noexcept;
  StreamHub& operator=(StreamHub&&) noexcept;
  ~StreamHub();

  /// Registers a new stream; ids are dense and start at 0.
  size_t AddStream();

  /// Appends `values` to one stream in order and returns the per-point
  /// scores. One thread at a time per stream; AddStream and Restore must
  /// not run concurrently with it.
  std::vector<StreamPoint> Ingest(size_t stream,
                                  std::span<const double> values);

  size_t num_streams() const;

  /// Counters and shape of one stream, read on the calling thread. The
  /// caller must ensure the stream is not concurrently advanced (the same
  /// single-writer rule as Ingest).
  HubStreamStats Stats(size_t stream) const;

  /// The last `max_points` entries of the stream's score curve, oldest
  /// first (NaN for never-scored points) — what a service "latest scores"
  /// query serves. Same synchronization rule as Stats().
  std::vector<double> RecentScores(size_t stream, size_t max_points) const;

  /// Checkpoints every stream into one versioned blob (sections produced
  /// concurrently; the checksum covers all streams). No stream may be
  /// advanced meanwhile.
  std::vector<uint8_t> Checkpoint() const;

  /// Restores a Checkpoint() blob, replacing every current stream.
  /// All-or-nothing: on any failure the hub is left exactly as it was.
  /// Restored streams run at EGI_NUM_THREADS, as in
  /// StreamSession::Restore; streams added later follow the hub's spec.
  Status Restore(std::span<const uint8_t> blob);

  /// Checkpoints one stream into a standalone blob — the same bytes as a
  /// single-stream StreamSession::Checkpoint(), and the unit of shard
  /// migration in the egid-router: export here, RestoreStream() on another
  /// process's hub, and the stream continues bitwise-identically. Same
  /// synchronization rule as Stats().
  Result<std::vector<uint8_t>> CheckpointStream(size_t stream) const;

  /// Replaces one stream's state with a CheckpointStream() blob; other
  /// streams are untouched. On failure the stream is left as it was.
  Status RestoreStream(size_t stream, std::span<const uint8_t> blob);

 private:
  friend class Session;
  struct Impl;
  explicit StreamHub(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// A configured detector, constructed from a registry spec string such as
/// "ensemble:wmax=10,amax=10,n=50,tau=0.4" (see egi/registry.h for the
/// method names and option schemas, and egi/spec.h for the grammar).
/// Move-only. Detect/Score results are bitwise-identical to driving the
/// internal layers directly (enforced by tests/api_facade_test.cc).
class Session {
 public:
  /// Parses and validates `spec` against the registry: unknown methods,
  /// unknown or duplicate keys, malformed or out-of-range values all yield
  /// a descriptive Status error.
  static Result<Session> Open(std::string_view spec);
  static Result<Session> Open(const DetectorSpec& spec);

  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  ~Session();

  /// The registry entry this session was built from.
  const DetectorInfo& info() const;
  std::string_view method() const;

  /// Canonical fully-resolved spec: every schema key with its effective
  /// value, in schema order. Open(spec()) reproduces this session.
  std::string spec() const;

  /// Detects up to `max_candidates` mutually non-overlapping anomalies,
  /// most anomalous first. `window_length` is the anomaly scale of
  /// interest. Detectors are reusable across series; randomized detectors
  /// derive a fresh deterministic substream per call.
  Result<std::vector<Detection>> Detect(std::span<const double> series,
                                        size_t window_length,
                                        size_t max_candidates = 3);

  /// The detector's point-wise anomaly curve, one value per series point
  /// (rule density for grammar methods — LOW = anomalous). Only methods
  /// with info().supports_score provide one; others return
  /// FailedPrecondition.
  Result<std::vector<double>> Score(std::span<const double> series,
                                    size_t window_length);

  /// Opens an online stream scoring points against this session's ensemble
  /// configuration. Only methods with info().supports_streaming (the
  /// ensemble) support streaming; others return FailedPrecondition.
  Result<StreamSession> OpenStream(const StreamOptions& options) const;

  /// Opens a multi-stream hub whose streams default to `options` and this
  /// session's ensemble configuration (same capability rules as
  /// OpenStream).
  Result<StreamHub> OpenHub(const StreamOptions& options) const;

  /// One JSON document with every process-wide telemetry metric: folded
  /// counters and gauges, latency histogram summaries (count, mean,
  /// min/max, p50/p90/p99), and the tail of the structured event journal.
  /// Equivalent to telemetry::Registry::Global().ToJson(); see
  /// egi/telemetry.h for the full registry API and DESIGN.md "Telemetry"
  /// for the schema. With EGI_TELEMETRY=0 the document is just
  /// {"enabled":false,...} with empty sections.
  static std::string MetricsJson();

 private:
  struct Impl;
  explicit Session(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace egi

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/ensemble.h"
#include "egi/types.h"
#include "serialize/bytes.h"
#include "stream/ring_buffer.h"
#include "stream/rolling_stats.h"
#include "ts/prefix_stats.h"
#include "util/result.h"
#include "util/status.h"

namespace egi::stream {

/// Configuration of the online detector. `ensemble.window_length` is the
/// sliding-window length n; the other EnsembleParams fields are the
/// Algorithm 1 knobs used at every refit (fixed seed, so every refit draws
/// the identical (w, a) sample that batch ComputeEnsembleDensity would).
struct StreamDetectorOptions {
  core::EnsembleParams ensemble;

  /// Points of history kept (and re-scored per refit). The buffered window
  /// is the "series" the batch algorithm sees. Must be >= window_length.
  size_t buffer_capacity = 4096;

  /// A full batch refit runs once per this many appends (amortization knob:
  /// larger = faster ingest, staler provisional model). Must be >= 1. Under
  /// the adaptive policy this is the floor of the effective cadence.
  size_t refit_interval = 512;

  /// Refit cadence policy. kAdaptive judges drift block by block (Neumaier
  /// rolling stats): the first refit_interval provisional scores after a
  /// refit form the baseline block, and every later block's mean is held to
  /// a band of drift_tolerance baseline-std-devs around the baseline mean.
  /// While blocks stay in band the effective interval doubles (up to
  /// refit_interval_max); an out-of-band block triggers a refit on the spot
  /// and snaps the cadence back to the refit_interval floor. A pure
  /// function of the ingested values — same inputs, same thread count, same
  /// refit boundaries — and bitwise-identical to kFixed when unused.
  RefitPolicy refit_policy = RefitPolicy::kFixed;

  /// Ceiling of the adaptive cadence; 0 = 8 * refit_interval. Must be 0 or
  /// >= refit_interval. Ignored under kFixed.
  size_t refit_interval_max = 0;

  /// Width of the drift band in baseline standard deviations. Must be a
  /// finite value > 0 under kAdaptive. Ignored under kFixed.
  double drift_tolerance = 0.25;
};

/// Online ensemble grammar-induction detector (the streaming counterpart of
/// batch `core::ComputeEnsembleDensity`). Operation interleaves two paths:
///
/// - **Incremental path** (every Append): the new point completes exactly
///   one sliding window per ensemble member — the window ending at the
///   point. Prefix sums are rebuilt over that window alone, the batch PAA
///   kernel (sax::FastPaa) runs once per distinct w of the kept members, and
///   each kept member's SAX word — exactly the word sax::DiscretizeSeries
///   gives the window on its own — is scored against the word-frequency
///   model fitted at the last refit (rare/unseen word -> low density ->
///   anomalous; the HOTSAX rarity principle). Member scores combine in draw
///   order under the ensemble's combine rule. Cost: O(window_length +
///   kept_members * w) per point, independent of buffer size, with no per-
///   point allocation. These scores are marked `provisional`.
///
/// - **Amortized refit** (every `refit_interval` appends): the batch
///   Algorithm 1 runs on the buffered window, the whole score curve is
///   replaced by its density (bitwise-identical to calling
///   ComputeEnsembleDensity on BufferSnapshot() — the replay-equivalence
///   guarantee, enforced by tests/stream_detector_test.cc), and the
///   per-member word-frequency models are rebuilt.
///
/// Detectors are single-stream and not thread-safe; many streams are many
/// detectors, each advanced by one thread at a time (egi::StreamHub, or the
/// egid daemon's per-stream drains).
class StreamDetector {
 public:
  explicit StreamDetector(StreamDetectorOptions options);

  /// Status mirror of the constructor's validity checks (the constructor
  /// aborts on violation — programmer error; snapshot restore and the
  /// façade route untrusted options through this instead). It also bounds
  /// buffer_capacity at 2^26 points, since the constructor pre-allocates
  /// two rings of that many doubles.
  static Status ValidateOptions(const StreamDetectorOptions& options);

  /// Ingests one point and returns its score. Non-finite values are
  /// rejected: not buffered, returned with scored == false. O(1) amortized
  /// ring/stats work plus the incremental encode; a refit every
  /// refit_interval points.
  StreamPoint Append(double value);

  /// Batch ingest: appends every value in order, returning one StreamPoint
  /// per value. No backpressure — the ring evicts the oldest history. Its
  /// latency is the `stream.ingest_batch_seconds` histogram.
  std::vector<StreamPoint> Ingest(std::span<const double> values);

  /// Runs a batch refit now (also called internally every refit_interval
  /// appends). Fails (and leaves the previous model in place) when fewer
  /// than window_length points are buffered or the ensemble parameters are
  /// invalid for the buffered length.
  Status ForceRefit();

  const StreamDetectorOptions& options() const { return options_; }
  size_t window_length() const { return options_.ensemble.window_length; }
  uint64_t total_appended() const { return appended_; }
  size_t buffered() const { return points_.size(); }
  uint64_t refit_count() const { return refits_; }
  uint64_t appends_since_refit() const { return since_refit_; }
  bool fitted() const { return refits_ > 0; }

  /// Current effective refit cadence: refit_interval under kFixed, the
  /// stretched interval in [refit_interval, refit_interval_max] under
  /// kAdaptive.
  uint64_t effective_refit_interval() const { return effective_interval_; }

  /// Status of the most recent refit attempt (OK before any attempt).
  const Status& last_refit_status() const { return last_refit_status_; }

  /// Rolling mean / sample std-dev of the trailing window_length points (or
  /// of everything buffered while fewer are), for StreamSession's
  /// RollingMean/RollingStdDev. Scoring does not read them: the provisional
  /// scorer rebuilds prefix sums over the window it encodes.
  double RollingMean() const { return window_stats_.Mean(); }
  double RollingStdDev() const { return window_stats_.SampleStdDev(); }

  /// Linearized copy of the buffered points, oldest first.
  std::vector<double> BufferSnapshot() const { return points_.Snapshot(); }

  /// Scores aligned 1:1 with BufferSnapshot(). Entries are exact batch
  /// densities for points scored by the last refit, provisional values for
  /// points appended after it, and NaN for points never scored (ingested
  /// before the first refit).
  std::vector<double> ScoresSnapshot() const { return scores_.Snapshot(); }

  /// The newest min(max_points, buffered) entries of ScoresSnapshot(),
  /// oldest first, copied straight out of the score ring.
  std::vector<double> RecentScores(size_t max_points) const {
    std::vector<double> out(std::min(max_points, scores_.size()));
    scores_.CopyLast(out.size(), out);
    return out;
  }

  /// Full ensemble output (members, kept flags) of the last refit.
  const core::EnsembleResult& last_ensemble() const { return last_ensemble_; }

  /// Serializes the complete detector state — options, counters, ring
  /// contents, rolling-stats accumulators, per-member word counts (their
  /// TokenTables included), and the last ensemble result —
  /// into a versioned, checksummed snapshot blob (src/serialize, DESIGN.md
  /// "Snapshot format"). A detector restored from the blob continues
  /// **bitwise-identically** to the uninterrupted original: same scores,
  /// same refit boundaries, same member stats (the continuation-equivalence
  /// guarantee, enforced by tests/stream_snapshot_test.cc).
  std::vector<uint8_t> Serialize() const;

  /// Restores a detector from a Serialize() blob. Every malformed input —
  /// truncation, bit flips (checksummed), version or kind mismatches,
  /// invariant-violating field values — yields a Status error, never a
  /// crash.
  static Result<StreamDetector> Deserialize(std::span<const uint8_t> blob);

  /// Each kept member's word counts, in draw order: tests pin that the
  /// models hold vocabulary-sized tables, not run-sized ones.
  std::span<const core::MemberWordCounts> ModelsForTest() const {
    return models_;
  }

 private:
  Status RefitNow();
  double ProvisionalScore();

  /// The adaptive policy's per-append refit decision (kAdaptive, fitted
  /// detectors only). Returns true when a refit should run now — either
  /// because the provisional score mean left the drift band or because the
  /// stretched effective interval elapsed at its ceiling — and stretches
  /// the interval / counts skipped refits otherwise.
  bool AdaptiveRefitDue();
  size_t EffectiveIntervalMax() const {
    return options_.refit_interval_max != 0 ? options_.refit_interval_max
                                            : 8 * options_.refit_interval;
  }

  // Snapshot payload body (src/stream/snapshot.cc). WritePayload emits
  // everything after the envelope; RestorePayload fills a freshly
  // constructed detector (options already decoded and validated) and
  // re-checks every cross-field invariant of the decoded state. `version`
  // is the envelope revision of the blob being restored (v1 blobs carry no
  // adaptive-cadence state and restore its defaults).
  void WritePayload(serialize::ByteWriter& w) const;
  Status RestorePayload(serialize::ByteReader& r, uint32_t version);

  StreamDetectorOptions options_;
  RingBuffer<double> points_;  // the newest buffer_capacity finite points
  RingBuffer<double> scores_;  // aligned with points_
  RollingStats window_stats_;  // over the trailing window_length points
  uint64_t appended_ = 0;
  uint64_t buffered_total_ = 0;  // points ever buffered; a snapshot field
  uint64_t since_refit_ = 0;
  uint64_t refits_ = 0;
  Status last_refit_status_;
  core::EnsembleResult last_ensemble_;
  // The word-frequency model of each kept member, in draw order: the
  // refit's own word counts (packed SAX word code -> sliding-window
  // positions it covered in the buffered window, numerosity-reduction runs
  // included), with the token table compacted to its vocabulary under the
  // same ids. The member's (w, a) is its table's codec. The per-point
  // lookup is one open-addressing probe on a packed code: no string is
  // built, hashed or compared anywhere in the scoring path.
  std::vector<core::MemberWordCounts> models_;
  // Adaptive-cadence state (kAdaptive; defaults are inert under kFixed).
  // drift_stats_ accumulates the provisional scores produced since the last
  // refit; the baseline (mean, std) is captured once refit_interval of them
  // exist and anchors the drift band until the next refit resets it.
  uint64_t effective_interval_ = 0;  // constructor: refit_interval
  RollingStats drift_stats_;
  double drift_base_mean_ = 0.0;
  double drift_base_std_ = 0.0;
  bool drift_base_set_ = false;
  // Hot-path scratch, reused across Append calls to avoid allocation.
  std::vector<double> scratch_window_;    // last window copy
  ts::PrefixStats window_prefix_;         // prefix sums of that window
  std::vector<double> paa_coeffs_;        // one row per distinct kept w
  std::vector<size_t> paa_row_of_w_;      // w -> its row's offset, wmax + 1
  std::vector<uint32_t> symbol_scratch_;  // per-member breakpoint intervals
  std::vector<double> member_scores_;     // per-member scores for combining
};

}  // namespace egi::stream

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "stream/ring_buffer.h"
#include "stream/rolling_stats.h"

namespace egi::stream {

/// The ingest layer of the streaming detector: a bounded ring buffer of the
/// most recent `capacity` points plus rolling Neumaier-compensated
/// statistics over the trailing sliding window of `window_length` points
/// (the SAX window). Append is O(1); the window mean/std-dev are maintained
/// incrementally for StreamSession::RollingMean/RollingStdDev and travel in
/// snapshots. Scoring does not read them: the provisional scorer rebuilds
/// prefix sums over the window it encodes.
class StreamWindow {
 public:
  /// `capacity` bounds the buffered history (the series a refit scores);
  /// `window_length` is the sliding-window length n of the detector.
  /// Requires capacity >= window_length >= 2.
  StreamWindow(size_t capacity, size_t window_length);

  /// Appends one point: ring-buffer push plus rolling-stats update. O(1).
  void Append(double value);

  size_t size() const { return buffer_.size(); }
  size_t capacity() const { return buffer_.capacity(); }
  size_t window_length() const { return window_length_; }
  uint64_t total_appended() const { return total_appended_; }

  /// True once at least one full sliding window is buffered.
  bool WindowReady() const { return buffer_.size() >= window_length_; }

  /// Rolling mean / sample std-dev of the trailing `window_length` points
  /// (or of everything buffered while still filling).
  double WindowMean() const { return window_stats_.Mean(); }
  double WindowStdDev() const { return window_stats_.SampleStdDev(); }

  /// Copies the trailing full window (oldest first) into `out`
  /// (out.size() >= window_length). Requires WindowReady().
  void CopyWindow(std::span<double> out) const;

  /// Linearized copy of the whole buffered history, oldest first.
  std::vector<double> Snapshot() const { return buffer_.Snapshot(); }

  const RingBuffer<double>& buffer() const { return buffer_; }

  /// Raw rolling statistics of the trailing window (snapshot/restore).
  const RollingStats& window_stats() const { return window_stats_; }

  /// Overwrites the complete ingest state: buffered points (oldest first,
  /// at most capacity), the rolling-stats accumulators, and the append
  /// counter. The rolling state is restored verbatim — not recomputed from
  /// `values` — because the compensated sums depend on the whole Add/Remove
  /// history and a recompute would break bitwise continuation. Caller
  /// (StreamDetector restore) validates cross-field consistency first.
  void RestoreState(std::span<const double> values,
                    const RollingStats::State& stats, uint64_t total_appended);

 private:
  size_t window_length_;
  RingBuffer<double> buffer_;
  RollingStats window_stats_;  // over the trailing window_length points
  uint64_t total_appended_ = 0;
};

}  // namespace egi::stream

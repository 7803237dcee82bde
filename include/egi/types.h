#pragma once

// Part of the installed public API (see DESIGN.md, "Public API"). The common
// value types exchanged across the egi:: front door: half-open ranges over a
// series, ranked anomaly detections, and scored stream points. This header
// is their only definition; the internal layers use them as is.

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace egi {

/// A half-open [start, start+length) region of a time series.
struct Range {
  size_t start = 0;
  size_t length = 0;

  size_t end() const { return start + length; }

  bool operator==(const Range&) const = default;
};

/// True when the two ranges share at least one sample.
inline bool Overlaps(const Range& a, const Range& b) {
  return a.start < b.end() && b.start < a.end();
}

/// Number of shared samples.
inline size_t OverlapLength(const Range& a, const Range& b) {
  const size_t lo = std::max(a.start, b.start);
  const size_t hi = std::min(a.end(), b.end());
  return hi > lo ? hi - lo : 0;
}

/// One ranked anomaly candidate returned by Session::Detect. Candidates are
/// sorted most-anomalous first and are mutually non-overlapping.
struct Detection {
  /// Start of the anomalous subsequence (clamped so a full window fits).
  size_t position = 0;
  /// Reported subsequence length (the detection window length).
  size_t length = 0;
  /// Severity: larger is more anomalous. For density-based detectors this is
  /// the negated (possibly normalized) rule density at the minimum; for
  /// discord-based detectors it is the 1-NN distance.
  double severity = 0.0;
  /// Length of the contiguous curve-minimum run backing the candidate
  /// (density-based detectors only; 0 otherwise).
  size_t run_length = 0;

  Range window() const { return Range{position, length}; }
};

/// When a streaming session replays the batch algorithm (see DESIGN.md,
/// "Adaptive ensembles & refit policy").
enum class RefitPolicy : uint8_t {
  kFixed = 0,     ///< every refit_interval appends (the classic cadence)
  kAdaptive = 1,  ///< drift-gated: the cadence stretches while the
                  ///< provisional score distribution stays inside a
                  ///< tolerance band, and snaps back on drift
};

/// One scored stream point, as returned by StreamSession::Append and
/// StreamHub::Ingest.
struct StreamPoint {
  uint64_t index = 0;   ///< 0-based position in the stream since creation
  double value = 0.0;   ///< the ingested value
  double score = 0.0;   ///< ensemble rule density in [0, 1]; LOW = anomalous
  bool scored = false;  ///< false until the first refit has fitted a model,
                        ///< and for rejected (non-finite) values
  bool provisional = false;  ///< true when produced by the incremental path
                             ///< (superseded by the next refit)
  bool refit = false;        ///< this append completed a full batch refit
};

}  // namespace egi

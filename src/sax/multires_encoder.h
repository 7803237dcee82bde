#pragma once

#include <span>
#include <utility>
#include <vector>

#include "sax/breakpoints.h"
#include "sax/fast_paa.h"
#include "sax/sax_encoder.h"
#include "ts/prefix_stats.h"
#include "util/result.h"

namespace egi::sax {

/// One (w, a) discretization request for the multi-resolution encoder.
struct WaParam {
  int paa_size = 0;       ///< w
  int alphabet_size = 0;  ///< a

  bool operator==(const WaParam&) const = default;
};

/// Multi-resolution SAX encoder (paper Section 6.2): discretizes the same
/// series under many (w, a) parameter combinations while sharing all the
/// expensive work — the ESumx/ESumxx prefix statistics (FastPAA, §6.2.1) and
/// the merged-breakpoint symbol matrix (§6.2.2). For the ensemble's N
/// members this reduces discretization cost from O(n·wmax·amax + ...) per
/// subsequence to O(w) per distinct w plus one binary search per coefficient.
class MultiResSaxEncoder {
 public:
  /// Prepares prefix stats for `series` and the breakpoint summary for
  /// alphabet sizes up to `amax`. The series data is copied into the
  /// internal prefix structure; the span need not outlive the encoder.
  MultiResSaxEncoder(std::span<const double> series, size_t window_length,
                     int amax, bool numerosity_reduction = true);

  /// Discretizes under a single (w, a), reusing the shared state. This is
  /// DiscretizeSeries' body.
  Result<DiscretizedSeries> Encode(int paa_size, int alphabet_size) const;

  /// Batch-discretizes all requested combinations in one sliding-window
  /// sweep per distinct w. Results align 1:1 with `params`. Two steps per
  /// request: the sweep packs and numerosity-reduces its words into a run
  /// list, then the runs are interned in position order into a token table
  /// sized for the run count (which bounds the vocabulary), so no intern
  /// rehashes and ids stay in first-appearance order.
  Result<std::vector<DiscretizedSeries>> EncodeAll(
      std::span<const WaParam> params) const;

  size_t series_length() const { return stats_.size(); }
  size_t window_length() const { return window_length_; }
  int amax() const { return summary_.amax(); }

 private:
  size_t window_length_;
  bool numerosity_reduction_;
  ts::PrefixStats stats_;
  BreakpointSummary summary_;
};

}  // namespace egi::sax

#pragma once

#include <span>
#include <vector>

#include "core/gi.h"
#include "egi/motif.h"
#include "util/result.h"

namespace egi::core {

/// Options for grammar-based motif discovery.
struct MotifParams {
  GiParams gi;             ///< discretization + induction parameters
  size_t top_k = 5;        ///< how many motifs to return
  size_t min_instances = 2;  ///< require at least this many occurrences
  /// Skip rules whose mean instance length (in samples) is below this
  /// multiple of the window length (short rules are usually noise).
  double min_length_factor = 1.0;
};

/// Discovers the top-k motifs of a series: induces a grammar, maps every
/// rule's occurrences back to time windows, and ranks rules by instance
/// count (ties: larger coverage first). Runs in linear time like the
/// anomaly path.
Result<std::vector<Motif>> DiscoverMotifs(std::span<const double> series,
                                          const MotifParams& params);

}  // namespace egi::core

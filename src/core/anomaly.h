#pragma once

#include <span>
#include <vector>

#include "egi/types.h"

namespace egi::core {

/// Extracts up to `max_candidates` anomalies from a rule density curve
/// (paper Section 5.2): repeatedly locate the lowest-valued contiguous run
/// of the curve, report the subsequence starting there, then mask the
/// neighbourhood (+- window_length) so candidates do not overlap.
/// Candidate positions are clamped to [0, len - window_length].
///
/// Minima are searched only in the curve's *valid region*
/// [window_length - 1, len - window_length]: points outside are covered by
/// structurally fewer sliding windows, so their low density is an edge
/// artifact, not evidence of anomaly (zero-density tails would otherwise
/// always win). When the series is too short to have a valid region the
/// whole curve is scanned.
std::vector<Detection> FindDensityAnomalies(std::span<const double> density,
                                            size_t window_length,
                                            size_t max_candidates);

}  // namespace egi::core

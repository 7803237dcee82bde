#include "core/anomaly.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace egi::core {

std::vector<Detection> FindDensityAnomalies(std::span<const double> density,
                                            size_t window_length,
                                            size_t max_candidates) {
  const size_t len = density.size();
  EGI_CHECK(window_length >= 1 && window_length <= len)
      << "window length " << window_length << " invalid for curve of length "
      << len;
  const size_t last_start = len - window_length;

  // Valid region: points covered by a full complement of sliding windows.
  size_t valid_lo = window_length - 1;
  size_t valid_hi = last_start;  // inclusive
  if (valid_lo > valid_hi) {     // series too short: scan everything
    valid_lo = 0;
    valid_hi = len - 1;
  }

  std::vector<Detection> out;
  std::vector<bool> masked(len, false);

  while (out.size() < max_candidates) {
    // Locate the curve's global minimum among unmasked valid points.
    double best = std::numeric_limits<double>::infinity();
    size_t best_pos = len;
    for (size_t t = valid_lo; t <= valid_hi; ++t) {
      if (!masked[t] && density[t] < best) {
        best = density[t];
        best_pos = t;
      }
    }
    if (best_pos == len) break;  // everything masked

    // Expand to the contiguous run of equal-minimum values containing it,
    // staying inside the valid region.
    size_t run_start = best_pos;
    while (run_start > valid_lo && !masked[run_start - 1] &&
           density[run_start - 1] == best) {
      --run_start;
    }
    size_t run_end = best_pos;  // inclusive
    while (run_end < valid_hi && !masked[run_end + 1] &&
           density[run_end + 1] == best) {
      ++run_end;
    }

    Detection a;
    a.position = std::min(run_start, last_start);
    a.length = window_length;
    a.severity = -best;
    a.run_length = run_end - run_start + 1;
    out.push_back(a);

    // Mask the neighbourhood so later candidates cannot overlap this one:
    // any start within window_length of [position, run_end] is excluded
    // (a.position <= run_start, so masking from a.position covers the
    // clamped-tail case too).
    const size_t lo =
        a.position > window_length - 1 ? a.position - (window_length - 1) : 0;
    const size_t hi = std::min(len - 1, run_end + window_length - 1);
    for (size_t t = lo; t <= hi; ++t) masked[t] = true;
  }
  return out;
}

}  // namespace egi::core

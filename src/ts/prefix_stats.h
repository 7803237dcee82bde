#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace egi::ts {

/// Precomputed running sums over a time series, exactly the `ESumx` /
/// `ESumxx` vectors of the paper (Section 6.2.1): after construction, the
/// sum, mean, and sample standard deviation of any contiguous range are
/// available in O(1). This underpins FastPAA (Algorithm 2) and the
/// multi-resolution SAX encoder.
///
/// Sums are accumulated with Neumaier compensation at build time so that
/// 10^5..10^6-point power-usage series do not lose precision.
class PrefixStats {
 public:
  PrefixStats() = default;

  /// Builds prefix sums for `series` in O(N).
  explicit PrefixStats(std::span<const double> series) { Assign(series); }

  /// Rebuilds the sums for `series`, reusing this object's storage: the
  /// result is bitwise what the constructor builds. `series` must not alias
  /// this object's own data.
  void Assign(std::span<const double> series);

  size_t size() const { return sum_.empty() ? 0 : sum_.size() - 1; }

  /// Sum of series[start, start+length). O(1).
  double RangeSum(size_t start, size_t length) const;

  /// Sum of squares of series[start, start+length). O(1).
  double RangeSumSq(size_t start, size_t length) const;

  /// Mean of series[start, start+length). O(1).
  double RangeMean(size_t start, size_t length) const;

  /// Sample standard deviation (n-1 denominator, Algorithm 2) of
  /// series[start, start+length). O(1). Clamps tiny negative variance from
  /// floating point cancellation to zero.
  double RangeStdDev(size_t start, size_t length) const;

  /// Fractional-boundary sum: integral of the step function defined by the
  /// series over the real interval [from, to), where from/to are real-valued
  /// sample coordinates (sample i occupies [i, i+1)). Exact PAA segments
  /// with non-integer boundaries are built on this. O(1).
  double FractionalRangeSum(double from, double to) const;

  // Raw internal arrays, exposed for the vectorized encode kernels
  // (sax/simd/): the kernels replicate the exact scalar arithmetic of
  // RangeMean / RangeStdDev / FractionalRangeSum lane-wise, so they need
  // direct access to the same memory those functions read.

  /// Centered values (series minus center()), size() entries.
  const double* centered_data() const { return series_.data(); }
  /// Prefix sums of centered values, size() + 1 entries.
  const double* prefix_sums() const { return sum_.data(); }
  /// Prefix sums of squared centered values, size() + 1 entries.
  const double* prefix_sumsq() const { return sumsq_.data(); }
  /// Global mean subtracted before accumulation.
  double center() const { return center_; }

 private:
  double center_ = 0.0;         // global mean, subtracted before accumulation
  std::vector<double> series_;  // centered values (for fractional boundaries)
  std::vector<double> sum_;     // prefix sums of centered values
  std::vector<double> sumsq_;   // prefix sums of squared centered values
};

}  // namespace egi::ts

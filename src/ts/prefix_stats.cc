#include "ts/prefix_stats.h"

#include <algorithm>
#include <cmath>

#include "ts/stats.h"
#include "util/check.h"

namespace egi::ts {

void PrefixStats::Assign(std::span<const double> series) {
  series_.assign(series.begin(), series.end());
  sum_.assign(series.size() + 1, 0.0);
  sumsq_.assign(series.size() + 1, 0.0);
  // The range-variance formula (Exx - Ex^2/n) cancels catastrophically when
  // the data ride on a large offset (e.g. a 1e9 baseline): Exx grows as
  // offset^2 while the variance stays O(1). Variance is shift-invariant, so
  // we accumulate around the global mean and add the shift back only where
  // the absolute level matters.
  double center = 0.0, center_comp = 0.0;
  for (double v : series_) CompensatedAdd(center, center_comp, v);
  center_ = series_.empty()
                ? 0.0
                : (center + center_comp) / static_cast<double>(series_.size());

  for (double& v : series_) v -= center_;  // stored shifted

  double s = 0.0, s_comp = 0.0;
  double q = 0.0, q_comp = 0.0;
  for (size_t i = 0; i < series_.size(); ++i) {
    CompensatedAdd(s, s_comp, series_[i]);
    CompensatedAdd(q, q_comp, series_[i] * series_[i]);
    sum_[i + 1] = s + s_comp;
    sumsq_[i + 1] = q + q_comp;
  }
}

double PrefixStats::RangeSum(size_t start, size_t length) const {
  EGI_DCHECK(start + length <= size());
  return sum_[start + length] - sum_[start] +
         center_ * static_cast<double>(length);
}

double PrefixStats::RangeSumSq(size_t start, size_t length) const {
  EGI_DCHECK(start + length <= size());
  // Sum of squares of the ORIGINAL values: shifted sumsq + 2c*shifted_sum +
  // n*c^2. Exposed for completeness; variance uses the shifted sums only.
  const double ssq = sumsq_[start + length] - sumsq_[start];
  const double ssum = sum_[start + length] - sum_[start];
  const double n = static_cast<double>(length);
  return ssq + 2.0 * center_ * ssum + n * center_ * center_;
}

double PrefixStats::RangeMean(size_t start, size_t length) const {
  EGI_CHECK(length > 0) << "empty range";
  return (sum_[start + length] - sum_[start]) / static_cast<double>(length) +
         center_;
}

double PrefixStats::RangeStdDev(size_t start, size_t length) const {
  if (length < 2) return 0.0;
  const double n = static_cast<double>(length);
  // Shift-invariant: computed entirely from the centered sums.
  const double ex = sum_[start + length] - sum_[start];
  const double exx = sumsq_[start + length] - sumsq_[start];
  const double var = std::max(0.0, (exx - ex * ex / n) / (n - 1.0));
  return std::sqrt(var);
}

double PrefixStats::FractionalRangeSum(double from, double to) const {
  EGI_DCHECK(from <= to);
  EGI_DCHECK(from >= 0.0 && to <= static_cast<double>(size()) + 1e-9);
  to = std::min(to, static_cast<double>(size()));
  from = std::max(from, 0.0);
  if (to <= from) return 0.0;

  const double width = to - from;
  const auto lo = static_cast<size_t>(std::floor(from));
  const auto hi = static_cast<size_t>(std::ceil(to));
  if (hi - lo == 1) {
    // Entire interval inside one sample.
    return (series_[lo] + center_) * width;
  }
  double total = 0.0;
  // Partial head: [from, lo+1).
  total += series_[lo] * (static_cast<double>(lo) + 1.0 - from);
  // Whole middle samples [lo+1, hi-1), centered.
  total += sum_[hi - 1] - sum_[lo + 1];
  // Partial tail: [hi-1, to).
  total += series_[hi - 1] * (to - (static_cast<double>(hi) - 1.0));
  return total + center_ * width;
}

}  // namespace egi::ts

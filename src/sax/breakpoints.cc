#include "sax/breakpoints.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "sax/normal_quantile.h"
#include "util/check.h"

namespace egi::sax {

namespace {

double NormalPdf(double x) {
  return std::exp(-0.5 * x * x) / std::sqrt(2.0 * M_PI);
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

using BreakpointRows = std::array<std::vector<double>, kMaxAlphabetSize + 1>;

// Row a holds alphabet a's breakpoints; rows 0 and 1 stay empty. Kept out
// of line so that a lookup does not pay for this function's frame.
[[gnu::noinline]] BreakpointRows BuildBreakpointRows() {
  BreakpointRows rows;
  for (int a = kMinAlphabetSize; a <= kMaxAlphabetSize; ++a) {
    for (int i = 1; i < a; ++i) {
      rows[static_cast<size_t>(a)].push_back(InverseNormalCdf(
          static_cast<double>(i) / static_cast<double>(a)));
    }
  }
  return rows;
}

}  // namespace

std::span<const double> GaussianBreakpoints(int alphabet_size) {
  EGI_CHECK(alphabet_size >= kMinAlphabetSize &&
            alphabet_size <= kMaxAlphabetSize)
      << "alphabet size " << alphabet_size << " out of range";
  static const BreakpointRows table = BuildBreakpointRows();
  return table[static_cast<size_t>(alphabet_size)];
}

int SymbolForValue(double value, std::span<const double> breakpoints) {
  auto it = std::upper_bound(breakpoints.begin(), breakpoints.end(), value);
  return static_cast<int>(it - breakpoints.begin());
}

char SymbolToChar(int symbol) {
  EGI_DCHECK(symbol >= 0 && symbol < kMaxAlphabetSize);
  return static_cast<char>('a' + symbol);
}

std::vector<double> GaussianRegionCentroids(int alphabet_size) {
  const std::span<const double> bps = GaussianBreakpoints(alphabet_size);
  std::vector<double> centroids(static_cast<size_t>(alphabet_size));
  for (int i = 0; i < alphabet_size; ++i) {
    // Region i spans (lo, hi] with phi/Phi at infinity handled as 0/1.
    const bool first = (i == 0);
    const bool last = (i == alphabet_size - 1);
    const double lo = first ? 0.0 : NormalPdf(bps[static_cast<size_t>(i) - 1]);
    const double hi = last ? 0.0 : NormalPdf(bps[static_cast<size_t>(i)]);
    const double p_lo =
        first ? 0.0 : NormalCdf(bps[static_cast<size_t>(i) - 1]);
    const double p_hi = last ? 1.0 : NormalCdf(bps[static_cast<size_t>(i)]);
    // E[X | lo < X <= hi] = (pdf(lo) - pdf(hi)) / (cdf(hi) - cdf(lo)).
    centroids[static_cast<size_t>(i)] = (lo - hi) / (p_hi - p_lo);
  }
  return centroids;
}

BreakpointSummary::BreakpointSummary(int amax) : amax_(amax) {
  EGI_CHECK(amax >= kMinAlphabetSize && amax <= kMaxAlphabetSize)
      << "amax " << amax << " out of range";

  // Merge all breakpoints. Identical quantile probabilities produce
  // bit-identical doubles (i/a is correctly rounded, and InverseNormalCdf is
  // deterministic), so exact dedup is sufficient.
  for (int a = kMinAlphabetSize; a <= amax; ++a) {
    const std::span<const double> bps = GaussianBreakpoints(a);
    merged_.insert(merged_.end(), bps.begin(), bps.end());
  }
  std::sort(merged_.begin(), merged_.end());
  merged_.erase(std::unique(merged_.begin(), merged_.end()), merged_.end());

  // One representative point strictly inside each interval. Intervals are
  // pure — all breakpoints of all sizes are on the merged axis — so the
  // representative's symbol is the interval's symbol.
  const size_t intervals = num_intervals();
  std::vector<double> reps(intervals);
  for (size_t j = 0; j < intervals; ++j) {
    double rep;
    if (j == 0) {
      rep = merged_.front() - 1.0;
    } else if (j == merged_.size()) {
      rep = merged_.back() + 1.0;
    } else {
      rep = 0.5 * (merged_[j - 1] + merged_[j]);
      // Guard against midpoint rounding onto a boundary for very tight
      // intervals: fall back to the left edge, which is inside [lo, hi).
      if (rep <= merged_[j - 1] || rep >= merged_[j]) rep = merged_[j - 1];
    }
    reps[j] = rep;
  }
  symbols_.resize(intervals * (static_cast<size_t>(amax_) - 1));
  for (int a = kMinAlphabetSize; a <= amax; ++a) {
    const std::span<const double> bps = GaussianBreakpoints(a);
    uint8_t* row = symbols_.data() + static_cast<size_t>(a - 2) * intervals;
    for (size_t j = 0; j < intervals; ++j) {
      row[j] = static_cast<uint8_t>(SymbolForValue(reps[j], bps));
    }
  }
}

size_t BreakpointSummary::IntervalForValue(double value) const {
  auto it = std::upper_bound(merged_.begin(), merged_.end(), value);
  return static_cast<size_t>(it - merged_.begin());
}

std::span<const uint8_t> BreakpointSummary::SymbolRow(int a) const {
  EGI_CHECK(a >= kMinAlphabetSize && a <= amax_)
      << "alphabet size " << a << " outside summary amax " << amax_;
  return std::span<const uint8_t>(symbols_).subspan(
      static_cast<size_t>(a - 2) * num_intervals(), num_intervals());
}

}  // namespace egi::sax

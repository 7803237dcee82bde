#pragma once

// Straightforward z-normalize-then-PAA, kept as the reference the FastPAA
// kernel (sax::FastPaa, paper Algorithm 2) is checked against. The library
// computes PAA only through that kernel; nothing here is used outside tests.

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "ts/stats.h"
#include "util/check.h"

namespace egi::reference {

/// Z-normalizes `values` into `out` (same length). When the sample standard
/// deviation is below ts::kNormThreshold the output is all zeros (flat
/// window convention). `out` may alias `values`.
inline void ZNormalize(std::span<const double> values, std::span<double> out) {
  EGI_CHECK(values.size() == out.size())
      << "size mismatch: " << values.size() << " vs " << out.size();
  const double mu = ts::Mean(values);
  const double sigma = ts::SampleStdDev(values);
  if (sigma < ts::kNormThreshold) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  for (size_t i = 0; i < values.size(); ++i) out[i] = (values[i] - mu) / sigma;
}

/// Copy-based ZNormalize.
inline std::vector<double> ZNormalized(std::span<const double> values) {
  std::vector<double> out(values.size());
  ZNormalize(values, out);
  return out;
}

/// Piecewise Aggregate Approximation of an (already normalized) subsequence:
/// splits `values` into `w` equal real-width segments (fractional boundaries
/// handled exactly by weighting boundary samples) and averages each segment.
/// Requires 1 <= w <= values.size().
inline void Paa(std::span<const double> values, int w, std::span<double> out) {
  const size_t n = values.size();
  EGI_CHECK(w >= 1 && static_cast<size_t>(w) <= n)
      << "PAA size " << w << " invalid for subsequence of length " << n;
  EGI_CHECK(out.size() == static_cast<size_t>(w));

  const double seg = static_cast<double>(n) / static_cast<double>(w);
  for (int i = 0; i < w; ++i) {
    const double from = seg * static_cast<double>(i);
    const double to = seg * static_cast<double>(i + 1);
    // Integrate the sample step function over [from, to).
    double acc = 0.0;
    const auto lo = static_cast<size_t>(std::floor(from));
    const size_t hi = std::min(n, static_cast<size_t>(std::ceil(to)));
    for (size_t k = lo; k < hi; ++k) {
      const double cell_lo = std::max(from, static_cast<double>(k));
      const double cell_hi = std::min(to, static_cast<double>(k) + 1.0);
      if (cell_hi > cell_lo) acc += values[k] * (cell_hi - cell_lo);
    }
    out[static_cast<size_t>(i)] = acc / seg;
  }
}

/// Allocating Paa.
inline std::vector<double> PaaOf(std::span<const double> values, int w) {
  std::vector<double> out(static_cast<size_t>(w));
  Paa(values, w, out);
  return out;
}

/// Z-normalizes `values`, then applies PAA: the SAX pipeline of Section 4.1
/// as the paper states it.
inline void ZNormalizedPaa(std::span<const double> values, int w,
                           std::span<double> out) {
  Paa(ZNormalized(values), w, out);
}

}  // namespace egi::reference

#include <algorithm>

#include "sax/simd/kernels.h"
#include "ts/stats.h"

namespace egi::sax::simd {

namespace {

// The portable reference: FastPAA (paper Algorithm 2) run once per position.
// The AVX2 path replicates this arithmetic lane-wise (same operations, same
// order, no contraction), so both produce bitwise-identical coefficients.
void PaaBlockScalar(const ts::PrefixStats& stats, size_t start, size_t count,
                    size_t n, int w, double* out) {
  const auto uw = static_cast<size_t>(w);
  const double seg = static_cast<double>(n) / static_cast<double>(w);
  for (size_t p = 0; p < count; ++p) {
    const size_t pos = start + p;
    double* row = out + p * uw;
    const double mu = stats.RangeMean(pos, n);
    const double sigma = stats.RangeStdDev(pos, n);
    if (sigma < ts::kNormThreshold) {
      std::fill(row, row + uw, 0.0);
      continue;
    }
    const double base = static_cast<double>(pos);
    for (int i = 0; i < w; ++i) {
      const double from = base + seg * static_cast<double>(i);
      const double to = base + seg * static_cast<double>(i + 1);
      const double avg = stats.FractionalRangeSum(from, to) / seg;
      row[i] = (avg - mu) / sigma;
    }
  }
}

// One binary search per value. Equal to the branchless vector count for any
// sorted breakpoint axis, including NaN (all comparisons false, so
// upper_bound walks to the end — the same num_breakpoints the unordered
// vector count yields).
void IntervalsScalar(const double* values, size_t count,
                     const double* breakpoints, size_t num_breakpoints,
                     uint32_t* out) {
  const double* end = breakpoints + num_breakpoints;
  for (size_t i = 0; i < count; ++i) {
    out[i] = static_cast<uint32_t>(
        std::upper_bound(breakpoints, end, values[i]) - breakpoints);
  }
}

}  // namespace

const KernelSet& ScalarKernels() {
  static const KernelSet kernels{PaaBlockScalar, IntervalsScalar, "scalar"};
  return kernels;
}

}  // namespace egi::sax::simd

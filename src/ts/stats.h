#pragma once

#include <cmath>
#include <span>

namespace egi::ts {

/// One step of Neumaier-compensated (Kahan-variant) accumulation: adds `v`
/// into `acc`, keeping the low-order bits that the add would drop in
/// `comp`; the exact running sum is `acc + comp`. Shared by the batch
/// accumulators (Mean, PrefixStats) and the streaming RollingStats so the
/// numerically sensitive branch lives in exactly one place.
inline void CompensatedAdd(double& acc, double& comp, double v) {
  const double t = acc + v;
  if (std::abs(acc) >= std::abs(v)) {
    comp += (acc - t) + v;
  } else {
    comp += (v - t) + acc;
  }
  acc = t;
}

/// Standard-deviation threshold below which a subsequence is treated as flat
/// during z-normalization (GrammarViz convention): flat windows map to the
/// all-zero PAA vector instead of amplifying noise.
inline constexpr double kNormThreshold = 0.01;

/// True when every value is finite (no NaN/Inf). Public entry points reject
/// non-finite series up front so degenerate values cannot silently corrupt
/// prefix sums or breakpoint lookups.
bool AllFinite(std::span<const double> values);

/// Arithmetic mean (Neumaier-compensated). Returns 0 for empty input.
double Mean(std::span<const double> values);

/// Sample variance (n-1 denominator, matching Algorithm 2 of the paper).
/// Returns 0 when fewer than two values.
double SampleVariance(std::span<const double> values);

/// Sample standard deviation (sqrt of SampleVariance).
double SampleStdDev(std::span<const double> values);

/// Population standard deviation (n denominator). Used for descriptive
/// statistics of rule density curves where the curve is the full population.
double PopulationStdDev(std::span<const double> values);

/// Median (average of the two central order statistics for even sizes).
/// Returns 0 for empty input. Does not modify the input: it is
/// MedianInPlace over a copy.
double Median(std::span<const double> values);

/// Median of `values` computed by reordering them in place (nth_element), so
/// callers that reuse a scratch buffer pay no allocation. The library's one
/// median: Median, the ensemble combine and the streaming scorer all call
/// it. Returns 0 for empty input.
double MedianInPlace(std::span<double> values);

/// Smallest and largest value; {0, 0} for empty input.
struct MinMax {
  double min = 0.0;
  double max = 0.0;
};
MinMax FindMinMax(std::span<const double> values);

}  // namespace egi::ts

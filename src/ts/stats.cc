#include "ts/stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace egi::ts {

namespace {

// Neumaier variant of Kahan summation: robust for long power-usage series.
double CompensatedSum(std::span<const double> values) {
  double sum = 0.0, comp = 0.0;
  for (double v : values) CompensatedAdd(sum, comp, v);
  return sum + comp;
}

}  // namespace

bool AllFinite(std::span<const double> values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

double Mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return CompensatedSum(values) / static_cast<double>(values.size());
}

double SampleVariance(std::span<const double> values) {
  const size_t n = values.size();
  if (n < 2) return 0.0;
  const double mu = Mean(values);
  double acc = 0.0;
  for (double v : values) {
    const double d = v - mu;
    acc += d * d;
  }
  return acc / static_cast<double>(n - 1);
}

double SampleStdDev(std::span<const double> values) {
  return std::sqrt(SampleVariance(values));
}

double PopulationStdDev(std::span<const double> values) {
  const size_t n = values.size();
  if (n == 0) return 0.0;
  const double mu = Mean(values);
  double acc = 0.0;
  for (double v : values) {
    const double d = v - mu;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(n));
}

double Median(std::span<const double> values) {
  std::vector<double> copy(values.begin(), values.end());
  return MedianInPlace(copy);
}

double MedianInPlace(std::span<double> values) {
  if (values.empty()) return 0.0;
  const auto mid = static_cast<ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double hi = values[static_cast<size_t>(mid)];
  if (values.size() % 2 == 1) return hi;
  const double lo = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lo + hi);
}

MinMax FindMinMax(std::span<const double> values) {
  if (values.empty()) return {};
  MinMax mm{values[0], values[0]};
  for (double v : values) {
    mm.min = std::min(mm.min, v);
    mm.max = std::max(mm.max, v);
  }
  return mm;
}

}  // namespace egi::ts

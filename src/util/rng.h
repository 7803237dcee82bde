#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace egi {

/// Deterministic pseudo-random number generator (xoshiro256**, seeded via
/// SplitMix64). All randomized components of the library take an explicit
/// seed so that every experiment in the paper reproduction is bit-identical
/// across runs. We avoid `std::normal_distribution` / `std::shuffle` because
/// their output is not specified across standard library implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Uniform integer in the inclusive range [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal deviate (Marsaglia polar method; deterministic).
  double Gaussian();

  /// Normal deviate with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Fisher-Yates shuffle (deterministic given the seed).
  template <typename T>
  void Shuffle(std::span<T> values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Derives an independent child generator; advances this generator.
  Rng Fork();

 private:
  uint64_t state_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace egi

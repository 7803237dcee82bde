#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace egi::sax {

/// Largest alphabet size the library supports. The paper sweeps amax up to
/// 20; 64 leaves generous headroom while keeping symbols in one byte.
inline constexpr int kMaxAlphabetSize = 64;
inline constexpr int kMinAlphabetSize = 2;

/// Gaussian-equiprobable breakpoints for an alphabet of size `a`:
/// the (a-1) quantiles at i/a, i = 1..a-1 (paper Section 4.1 / Figure 3).
/// The span points into one table for every supported alphabet, computed
/// on first use and kept for the life of the process, so every caller of
/// the same `a` reads the same storage. Requires
/// kMinAlphabetSize <= a <= kMaxAlphabetSize.
std::span<const double> GaussianBreakpoints(int alphabet_size);

/// Symbol index (0-based) for `value` given a sorted breakpoint vector:
/// region i is [b[i-1], b[i]) with b[-1] = -inf, b[a-1] = +inf.
int SymbolForValue(double value, std::span<const double> breakpoints);

/// Letter used in human-readable SAX words for symbol index `s` ('a' + s).
char SymbolToChar(int symbol);

/// Conditional means E[X | X in region i] of a standard normal variable for
/// the `a` breakpoint regions: the optimal single-value reconstruction of a
/// SAX symbol. Used by the GI-Select baseline's MDL objective to measure
/// discretization residuals. For a = 2 the centroids are -+sqrt(2/pi).
std::vector<double> GaussianRegionCentroids(int alphabet_size);

/// Merged breakpoint summary for fast multi-resolution SAX (paper
/// Section 6.2.2, Figure 6). All distinct breakpoints for alphabet sizes
/// 2..amax are merged into one sorted axis; each resulting interval stores
/// the symbol it maps to under *every* alphabet size. A PAA coefficient is
/// then resolved for all alphabet sizes with a single binary search.
class BreakpointSummary {
 public:
  /// Builds the summary for alphabet sizes [2, amax]: every interval is
  /// resolved against each alphabet's shared GaussianBreakpoints.
  /// O(amax^3 log amax).
  explicit BreakpointSummary(int amax);

  int amax() const { return amax_; }
  size_t num_intervals() const { return merged_.size() + 1; }

  /// Index of the interval containing `value` (one binary search).
  size_t IntervalForValue(double value) const;

  /// Symbol of `value` under alphabet size `a` (2 <= a <= amax), resolved
  /// through the merged summary.
  int Symbol(double value, int a) const {
    return SymbolRow(a)[IntervalForValue(value)];
  }

  /// The interval -> symbol table of alphabet size `a` (2 <= a <= amax):
  /// entry j is the symbol of every value in interval j. The encoder's word
  /// loop resolves a symbol with one load from this row.
  std::span<const uint8_t> SymbolRow(int a) const;

  /// The merged distinct breakpoints (exposed for tests).
  std::span<const double> merged_breakpoints() const { return merged_; }

 private:
  int amax_;
  std::vector<double> merged_;
  // Alphabet-major: symbols_[(a-2) * num_intervals() + interval] = symbol
  // under size a.
  std::vector<uint8_t> symbols_;
};

}  // namespace egi::sax

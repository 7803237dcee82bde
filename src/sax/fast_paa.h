#pragma once

#include <span>

#include "ts/prefix_stats.h"

namespace egi::sax {

/// FastPAA (paper Algorithm 2): computes the z-normalized PAA coefficients of
/// subsequences of a fixed series in O(w) each, using the precomputed ESumx /
/// ESumxx prefix statistics. The mean/stddev of a subsequence come in O(1);
/// each PAA segment sum is an O(1) fractional prefix-sum lookup. Windows whose
/// stddev is below ts::kNormThreshold are flat: all coefficients zero.
///
/// This is the library's only PAA. Batch encoding asks it for blocks of
/// consecutive positions; the one-window callers — the streaming provisional
/// scorer (prefix stats over just the newest window), GI-Select's residual
/// and SaxWordForSubsequence (through DiscretizeSeries) — ask for count 1.
/// Its agreement with z-normalize-then-PAA on the raw window is covered by
/// the reference suite in tests/sax_paa_test.cc.
class FastPaa {
 public:
  /// `stats` must outlive this object.
  explicit FastPaa(const ts::PrefixStats* stats) : stats_(stats) {}

  /// Coefficients for `count` consecutive window start positions
  /// [start, start + count), written row-major by position into `out`
  /// (count * w doubles). Routes through the runtime-dispatched encode
  /// kernels (sax/simd/) — AVX2 where available, scalar otherwise — with
  /// bitwise-identical rows either way. Requires 1 <= w <= n and the
  /// windows in bounds.
  void ComputeBlock(size_t start, size_t count, size_t n, int w,
                    std::span<double> out) const;

 private:
  const ts::PrefixStats* stats_;
};

}  // namespace egi::sax

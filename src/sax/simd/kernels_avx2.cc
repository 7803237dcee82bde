// AVX2 encode kernels. Compiled with -mavx2 -ffp-contract=off (CMake sets
// EGI_SIMD_AVX2 only when the toolchain supports the flag); on other
// toolchains this file compiles to the nullptr stub at the bottom and
// dispatch stays on the scalar path.
//
// Bitwise-identity contract: every lane performs exactly the scalar
// reference's sequence of IEEE-754 operations (kernels_scalar.cc /
// ts::PrefixStats) — same multiplies, adds, divides, floor/ceil, min/max,
// sqrt, in the same order, with contraction disabled — so scalar and AVX2
// coefficients are equal bit for bit. tests/sax_kernel_equivalence_test.cc
// enforces this on randomized inputs including degenerate flat windows.

#include "sax/simd/kernels.h"

#if defined(EGI_SIMD_AVX2)

#include <immintrin.h>

#include <limits>

#include "ts/stats.h"

namespace egi::sax::simd {

namespace {

void PaaBlockAvx2(const ts::PrefixStats& stats, size_t start, size_t count,
                  size_t n, int w, double* out) {
  const size_t size = stats.size();
  // Gathers index with int32; n < 2 would make the sample-stddev formula
  // divide by zero where the scalar path short-circuits to zero. Both are
  // outside every hot configuration — delegate.
  if (n < 2 ||
      size >= static_cast<size_t>(std::numeric_limits<int32_t>::max()) - 1) {
    ScalarKernels().paa_block(stats, start, count, n, w, out);
    return;
  }
  const double* series = stats.centered_data();
  const double* sum = stats.prefix_sums();
  const double* sumsq = stats.prefix_sumsq();
  const auto uw = static_cast<size_t>(w);
  const double seg = static_cast<double>(n) / static_cast<double>(w);

  const __m256d v_center = _mm256_set1_pd(stats.center());
  const __m256d v_seg = _mm256_set1_pd(seg);
  const __m256d v_nd = _mm256_set1_pd(static_cast<double>(n));
  const __m256d v_nm1 = _mm256_set1_pd(static_cast<double>(n) - 1.0);
  const __m256d v_thresh = _mm256_set1_pd(ts::kNormThreshold);
  const __m256d v_size = _mm256_set1_pd(static_cast<double>(size));
  const __m256d v_zero = _mm256_setzero_pd();
  const __m256d v_one = _mm256_set1_pd(1.0);
  const __m128i v_ione = _mm_set1_epi32(1);
  const __m128i v_izero = _mm_setzero_si128();
  const __m128i v_isize = _mm_set1_epi32(static_cast<int32_t>(size));
  const __m128i v_isizem1 = _mm_set1_epi32(static_cast<int32_t>(size) - 1);
  const __m128i v_step = _mm_setr_epi32(0, 1, 2, 3);

  alignas(32) double lanes[4];

  size_t p = start;
  const size_t end = start + count;
  for (; p + 4 <= end; p += 4) {
    const __m128i v_pos =
        _mm_add_epi32(_mm_set1_epi32(static_cast<int32_t>(p)), v_step);
    const __m128i v_pos_n =
        _mm_add_epi32(v_pos, _mm_set1_epi32(static_cast<int32_t>(n)));
    // mu / sigma, lane-wise RangeMean / RangeStdDev.
    const __m256d s_lo = _mm256_i32gather_pd(sum, v_pos, 8);
    const __m256d s_hi = _mm256_i32gather_pd(sum, v_pos_n, 8);
    const __m256d q_lo = _mm256_i32gather_pd(sumsq, v_pos, 8);
    const __m256d q_hi = _mm256_i32gather_pd(sumsq, v_pos_n, 8);
    const __m256d ex = _mm256_sub_pd(s_hi, s_lo);
    const __m256d exx = _mm256_sub_pd(q_hi, q_lo);
    const __m256d mu = _mm256_add_pd(_mm256_div_pd(ex, v_nd), v_center);
    const __m256d var_raw = _mm256_div_pd(
        _mm256_sub_pd(exx, _mm256_div_pd(_mm256_mul_pd(ex, ex), v_nd)),
        v_nm1);
    const __m256d sigma = _mm256_sqrt_pd(_mm256_max_pd(var_raw, v_zero));
    const __m256d flat = _mm256_cmp_pd(sigma, v_thresh, _CMP_LT_OQ);

    const __m256d posd = _mm256_setr_pd(
        static_cast<double>(p), static_cast<double>(p + 1),
        static_cast<double>(p + 2), static_cast<double>(p + 3));
    double* row = out + (p - start) * uw;

    for (int i = 0; i < w; ++i) {
      // Segment boundaries, then FractionalRangeSum lane-wise: clamp,
      // empty-interval guard, and the one-sample/general split become
      // mask blends instead of branches.
      const __m256d segi = _mm256_set1_pd(seg * static_cast<double>(i));
      const __m256d segi1 = _mm256_set1_pd(seg * static_cast<double>(i + 1));
      __m256d from = _mm256_add_pd(posd, segi);
      __m256d to = _mm256_add_pd(posd, segi1);
      to = _mm256_min_pd(to, v_size);
      from = _mm256_max_pd(from, v_zero);
      const __m256d empty = _mm256_cmp_pd(to, from, _CMP_LE_OQ);
      const __m256d width = _mm256_sub_pd(to, from);
      const __m256d flo = _mm256_floor_pd(from);
      const __m256d fhi = _mm256_ceil_pd(to);
      __m128i lo = _mm256_cvttpd_epi32(flo);
      __m128i hi = _mm256_cvttpd_epi32(fhi);
      // No-ops for every reachable lane (0 <= lo < hi <= size); they only
      // bound the gather indices of lanes masked out by `empty`.
      lo = _mm_max_epi32(_mm_min_epi32(lo, v_isizem1), v_izero);
      hi = _mm_min_epi32(_mm_max_epi32(hi, _mm_add_epi32(lo, v_ione)),
                         v_isize);
      const __m128i him1 = _mm_sub_epi32(hi, v_ione);
      const __m128i lop1 = _mm_add_epi32(lo, v_ione);
      const __m256d ser_lo = _mm256_i32gather_pd(series, lo, 8);
      const __m256d ser_him1 = _mm256_i32gather_pd(series, him1, 8);
      const __m256d sum_him1 = _mm256_i32gather_pd(sum, him1, 8);
      const __m256d sum_lop1 = _mm256_i32gather_pd(sum, lop1, 8);
      // Interval inside one sample: (series[lo] + center) * width.
      const __m256d path_one =
          _mm256_mul_pd(_mm256_add_pd(ser_lo, v_center), width);
      // General interval: ((head + mid) + tail) + center * width, in the
      // scalar accumulation order.
      const __m256d head = _mm256_mul_pd(
          ser_lo, _mm256_sub_pd(_mm256_add_pd(flo, v_one), from));
      const __m256d mid = _mm256_sub_pd(sum_him1, sum_lop1);
      const __m256d tail = _mm256_mul_pd(
          ser_him1, _mm256_sub_pd(to, _mm256_sub_pd(fhi, v_one)));
      const __m256d path_gen = _mm256_add_pd(
          _mm256_add_pd(_mm256_add_pd(head, mid), tail),
          _mm256_mul_pd(v_center, width));
      const __m256i one_wide = _mm256_cvtepi32_epi64(
          _mm_cmpeq_epi32(_mm_sub_epi32(hi, lo), v_ione));
      __m256d frs = _mm256_blendv_pd(path_gen, path_one,
                                     _mm256_castsi256_pd(one_wide));
      frs = _mm256_andnot_pd(empty, frs);
      const __m256d avg = _mm256_div_pd(frs, v_seg);
      // Flat lanes divide by a sub-threshold sigma here; the quotient is
      // discarded by the blend below, exactly like the scalar early-out.
      __m256d res = _mm256_div_pd(_mm256_sub_pd(avg, mu), sigma);
      res = _mm256_andnot_pd(flat, res);
      _mm256_store_pd(lanes, res);
      row[i] = lanes[0];
      row[uw + i] = lanes[1];
      row[2 * uw + i] = lanes[2];
      row[3 * uw + i] = lanes[3];
    }
  }
  if (p < end) {
    ScalarKernels().paa_block(stats, p, end - p, n, w, out + (p - start) * uw);
  }
}

void IntervalsAvx2(const double* values, size_t count,
                   const double* breakpoints, size_t num_breakpoints,
                   uint32_t* out) {
  // The linear branchless count beats the scalar binary search only while
  // the whole axis stays cache-resident and short; big alphabets delegate
  // (results are identical either way, so the cutover is pure tuning).
  if (num_breakpoints > 192) {
    ScalarKernels().intervals(values, count, breakpoints, num_breakpoints,
                              out);
    return;
  }
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    __m256i acc = _mm256_setzero_si256();
    for (size_t j = 0; j < num_breakpoints; ++j) {
      const __m256d b = _mm256_set1_pd(breakpoints[j]);
      // v >= b with unordered (NaN) counting as true: NaN accumulates
      // num_breakpoints, matching where upper_bound sends it.
      const __m256d ge = _mm256_cmp_pd(v, b, _CMP_NLT_UQ);
      acc = _mm256_sub_epi64(acc, _mm256_castpd_si256(ge));
    }
    alignas(32) int64_t c[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(c), acc);
    out[i] = static_cast<uint32_t>(c[0]);
    out[i + 1] = static_cast<uint32_t>(c[1]);
    out[i + 2] = static_cast<uint32_t>(c[2]);
    out[i + 3] = static_cast<uint32_t>(c[3]);
  }
  if (i < count) {
    ScalarKernels().intervals(values + i, count - i, breakpoints,
                              num_breakpoints, out + i);
  }
}

}  // namespace

const KernelSet* Avx2KernelsOrNull() {
  static const bool supported = __builtin_cpu_supports("avx2");
  if (!supported) return nullptr;
  static const KernelSet kernels{PaaBlockAvx2, IntervalsAvx2, "avx2"};
  return &kernels;
}

}  // namespace egi::sax::simd

#else  // !EGI_SIMD_AVX2

namespace egi::sax::simd {

const KernelSet* Avx2KernelsOrNull() { return nullptr; }

}  // namespace egi::sax::simd

#endif

#pragma once

#include <cstddef>
#include <cstdint>

#include "ts/prefix_stats.h"

namespace egi::sax::simd {

/// Computes z-normalized PAA coefficients for `count` consecutive sliding
/// window start positions [start, start + count) of window length `n` at
/// PAA size `w`, writing `count * w` doubles into `out`, row-major by
/// position (FastPaa::ComputeBlock's body). Flat windows (stddev below
/// ts::kNormThreshold) become all zeros.
using PaaBlockFn = void (*)(const ts::PrefixStats& stats, size_t start,
                            size_t count, size_t n, int w, double* out);

/// Branchless batched lower-bound: out[i] = number of breakpoints b with
/// values[i] >= b, counting unordered comparisons (so NaN maps to
/// num_breakpoints). For a sorted breakpoint axis this is exactly the
/// std::upper_bound index that SymbolForValue / BreakpointSummary::
/// IntervalForValue compute — the agreement, including the NaN / +-inf /
/// value-exactly-on-a-breakpoint edges, is pinned by
/// tests/sax_breakpoints_test.cc.
using IntervalsFn = void (*)(const double* values, size_t count,
                             const double* breakpoints,
                             size_t num_breakpoints, uint32_t* out);

/// One dispatchable family of encode kernels. All implementations are
/// bitwise-output-identical on every input (no FMA contraction, no
/// reassociation — see DESIGN.md "SIMD dispatch & arena pooling");
/// tests/sax_kernel_equivalence_test.cc enforces it.
struct KernelSet {
  PaaBlockFn paa_block;
  IntervalsFn intervals;
  const char* name;
};

/// The portable reference implementation (always available).
const KernelSet& ScalarKernels();

/// The AVX2 implementation, or nullptr when the binary was built without
/// AVX2 support or the running CPU lacks it.
const KernelSet* Avx2KernelsOrNull();

/// The kernels the hot paths should use: resolved once per process from the
/// CPU (cpuid) and the EGI_FORCE_SCALAR environment override (any truthy
/// value pins the scalar path, e.g. for the CI fallback-coverage leg).
const KernelSet& ActiveKernels();

/// Name of the active kernel set ("avx2" or "scalar"); reported by the
/// bench binaries so archived BENCH_*.json records are comparable across
/// machines.
const char* ActiveKernelName();

/// Test hook: pins dispatch to `kernels`, or re-runs dispatch on the next
/// ActiveKernels() call when passed nullptr. Not thread-safe against
/// concurrent encoders; tests only.
void SetKernelsForTest(const KernelSet* kernels);

}  // namespace egi::sax::simd

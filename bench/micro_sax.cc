// Micro-benchmarks for the discretization stack, backing the paper's
// Section 6.2.3 claim: computing multi-resolution SAX words through the
// shared prefix-stats + merged-breakpoint summary is far cheaper than
// running independent single-resolution discretizations per (w, a). The
// encoders emit packed word codes (sax/word_code.h), so the position loop
// does no string work at all.
//
// EGI_BENCH_QUICK=1 shrinks the sweep (CI smoke mode); --json (or
// EGI_BENCH_JSON=1) emits one JSON object per line for BENCH_*.json
// tracking instead of the human-readable table.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/ensemble.h"
#include "datasets/random_walk.h"
#include "sax/breakpoints.h"
#include "sax/multires_encoder.h"
#include "sax/sax_encoder.h"
#include "sax/simd/kernels.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace egi;

std::vector<double> BenchSeries(size_t len) {
  Rng rng(7);
  return datasets::MakeRandomWalk(len, rng);
}

}  // namespace

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const bool json = bench::JsonOutputEnabled(argc, argv);
  const bool quick = GetEnvBool("EGI_BENCH_QUICK", false);
  const int reps = quick ? 3 : 5;
  const std::vector<size_t> lengths =
      quick ? std::vector<size_t>{4000} : std::vector<size_t>{4000, 16000};
  const size_t window = 100;
  const auto pairs = core::DrawParameterSample(10, 10, 50, 3);

  if (!json) {
    std::printf("== SAX discretization throughput (%zu (w,a) pairs) ==\n",
                pairs.size());
    std::printf("best of %d reps per cell%s\n\n", reps,
                quick ? " [QUICK]" : "");
  }

  TextTable table("discretization throughput");
  table.SetHeader(
      {"Mode", "Series", "Time (s)", "Positions*params/sec"});

  for (const size_t len : lengths) {
    const auto series = BenchSeries(len);
    const double work =
        static_cast<double>(len) * static_cast<double>(pairs.size());

    // Baseline: one independent DiscretizeSeries per (w, a) — recomputes
    // prefix statistics and breakpoint lookups every time (the
    // "straightforward manner" of Section 6.2.3).
    const double naive_s = bench::BestSeconds(reps, [&] {
      for (const auto& p : pairs) {
        sax::SaxParams sp;
        sp.window_length = window;
        sp.paa_size = p.paa_size;
        sp.alphabet_size = p.alphabet_size;
        auto d = sax::DiscretizeSeries(series, sp);
        bench::KeepAlive(d);
      }
    });

    // Fast path: shared multi-resolution encoder (Section 6.2), including
    // its construction (prefix stats + breakpoint summary).
    const double multi_s = bench::BestSeconds(reps, [&] {
      sax::MultiResSaxEncoder encoder(series, window, 10);
      auto d = encoder.EncodeAll(pairs);
      bench::KeepAlive(d);
    });

    // EncodeAll alone on a prebuilt encoder: the per-refit cost paid by
    // callers that keep the encoder (length-stable streaming buffers).
    sax::MultiResSaxEncoder prebuilt(series, window, 10);
    const double encode_s = bench::BestSeconds(reps, [&] {
      auto d = prebuilt.EncodeAll(pairs);
      bench::KeepAlive(d);
    });

    for (const auto& [mode, secs] :
         {std::pair<const char*, double>{"naive_per_pair", naive_s},
          std::pair<const char*, double>{"multires", multi_s},
          std::pair<const char*, double>{"multires_encode_only", encode_s}}) {
      const double rate = work / std::max(secs, 1e-12);
      if (json) {
        bench::JsonRecord("micro_sax")
            .Add("mode", mode)
            .Add("kernel", sax::simd::ActiveKernelName())
            .Add("series_length", static_cast<int64_t>(len))
            .Add("window", static_cast<int64_t>(window))
            .Add("pairs", static_cast<int64_t>(pairs.size()))
            .Add("seconds", secs)
            .Add("positions_params_per_sec", rate)
            .Add("quick", quick)
            .Emit(std::cout);
      } else {
        table.AddRow({mode, std::to_string(len), FormatDouble(secs, 4),
                      FormatDouble(rate, 0)});
      }
    }
  }

  // A fleet-shaped refit's encode: a 256-point walk at window 16 under the
  // default N = 50 draw, where each member's fixed cost (its run list and
  // token table) weighs as much as its 241 positions. Many reps, since one
  // EncodeAll takes well under a millisecond.
  {
    const core::EnsembleParams defaults;
    const auto fleet_pairs = core::DrawParameterSample(
        defaults.wmax, defaults.amax, defaults.ensemble_size, defaults.seed);
    const size_t fleet_len = 256;
    const size_t fleet_window = 16;
    const auto series = BenchSeries(fleet_len);
    sax::MultiResSaxEncoder encoder(series, fleet_window, defaults.amax);
    const double secs = bench::BestSeconds(20 * reps, [&] {
      auto d = encoder.EncodeAll(fleet_pairs);
      bench::KeepAlive(d);
    });
    const double rate = static_cast<double>(fleet_len - fleet_window + 1) *
                        static_cast<double>(fleet_pairs.size()) /
                        std::max(secs, 1e-12);
    if (json) {
      bench::JsonRecord("micro_sax")
          .Add("mode", "fleet_encode_only")
          .Add("kernel", sax::simd::ActiveKernelName())
          .Add("series_length", static_cast<int64_t>(fleet_len))
          .Add("window", static_cast<int64_t>(fleet_window))
          .Add("pairs", static_cast<int64_t>(fleet_pairs.size()))
          .Add("seconds", secs)
          .Add("positions_params_per_sec", rate)
          .Add("quick", quick)
          .Emit(std::cout);
    } else {
      table.AddRow({"fleet_encode_only", std::to_string(fleet_len),
                    FormatDouble(secs, 6), FormatDouble(rate, 0)});
    }
  }

  // Breakpoint resolution in isolation: a buffer of z-normal-range values
  // pushed through the active intervals kernel (the batched lower-bound
  // that EncodeAll and the streaming provisional scorer use), per alphabet
  // size. Measures pure symbols/sec with no PAA or packing in the loop.
  {
    const size_t num_values = quick ? (1u << 16) : (1u << 20);
    std::vector<double> values(num_values);
    Rng rng(11);
    for (double& v : values) v = rng.UniformDouble(-4.0, 4.0);
    std::vector<uint32_t> symbols(num_values);
    TextTable bp_table("breakpoint resolution throughput");
    bp_table.SetHeader({"Alphabet", "Time (s)", "Symbols/sec"});
    for (const int a : {4, 8, 16}) {
      const std::span<const double> breakpoints = sax::GaussianBreakpoints(a);
      const double secs = bench::BestSeconds(reps, [&] {
        sax::simd::ActiveKernels().intervals(values.data(), values.size(),
                                             breakpoints.data(),
                                             breakpoints.size(),
                                             symbols.data());
        bench::KeepAlive(symbols);
      });
      const double rate = static_cast<double>(num_values) /
                          std::max(secs, 1e-12);
      if (json) {
        bench::JsonRecord("micro_sax")
            .Add("mode", "breakpoint_lookup")
            .Add("kernel", sax::simd::ActiveKernelName())
            .Add("alphabet_size", static_cast<int64_t>(a))
            .Add("values", static_cast<int64_t>(num_values))
            .Add("seconds", secs)
            .Add("symbols_per_sec", rate)
            .Add("quick", quick)
            .Emit(std::cout);
      } else {
        bp_table.AddRow({std::to_string(a), FormatDouble(secs, 4),
                         FormatDouble(rate, 0)});
      }
    }
    if (!json) {
      std::printf("\n");
      bp_table.Print(std::cout);
    }
  }

  if (!json) {
    table.Print(std::cout);
    std::printf(
        "\nmultires shares prefix stats and the merged breakpoint summary "
        "across all\npairs; words are packed into integer codes, never "
        "built as strings.\n");
  }
  return 0;
}

// Reproduces Figure 8 of the paper: computation time vs time series length
// for the proposed (linear-time) ensemble and the STOMP discord baseline
// (quadratic), on three data types: random walk, ECG, EEG.
//
// Defaults sweep lengths 10k..80k (this container has 2 cores); set
// EGI_FIG8_FULL=1 to extend to 160k as in the paper. The shape — linear vs
// quadratic growth with roughly an order of magnitude between them at the
// top — is what the figure demonstrates.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/detector.h"
#include "datasets/physio.h"
#include "datasets/random_walk.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble("Figure 8: computation time vs series length",
                       settings);

  std::vector<size_t> lengths{10000, 20000, 40000, 80000};
  if (GetEnvBool("EGI_FIG8_FULL", false)) lengths.push_back(160000);
  if (settings.quick) lengths = {10000, 20000, 40000};
  const size_t window = 300;

  struct DataType {
    const char* name;
    std::vector<double> (*make)(size_t, Rng&);
  };
  const DataType types[] = {
      {"RW", [](size_t n, Rng& rng) { return datasets::MakeRandomWalk(n, rng); }},
      {"ECG", datasets::MakeLongEcg},
      {"EEG", datasets::MakeEeg},
  };

  for (const auto& type : types) {
    TextTable table(std::string("Figure 8(") + type.name +
                    "): seconds vs length (window n = 300)");
    table.SetHeader({"Length", "EnsembleGI (s)", "STOMP (s)", "Speedup"});

    for (const size_t len : lengths) {
      Rng rng(settings.data_seed);
      const auto series = type.make(len, rng);

      core::EnsembleParams p;
      p.ensemble_size = settings.ensemble_size;
      p.parallelism = settings.threads;
      core::EnsembleGiDetector ensemble(p);
      Stopwatch sw;
      auto re = ensemble.Detect(series, window, 3);
      EGI_CHECK(re.ok()) << re.status().ToString();
      const double t_ens = sw.ElapsedSeconds();

      core::DiscordDetector discord(settings.threads);
      sw.Restart();
      auto rd = discord.Detect(series, window, 3);
      EGI_CHECK(rd.ok()) << rd.status().ToString();
      const double t_stomp = sw.ElapsedSeconds();

      table.AddRow({std::to_string(len), FormatDouble(t_ens, 3),
                    FormatDouble(t_stomp, 3),
                    FormatDouble(t_stomp / std::max(t_ens, 1e-9), 1) + "x"});
    }
    table.Print(std::cout);
    std::cout << '\n';
  }
  std::printf(
      "expected shape: EnsembleGI grows ~linearly, STOMP ~quadratically; at "
      "the\nlargest length the gap approaches an order of magnitude (paper "
      "Fig 8).\n");
  return 0;
}

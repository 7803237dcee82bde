// Reproduces Figure 1 of the paper: the Score of single-run grammar
// induction on a dishwasher power series, for every (w, a) combination in
// [2,10] x [2,10]. The point of the figure: the landscape is rugged — the
// best combination is isolated, and values close to it can perform badly —
// so guessing parameters is unreliable, motivating the ensemble.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/anomaly.h"
#include "core/detector.h"
#include "core/gi.h"
#include "datasets/power.h"
#include "egi/metrics.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble(
      "Figure 1: single-run GI Score across the (w, a) grid on a dishwasher "
      "series",
      settings);

  Rng rng(settings.data_seed);
  const auto series = datasets::MakeDishwasherSeries(/*num_cycles=*/14, rng);
  const size_t window = datasets::kDishwasherCycleLength;
  std::printf("dishwasher series: %zu points, anomalous cycle at [%zu, %zu)\n\n",
              series.values.size(), series.anomalies[0].start,
              series.anomalies[0].end());

  TextTable table("Score of top-3 GI candidates per (w, a)");
  std::vector<std::string> header{"w \\ a"};
  for (int a = 2; a <= 10; ++a) header.push_back(std::to_string(a));
  table.SetHeader(std::move(header));

  double best_score = -1.0;
  int best_w = 0, best_a = 0;
  for (int w = 2; w <= 10; ++w) {
    std::vector<std::string> row{std::to_string(w)};
    for (int a = 2; a <= 10; ++a) {
      core::GiParams p;
      p.window_length = window;
      p.paa_size = w;
      p.alphabet_size = a;
      auto run = core::RunGrammarInduction(series.values, p);
      EGI_CHECK(run.ok()) << run.status().ToString();
      const auto anomalies =
          core::FindDensityAnomalies(run->density, window, 3);
      const double score = BestScore(anomalies, series.anomalies[0]);
      if (score > best_score) {
        best_score = score;
        best_w = w;
        best_a = a;
      }
      row.push_back(FormatDouble(score, 2));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::printf(
      "\nbest combination: w=%d, a=%d (Score %.2f) — note how uneven the "
      "landscape is;\nneighbouring combinations can score near zero, which "
      "is exactly Figure 1's point.\n",
      best_w, best_a, best_score);

  // For contrast: the parameter-free ensemble on the same series.
  core::EnsembleGiDetector ensemble;
  auto r = ensemble.Detect(series.values, window, 3);
  EGI_CHECK(r.ok()) << r.status().ToString();
  std::printf("ensemble (no parameter choice): Score %.2f\n",
              BestScore(*r, series.anomalies[0]));
  return 0;
}

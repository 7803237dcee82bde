// Reproduces Figure 10 of the paper: per-series Score scatter of the
// ensemble against every baseline, for every dataset. Writes one CSV per
// (dataset, baseline) pair under bench_out/ and prints the win/tie/loss
// summary that the scatter plots visualize.

#include <filesystem>
#include <iostream>

#include "bench_common.h"
#include "eval/metrics.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble(
      "Figure 10: per-series Score scatter (ensemble vs baselines)",
      settings);

  const auto methods = bench::PaperMethods(settings);
  const auto result = bench::RunMainExperiment(settings);
  std::filesystem::create_directories("bench_out");

  TextTable table("Figure 10 summary: points below/on/above the diagonal");
  table.SetHeader({"Dataset", "Baseline", "Wins", "Ties", "Losses", "CSV"});
  for (const auto d : data::kAllFamilies) {
    const auto& proposed = result.Get(d, methods.front().label);
    for (const auto& baseline : std::span(methods).subspan(1)) {
      const auto& base = result.Get(d, baseline.label);
      const std::string path = "bench_out/fig10_" + bench::DatasetName(d) +
                               "_vs_" + baseline.label + ".csv";
      CsvWriter csv(path);
      csv.WriteRow({"ensemble_score", "baseline_score"});
      eval::WinTieLoss wtl;
      for (size_t i = 0; i < proposed.scores.size(); ++i) {
        csv.WriteNumericRow({proposed.scores[i], base.scores[i]});
        wtl.Add(proposed.scores[i], base.scores[i]);
      }
      table.AddRow({bench::DatasetName(d), baseline.label,
                    std::to_string(wtl.wins), std::to_string(wtl.ties),
                    std::to_string(wtl.losses), path});
    }
  }
  table.Print(std::cout);
  std::printf(
      "\neach CSV row is one generated series: (ensemble Score, baseline "
      "Score);\na row below the diagonal (ensemble > baseline) is a win.\n");
  return 0;
}

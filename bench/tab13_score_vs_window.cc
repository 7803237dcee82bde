// Reproduces Table 13 of the paper: average Score of the ensemble when the
// sliding window length n is shorter than the anomaly length na
// (n in {0.6, 0.7, 0.8, 0.9, 1.0} x na).

#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble("Table 13: average Score vs sliding window length n",
                       settings);

  const std::vector<double> fractions{0.6, 0.7, 0.8, 0.9, 1.0};

  TextTable table("Table 13");
  std::vector<std::string> header{"Dataset"};
  for (double f : fractions)
    header.push_back("n=" + FormatDouble(f, 1) + "na");
  table.SetHeader(std::move(header));

  // One column (window fraction) at a time, proposed method only.
  std::vector<std::vector<std::string>> rows;
  for (const auto d : data::kAllFamilies)
    rows.push_back({bench::DatasetName(d)});

  const auto methods = bench::PaperMethods(settings);
  const auto proposed = std::span(methods).first(1);
  for (const double f : fractions) {
    eval::ExperimentConfig cfg;
    cfg.series_per_dataset = settings.series_per_dataset;
    cfg.data_seed = settings.data_seed;
    cfg.window_fraction = f;
    const auto result =
        eval::RunExperiment(data::kAllFamilies, proposed, cfg);
    for (size_t di = 0; di < data::kAllFamilies.size(); ++di) {
      rows[di].push_back(FormatDouble(
          result.Get(data::kAllFamilies[di], proposed[0].label)
              .AverageScore(),
          4));
    }
  }
  for (auto& row : rows) table.AddRow(std::move(row));
  table.Print(std::cout);
  return 0;
}

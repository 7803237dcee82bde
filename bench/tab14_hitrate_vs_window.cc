// Reproduces Table 14 of the paper: HitRate of the ensemble when the
// sliding window length n is shorter than the anomaly length na.

#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble("Table 14: HitRate vs sliding window length n",
                       settings);

  const std::vector<double> fractions{0.6, 0.7, 0.8, 0.9, 1.0};

  TextTable table("Table 14");
  std::vector<std::string> header{"Dataset"};
  for (double f : fractions)
    header.push_back("n=" + FormatDouble(f, 1) + "na");
  table.SetHeader(std::move(header));

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
              .HitRate(),
          2));
    }
  }
  for (auto& row : rows) table.AddRow(std::move(row));
  table.Print(std::cout);
  return 0;
}

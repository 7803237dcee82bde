// Reproduces Tables 13 and 14 of the paper: average Score and HitRate of the
// ensemble when the sliding window length n is shorter than the anomaly
// length na (n in {0.6, 0.7, 0.8, 0.9, 1.0} x na). One experiment per window
// fraction; both tables read its result.

#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble(
      "Tables 13-14: average Score and HitRate vs sliding window length n",
      settings);

  const std::vector<double> fractions{0.6, 0.7, 0.8, 0.9, 1.0};

  TextTable score_table("Table 13");
  TextTable hit_table("Table 14");
  std::vector<std::string> header{"Dataset"};
  for (double f : fractions)
    header.push_back("n=" + FormatDouble(f, 1) + "na");
  score_table.SetHeader(header);
  hit_table.SetHeader(std::move(header));

  // One column (window fraction) at a time, proposed method only.
  std::vector<std::vector<std::string>> score_rows;
  for (const auto d : data::kAllFamilies)
    score_rows.push_back({bench::DatasetName(d)});
  auto hit_rows = score_rows;

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
      const auto& agg = result.Get(data::kAllFamilies[di], proposed[0].label);
      score_rows[di].push_back(FormatDouble(agg.AverageScore(), 4));
      hit_rows[di].push_back(FormatDouble(agg.HitRate(), 2));
    }
  }
  for (auto& row : score_rows) score_table.AddRow(std::move(row));
  for (auto& row : hit_rows) hit_table.AddRow(std::move(row));
  score_table.Print(std::cout);
  std::cout << '\n';
  hit_table.Print(std::cout);
  return 0;
}

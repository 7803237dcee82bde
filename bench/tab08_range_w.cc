// Reproduces Table 8 of the paper: wins/ties/losses of the ensemble against
// the best GI baseline, for wmax in {5, 10, 15, 20} with amax fixed at 10.

#include <iostream>

#include "bench_common.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble(
      "Table 8: ensemble W/T/L vs best GI baseline, wmax sweep (amax = 10)",
      settings);

  const int wmaxes[] = {5, 10, 15, 20};

  TextTable table("Table 8");
  std::vector<std::string> header{"Approach"};
  for (const auto d : data::kAllFamilies)
    header.push_back(bench::DatasetName(d));
  table.SetHeader(std::move(header));

  std::vector<bench::BaselinePick> baselines;
  for (const auto d : data::kAllFamilies)
    baselines.push_back(bench::BestGiBaseline(d, settings));

  for (const int wmax : wmaxes) {
    std::vector<std::string> row{"amax=10,wmax=" + std::to_string(wmax)};
    for (size_t di = 0; di < data::kAllFamilies.size(); ++di) {
      const auto scores = bench::EnsembleScoresForRange(
          data::kAllFamilies[di], settings, wmax, 10);
      eval::WinTieLoss wtl;
      for (size_t i = 0; i < scores.size(); ++i)
        wtl.Add(scores[i], baselines[di].agg.scores[i]);
      row.push_back(wtl.ToString());
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  return 0;
}

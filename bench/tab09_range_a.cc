// Reproduces Table 9 of the paper: wins/ties/losses of the ensemble against
// the best GI baseline, for amax in {5, 10, 15, 20} with wmax fixed at 10.

#include <iostream>

#include "bench_common.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble(
      "Table 9: ensemble W/T/L vs best GI baseline, amax sweep (wmax = 10)",
      settings);

  const int amaxes[] = {5, 10, 15, 20};

  TextTable table("Table 9");
  std::vector<std::string> header{"Approach"};
  for (const auto d : data::kAllFamilies)
    header.push_back(bench::DatasetName(d));
  table.SetHeader(std::move(header));

  std::vector<bench::BaselinePick> baselines;
  for (const auto d : data::kAllFamilies)
    baselines.push_back(bench::BestGiBaseline(d, settings));

  for (const int amax : amaxes) {
    std::vector<std::string> row{"amax=" + std::to_string(amax) + ",wmax=10"};
    for (size_t di = 0; di < data::kAllFamilies.size(); ++di) {
      const auto scores = bench::EnsembleScoresForRange(
          data::kAllFamilies[di], settings, 10, amax);
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

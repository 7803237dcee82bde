// Reproduces Table 7 of the paper: wins/ties/losses of the ensemble against
// the best GI baseline per dataset, for wmax = amax in {5, 10, 15, 20}.

#include <iostream>

#include "bench_common.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble(
      "Table 7: ensemble W/T/L vs best GI baseline, wmax = amax sweep",
      settings);

  const int ranges[] = {5, 10, 15, 20};

  TextTable table("Table 7");
  std::vector<std::string> header{"Approach"};
  for (const auto d : data::kAllFamilies)
    header.push_back(bench::DatasetName(d));
  table.SetHeader(std::move(header));

  // The baseline per dataset is fixed across configurations.
  std::vector<bench::BaselinePick> baselines;
  for (const auto d : data::kAllFamilies)
    baselines.push_back(bench::BestGiBaseline(d, settings));

  for (const int r : ranges) {
    std::vector<std::string> row{"amax=" + std::to_string(r) +
                                 ",wmax=" + std::to_string(r)};
    for (size_t di = 0; di < data::kAllFamilies.size(); ++di) {
      const auto scores = bench::EnsembleScoresForRange(
          data::kAllFamilies[di], settings, r, r);
      eval::WinTieLoss wtl;
      for (size_t i = 0; i < scores.size(); ++i)
        wtl.Add(scores[i], baselines[di].agg.scores[i]);
      row.push_back(wtl.ToString());
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);

  std::printf("\nbest GI baseline per dataset:");
  for (size_t di = 0; di < data::kAllFamilies.size(); ++di) {
    std::printf(" %s=%s", bench::DatasetName(data::kAllFamilies[di]).c_str(),
                baselines[di].label.c_str());
  }
  std::printf("\n");
  return 0;
}

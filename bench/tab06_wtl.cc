// Reproduces Table 6 of the paper: wins/ties/losses of ensemble grammar
// induction against each baseline, per dataset (pairwise per-series Score
// comparison).

#include <iostream>

#include "bench_common.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble(
      "Table 6: wins/ties/losses of the ensemble vs all baselines", settings);

  const auto methods = bench::PaperMethods(settings);
  const auto result = bench::RunMainExperiment(settings);
  const std::string& proposed = methods.front().label;

  TextTable table("Table 6: ensemble W/T/L vs baselines");
  std::vector<std::string> header{"Approach \\ Dataset"};
  for (const auto d : data::kAllFamilies)
    header.push_back(bench::DatasetName(d));
  table.SetHeader(std::move(header));

  for (const auto& baseline : std::span(methods).subspan(1)) {
    std::vector<std::string> row{baseline.label};
    for (const auto d : data::kAllFamilies) {
      const auto wtl = eval::CompareScores(result.Get(d, proposed),
                                           result.Get(d, baseline.label));
      row.push_back(wtl.ToString());
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  return 0;
}

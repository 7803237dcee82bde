// Reproduces Table 5 of the paper: HitRate (fraction of series where one of
// the top-3 candidates overlaps the planted anomaly per Eq. 5 > 0).

#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble("Table 5: performance evaluation (HitRate)", settings);

  const auto methods = bench::PaperMethods(settings);
  const auto result = bench::RunMainExperiment(settings);

  TextTable table("Table 5: HitRate");
  table.SetHeader({"Dataset", "Proposed", "GI-Random", "GI-Fix", "GI-Select",
                   "Discord"});
  for (const auto d : data::kAllFamilies) {
    std::vector<std::string> row{bench::DatasetName(d)};
    for (const auto& m : methods) {
      row.push_back(FormatDouble(result.Get(d, m.label).HitRate(), 2));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  return 0;
}

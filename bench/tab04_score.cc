// Reproduces Table 4 of the paper: average Score (Eq. 5) of the five
// methods over 25 planted-anomaly series per dataset. Also prints the
// dataset properties table (Table 3) as a header.

#include <iostream>

#include "bench_common.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble("Table 4: performance evaluation (average Score)",
                       settings);

  {
    TextTable t3("Table 3: dataset properties");
    t3.SetHeader({"Dataset", "Series Length", "Segment Length", "Data Type"});
    for (const auto d : data::kAllFamilies) {
      const auto& spec = data::GetFamilyInfo(d);
      t3.AddRow({std::string(spec.name),
                 std::to_string(21 * spec.instance_length),
                 std::to_string(spec.instance_length),
                 std::string(spec.data_type)});
    }
    t3.Print(std::cout);
    std::cout << '\n';
  }

  Stopwatch sw;
  const auto methods = bench::PaperMethods(settings);
  const auto result = bench::RunMainExperiment(settings);

  TextTable table("Table 4: average Score");
  table.SetHeader({"Dataset", "Proposed", "GI-Random", "GI-Fix", "GI-Select",
                   "Discord"});
  for (const auto d : data::kAllFamilies) {
    std::vector<std::string> row{bench::DatasetName(d)};
    for (const auto& m : methods) {
      row.push_back(FormatDouble(result.Get(d, m.label).AverageScore(), 4));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::printf("\ntotal experiment time: %.1f s\n", sw.ElapsedSeconds());
  return 0;
}

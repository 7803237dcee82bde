// Reproduces the paper's main evaluation (Section 7.1) from one run of the
// five methods over the planted-anomaly series of every dataset:
//   Table 3   dataset properties
//   Table 4   average Score (Eq. 5)
//   Table 5   HitRate (fraction of series where one of the top-3 candidates
//             overlaps the planted anomaly, i.e. Score > 0)
//   Table 6   wins/ties/losses of the ensemble against each baseline
//             (pairwise per-series Score comparison)
//   Figure 10 per-series Score scatter of the ensemble against every
//             baseline: one CSV per (dataset, baseline) pair under
//             bench_out/, plus the win/tie/loss summary the plots show.
// The experiment time goes to stderr, so stdout is the same on every
// machine and at every thread count.

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "bench_common.h"
#include "eval/metrics.h"
#include "util/csv.h"
#include "util/stopwatch.h"

namespace {

using namespace egi;

void PrintDatasetTable() {
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
}

// One row per dataset, one column per method: `cell` of each aggregate.
template <typename Cell>
void PrintPerMethodTable(const std::string& title,
                         std::span<const eval::PaperMethod> methods,
                         const eval::ExperimentResult& result, Cell cell) {
  TextTable table(title);
  table.SetHeader({"Dataset", "Proposed", "GI-Random", "GI-Fix", "GI-Select",
                   "Discord"});
  for (const auto d : data::kAllFamilies) {
    std::vector<std::string> row{bench::DatasetName(d)};
    for (const auto& m : methods) row.push_back(cell(result.Get(d, m.label)));
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
}

void PrintWinTieLossTable(std::span<const eval::PaperMethod> methods,
                          const eval::ExperimentResult& result) {
  TextTable table("Table 6: ensemble W/T/L vs baselines");
  std::vector<std::string> header{"Approach \\ Dataset"};
  for (const auto d : data::kAllFamilies)
    header.push_back(bench::DatasetName(d));
  table.SetHeader(std::move(header));

  for (const auto& baseline : methods.subspan(1)) {
    std::vector<std::string> row{baseline.label};
    for (const auto d : data::kAllFamilies) {
      const auto wtl = eval::CompareScores(result.Get(d, methods[0].label),
                                           result.Get(d, baseline.label));
      row.push_back(wtl.ToString());
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
}

void WriteScatter(std::span<const eval::PaperMethod> methods,
                  const eval::ExperimentResult& result) {
  std::filesystem::create_directories("bench_out");

  TextTable table("Figure 10 summary: points below/on/above the diagonal");
  table.SetHeader({"Dataset", "Baseline", "Wins", "Ties", "Losses", "CSV"});
  for (const auto d : data::kAllFamilies) {
    const auto& proposed = result.Get(d, methods[0].label);
    for (const auto& baseline : methods.subspan(1)) {
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
}

}  // namespace

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble(
      "Tables 3-6 and Figure 10: the five-method evaluation", settings);

  PrintDatasetTable();
  std::cout << '\n';

  Stopwatch sw;
  const auto methods = bench::PaperMethods(settings);
  const auto result = bench::RunMainExperiment(settings);
  std::fprintf(stderr, "total experiment time: %.1f s\n",
               sw.ElapsedSeconds());

  PrintPerMethodTable("Table 4: average Score", methods, result,
                      [](const eval::MethodAggregate& agg) {
                        return FormatDouble(agg.AverageScore(), 4);
                      });
  std::cout << '\n';
  PrintPerMethodTable("Table 5: HitRate", methods, result,
                      [](const eval::MethodAggregate& agg) {
                        return FormatDouble(agg.HitRate(), 2);
                      });
  std::cout << '\n';
  PrintWinTieLossTable(methods, result);
  std::cout << '\n';
  WriteScatter(methods, result);
  return 0;
}

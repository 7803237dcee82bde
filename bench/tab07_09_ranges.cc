// Reproduces Tables 7-9 of the paper: wins/ties/losses of the ensemble
// against the best GI baseline per dataset, as the parameter ranges vary:
//   Table 7   wmax = amax in {5, 10, 15, 20}
//   Table 8   wmax in {5, 10, 15, 20}, amax = 10
//   Table 9   amax in {5, 10, 15, 20}, wmax = 10
// One experiment runs the three GI baselines and one ensemble per distinct
// (wmax, amax) range; the three tables and the baseline pick (the best of
// GI-Random / GI-Fix / GI-Select by average Score) all read its result.

#include <cstdio>
#include <iostream>
#include <set>
#include <utility>

#include "bench_common.h"
#include "eval/metrics.h"

namespace {

struct RangeTable {
  const char* title;
  std::vector<std::pair<int, int>> ranges;  // (wmax, amax) per row
};

// A row's label and the label of its ensemble method in the experiment.
std::string RangeLabel(int wmax, int amax) {
  return "amax=" + std::to_string(amax) + ",wmax=" + std::to_string(wmax);
}

}  // namespace

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble(
      "Tables 7-9: ensemble W/T/L vs best GI baseline, (wmax, amax) sweeps",
      settings);

  const RangeTable tables[] = {
      {"Table 7", {{5, 5}, {10, 10}, {15, 15}, {20, 20}}},
      {"Table 8", {{5, 10}, {10, 10}, {15, 10}, {20, 10}}},
      {"Table 9", {{10, 5}, {10, 10}, {10, 15}, {10, 20}}},
  };

  const auto paper = bench::PaperMethods(settings);
  const auto gi_baselines = std::span(paper).subspan(1, 3);
  std::vector<eval::PaperMethod> methods(gi_baselines.begin(),
                                         gi_baselines.end());
  std::set<std::pair<int, int>> distinct;
  for (const auto& table : tables) {
    for (const auto& [wmax, amax] : table.ranges) {
      if (!distinct.insert({wmax, amax}).second) continue;
      methods.push_back(
          {RangeLabel(wmax, amax),
           "ensemble:wmax=" + std::to_string(wmax) +
               ",amax=" + std::to_string(amax) +
               ",n=" + std::to_string(settings.ensemble_size) +
               ",threads=" + std::to_string(settings.threads)});
    }
  }

  eval::ExperimentConfig cfg;
  cfg.series_per_dataset = settings.series_per_dataset;
  cfg.data_seed = settings.data_seed;
  const auto result = eval::RunExperiment(data::kAllFamilies, methods, cfg);

  // The baseline per dataset is fixed across configurations.
  std::vector<std::string> baselines;
  for (const auto d : data::kAllFamilies) {
    double best_score = -1.0;
    std::string best;
    for (const auto& method : gi_baselines) {
      const double score = result.Get(d, method.label).AverageScore();
      if (score > best_score) {
        best_score = score;
        best = method.label;
      }
    }
    baselines.push_back(best);
  }

  for (const auto& spec : tables) {
    TextTable table(spec.title);
    std::vector<std::string> header{"Approach"};
    for (const auto d : data::kAllFamilies)
      header.push_back(bench::DatasetName(d));
    table.SetHeader(std::move(header));

    for (const auto& [wmax, amax] : spec.ranges) {
      const std::string label = RangeLabel(wmax, amax);
      std::vector<std::string> row{label};
      for (size_t di = 0; di < data::kAllFamilies.size(); ++di) {
        const auto d = data::kAllFamilies[di];
        row.push_back(eval::CompareScores(result.Get(d, label),
                                          result.Get(d, baselines[di]))
                          .ToString());
      }
      table.AddRow(std::move(row));
    }
    table.Print(std::cout);
    std::cout << '\n';
  }

  std::printf("best GI baseline per dataset:");
  for (size_t di = 0; di < data::kAllFamilies.size(); ++di) {
    std::printf(" %s=%s", bench::DatasetName(data::kAllFamilies[di]).c_str(),
                baselines[di].c_str());
  }
  std::printf("\n");
  return 0;
}

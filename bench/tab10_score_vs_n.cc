// Reproduces Table 10 of the paper: average Score of the ensemble vs the
// ensemble size N in {5, 10, 25, 50}. Member curves are computed once per
// series with N = 50 and re-combined from prefixes (a prefix of a
// without-replacement parameter draw is itself a valid smaller draw).

#include <iostream>

#include "bench_common.h"
#include "core/anomaly.h"
#include "core/ensemble.h"
#include "egi/metrics.h"

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble("Table 10: average Score vs ensemble size N",
                       settings);

  const std::vector<int> n_values{5, 10, 25, 50};

  TextTable table("Table 10");
  std::vector<std::string> header{"Dataset"};
  for (int n : n_values) header.push_back("N=" + std::to_string(n));
  table.SetHeader(std::move(header));

  for (const auto d : data::kAllFamilies) {
    const auto series_set = eval::MakeEvaluationSeries(
        d, settings.series_per_dataset, settings.data_seed);
    const size_t window = data::GetFamilyInfo(d).instance_length;

    std::vector<double> sums(n_values.size(), 0.0);
    for (const auto& s : series_set) {
      core::EnsembleParams p;
      p.window_length = window;
      p.ensemble_size = 50;
      auto curves = core::ComputeMemberDensityCurves(s.values, p);
      EGI_CHECK(curves.ok()) << curves.status().ToString();

      for (size_t ni = 0; ni < n_values.size(); ++ni) {
        const auto count = std::min<size_t>(
            static_cast<size_t>(n_values[ni]), curves->size());
        const std::span<const std::vector<double>> prefix(curves->data(),
                                                          count);
        const auto ensemble = core::CombineMemberCurves(
            prefix, p.selectivity, p.combine, p.normalize, true);
        const auto anomalies =
            core::FindDensityAnomalies(ensemble, window, 3);
        sums[ni] += BestScore(anomalies, s.anomaly);
      }
    }

    std::vector<std::string> row{bench::DatasetName(d)};
    for (double sum : sums) {
      row.push_back(
          FormatDouble(sum / static_cast<double>(series_set.size()), 4));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  return 0;
}

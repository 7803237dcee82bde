// Reproduces Table 11 of the paper: HitRate of the ensemble vs the ensemble
// size N in {5, 10, 25, 50}. Same prefix-reuse scheme as tab10_score_vs_n.

#include <iostream>

#include "bench_common.h"
#include "core/anomaly.h"
#include "core/ensemble.h"
#include "egi/metrics.h"

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble("Table 11: HitRate vs ensemble size N", settings);

  const std::vector<int> n_values{5, 10, 25, 50};

  TextTable table("Table 11");
  std::vector<std::string> header{"Dataset"};
  for (int n : n_values) header.push_back("N=" + std::to_string(n));
  table.SetHeader(std::move(header));

  for (const auto d : data::kAllFamilies) {
    const auto series_set = eval::MakeEvaluationSeries(
        d, settings.series_per_dataset, settings.data_seed);
    const size_t window = data::GetFamilyInfo(d).instance_length;

    std::vector<int> hits(n_values.size(), 0);
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
        if (IsHit(anomalies, s.anomaly)) ++hits[ni];
      }
    }

    std::vector<std::string> row{bench::DatasetName(d)};
    for (int h : hits) {
      row.push_back(FormatDouble(
          static_cast<double>(h) / static_cast<double>(series_set.size()),
          2));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  return 0;
}

// Reproduces Tables 10 and 11 of the paper: average Score and HitRate of the
// ensemble vs the ensemble size N in {5, 10, 25, 50}. Member curves are
// computed once per series with N = 50 and re-combined from prefixes (a
// prefix of a without-replacement parameter draw is itself a valid smaller
// draw); both tables read the same top-3 candidates.

#include <iostream>

#include "bench_common.h"
#include "core/anomaly.h"
#include "core/ensemble.h"
#include "egi/metrics.h"

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble(
      "Tables 10-11: average Score and HitRate vs ensemble size N", settings);

  const std::vector<int> n_values{5, 10, 25, 50};

  TextTable score_table("Table 10");
  TextTable hit_table("Table 11");
  std::vector<std::string> header{"Dataset"};
  for (int n : n_values) header.push_back("N=" + std::to_string(n));
  score_table.SetHeader(header);
  hit_table.SetHeader(std::move(header));

  for (const auto d : data::kAllFamilies) {
    const auto series_set = eval::MakeEvaluationSeries(
        d, settings.series_per_dataset, settings.data_seed);
    const size_t window = data::GetFamilyInfo(d).instance_length;

    std::vector<double> sums(n_values.size(), 0.0);
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
            prefix, {.selectivity = p.selectivity,
                     .combine = p.combine,
                     .normalize = p.normalize});
        const auto anomalies =
            core::FindDensityAnomalies(ensemble, window, 3);
        sums[ni] += BestScore(anomalies, s.anomaly);
        if (IsHit(anomalies, s.anomaly)) ++hits[ni];
      }
    }

    const auto num_series = static_cast<double>(series_set.size());
    std::vector<std::string> score_row{bench::DatasetName(d)};
    std::vector<std::string> hit_row{bench::DatasetName(d)};
    for (size_t ni = 0; ni < n_values.size(); ++ni) {
      score_row.push_back(FormatDouble(sums[ni] / num_series, 4));
      hit_row.push_back(
          FormatDouble(static_cast<double>(hits[ni]) / num_series, 2));
    }
    score_table.AddRow(std::move(score_row));
    hit_table.AddRow(std::move(hit_row));
  }
  score_table.Print(std::cout);
  std::cout << '\n';
  hit_table.Print(std::cout);
  return 0;
}

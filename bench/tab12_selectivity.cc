// Reproduces Table 12 of the paper: mean and standard deviation of the
// average Score over repeated ensemble runs, for selectivity tau in
// {5, 10, 20, 40, 80, 100}%. Each repetition draws a fresh parameter
// sample; member curves are shared across all tau values within one
// repetition (only the selection cutoff changes).
//
// Env: EGI_TAB12_REPS (default 20 as in the paper, 5 in quick mode).

#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "core/anomaly.h"
#include "core/ensemble.h"
#include "egi/metrics.h"
#include "ts/stats.h"

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  const int reps =
      bench::GetEnvCount("EGI_TAB12_REPS", settings.quick ? 5 : 20);
  bench::PrintPreamble("Table 12: average Score (mean and std over " +
                           std::to_string(reps) + " repetitions) vs tau",
                       settings);

  const std::vector<double> taus{0.05, 0.10, 0.20, 0.40, 0.80, 1.00};

  TextTable table("Table 12 (each cell: mean (std))");
  std::vector<std::string> header{"Dataset"};
  for (double tau : taus)
    header.push_back("tau=" + std::to_string(static_cast<int>(tau * 100)) +
                     "%");
  table.SetHeader(std::move(header));

  for (const auto d : data::kAllFamilies) {
    const auto series_set = eval::MakeEvaluationSeries(
        d, settings.series_per_dataset, settings.data_seed);
    const size_t window = data::GetFamilyInfo(d).instance_length;

    // avg_scores[tau][rep] = average Score over the series set.
    std::vector<std::vector<double>> avg_scores(
        taus.size(), std::vector<double>(static_cast<size_t>(reps), 0.0));

    for (int rep = 0; rep < reps; ++rep) {
      for (const auto& s : series_set) {
        core::EnsembleParams p;
        p.window_length = window;
        p.ensemble_size = settings.ensemble_size;
        p.seed += static_cast<uint64_t>(rep) * 7919;
        auto curves = core::ComputeMemberDensityCurves(s.values, p);
        EGI_CHECK(curves.ok()) << curves.status().ToString();

        for (size_t ti = 0; ti < taus.size(); ++ti) {
          const auto ensemble = core::CombineMemberCurves(
              *curves, {.selectivity = taus[ti],
                        .combine = p.combine,
                        .normalize = p.normalize});
          const auto anomalies =
              core::FindDensityAnomalies(ensemble, window, 3);
          avg_scores[ti][static_cast<size_t>(rep)] +=
              BestScore(anomalies, s.anomaly) /
              static_cast<double>(series_set.size());
        }
      }
    }

    std::vector<std::string> row{bench::DatasetName(d)};
    for (size_t ti = 0; ti < taus.size(); ++ti) {
      const double mean = ts::Mean(avg_scores[ti]);
      const double std_dev = ts::SampleStdDev(avg_scores[ti]);
      row.push_back(FormatDouble(mean, 4) + " (" + FormatDouble(std_dev, 3) +
                    ")");
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  return 0;
}

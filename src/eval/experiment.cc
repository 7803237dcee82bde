#include "eval/experiment.h"

#include <algorithm>

#include "api/internal.h"
#include "datasets/planted.h"
#include "util/check.h"
#include "util/rng.h"

namespace egi::eval {

std::vector<PaperMethod> PaperMethods(int ensemble_size, int threads) {
  const std::string n = std::to_string(ensemble_size);
  const std::string t = std::to_string(threads);
  return {
      {"Proposed", "ensemble:n=" + n + ",threads=" + t},
      {"GI-Random", "gi-random"},
      {"GI-Fix", "gi-fix"},
      {"GI-Select", "gi-select"},
      {"Discord", "discord:threads=" + t},
  };
}

const MethodAggregate& ExperimentResult::Get(data::Family d,
                                             std::string_view label) const {
  auto dit = scores.find(d);
  EGI_CHECK(dit != scores.end()) << "dataset not evaluated";
  auto mit = dit->second.find(label);
  EGI_CHECK(mit != dit->second.end()) << "method not evaluated";
  return mit->second;
}

std::vector<data::PlantedSeries> MakeEvaluationSeries(data::Family dataset,
                                                     int count,
                                                     uint64_t data_seed) {
  // One deterministic substream per (dataset, index) so a different series
  // count still yields the same leading series.
  std::vector<data::PlantedSeries> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    Rng rng(data_seed ^ (0x517CC1B727220A95ULL *
                         (static_cast<uint64_t>(dataset) * 1000 +
                          static_cast<uint64_t>(i) + 1)));
    out.push_back(datasets::MakePlantedSeries(dataset, rng));
  }
  return out;
}

ExperimentResult RunExperiment(
    std::span<const data::Family> datasets_to_run,
    std::span<const PaperMethod> methods, const ExperimentConfig& config) {
  const size_t num_datasets = datasets_to_run.size();
  const size_t num_methods = methods.size();

  // Evaluation series are generated once per dataset (serially — generation
  // is cheap) and shared read-only by that dataset's method cells.
  struct DatasetInputs {
    std::vector<data::PlantedSeries> series;
    size_t window = 0;
  };
  std::vector<DatasetInputs> inputs(num_datasets);
  for (size_t d = 0; d < num_datasets; ++d) {
    inputs[d].series = MakeEvaluationSeries(
        datasets_to_run[d], config.series_per_dataset, config.data_seed);
    const size_t instance_len =
        data::GetFamilyInfo(datasets_to_run[d]).instance_length;
    inputs[d].window = static_cast<size_t>(std::max(
        2.0, config.window_fraction * static_cast<double>(instance_len)));
  }

  // One cell per (dataset, method). Every cell owns a fresh detector and
  // walks its series in order, so stateful detectors (e.g. GI-Random's
  // per-call substream) see exactly the serial call sequence and the scores
  // are identical for every thread count.
  std::vector<MethodAggregate> cells(num_datasets * num_methods);
  exec::ParallelFor(
      config.parallelism, 0, cells.size(), /*grain=*/1, [&](size_t idx) {
        const size_t d = idx / num_methods;
        const PaperMethod& method = methods[idx % num_methods];
        const DatasetInputs& in = inputs[d];

        auto spec = DetectorSpec::Parse(method.spec);
        EGI_CHECK(spec.ok())
            << method.label << ": " << spec.status().ToString();
        auto detector = api::BuildDetector(*spec);
        EGI_CHECK(detector.ok())
            << method.label << ": " << detector.status().ToString();
        MethodAggregate agg;
        agg.scores.reserve(in.series.size());
        for (const auto& s : in.series) {
          auto candidates =
              (*detector)->Detect(s.values, in.window, config.top_k);
          EGI_CHECK(candidates.ok())
              << method.label << ": " << candidates.status().ToString();
          agg.scores.push_back(BestScore(candidates.value(), s.anomaly));
        }
        cells[idx] = std::move(agg);
      });

  ExperimentResult result;
  for (size_t d = 0; d < num_datasets; ++d) {
    for (size_t m = 0; m < num_methods; ++m) {
      result.scores[datasets_to_run[d]][methods[m].label] =
          std::move(cells[d * num_methods + m]);
    }
  }
  return result;
}

WinTieLoss CompareScores(const MethodAggregate& proposed,
                         const MethodAggregate& baseline) {
  EGI_CHECK(proposed.scores.size() == baseline.scores.size())
      << "mismatched series counts";
  WinTieLoss wtl;
  for (size_t i = 0; i < proposed.scores.size(); ++i) {
    wtl.Add(proposed.scores[i], baseline.scores[i]);
  }
  return wtl;
}

}  // namespace egi::eval

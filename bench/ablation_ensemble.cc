// Ablation study of the design choices called out in DESIGN.md — not a
// paper table, but evidence for each component of Algorithm 1:
//   * median combine (paper) vs mean,
//   * std-deviation quality filter on (paper) vs off,
//   * max-normalization preserving zeros (paper) vs min-max vs none,
//   * numerosity reduction on (paper) vs off,
//   * boundary (window-coverage) correction on vs off (our addition).
// Each variant runs the full planted-anomaly protocol on every dataset.

#include <iostream>

#include "bench_common.h"
#include "core/detector.h"
#include "eval/metrics.h"

namespace {

struct Variant {
  const char* name;
  egi::core::EnsembleParams params;
};

}  // namespace

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const auto settings = bench::SettingsFromEnv();
  bench::PrintPreamble("Ablation: Algorithm 1 design choices", settings);

  core::EnsembleParams base;
  base.ensemble_size = settings.ensemble_size;

  std::vector<Variant> variants;
  variants.push_back({"paper-default", base});
  {
    auto v = base;
    v.combine = core::CombineRule::kMean;
    variants.push_back({"mean-combine", v});
  }
  {
    auto v = base;
    v.filter_by_std = false;
    variants.push_back({"no-std-filter", v});
  }
  {
    auto v = base;
    v.normalize = core::NormalizeMode::kMinMax;
    variants.push_back({"minmax-norm", v});
  }
  {
    auto v = base;
    v.normalize = core::NormalizeMode::kNone;
    variants.push_back({"no-normalization", v});
  }
  {
    auto v = base;
    v.numerosity_reduction = false;
    variants.push_back({"no-numerosity-red", v});
  }
  {
    auto v = base;
    v.boundary_correction = false;
    variants.push_back({"no-boundary-corr", v});
  }

  TextTable table("average Score per variant (HitRate in parentheses)");
  std::vector<std::string> header{"Variant"};
  for (const auto d : data::kAllFamilies)
    header.push_back(bench::DatasetName(d));
  table.SetHeader(std::move(header));

  for (const auto& variant : variants) {
    std::vector<std::string> row{variant.name};
    for (const auto d : data::kAllFamilies) {
      const auto series_set = eval::MakeEvaluationSeries(
          d, settings.series_per_dataset, settings.data_seed);
      const size_t window = data::GetFamilyInfo(d).instance_length;
      core::EnsembleGiDetector detector(variant.params);

      eval::MethodAggregate agg;
      for (const auto& s : series_set) {
        auto r = detector.Detect(s.values, window, 3);
        EGI_CHECK(r.ok()) << r.status().ToString();
        agg.scores.push_back(BestScore(*r, s.anomaly));
      }
      row.push_back(FormatDouble(agg.AverageScore(), 3) + " (" +
                    FormatDouble(agg.HitRate(), 2) + ")");
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  return 0;
}

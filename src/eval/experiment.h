#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "egi/datasets.h"
#include "eval/metrics.h"
#include "exec/parallel.h"

namespace egi::eval {

/// One evaluated method: its label in the paper's tables and the registry
/// spec string that builds it (egi/spec.h).
struct PaperMethod {
  std::string label;
  std::string spec;
};

/// The five methods of the paper's Section 7.1.3 in table order: Proposed,
/// GI-Random, GI-Fix, GI-Select, Discord. `ensemble_size` is Proposed's N
/// and `threads` the intra-detector parallelism of Proposed and Discord
/// (scores are bitwise-identical for every thread count). Every other
/// option keeps its registry default, which is the paper's setting.
std::vector<PaperMethod> PaperMethods(int ensemble_size, int threads);

/// Configuration of the paper's main evaluation protocol (Section 7.1):
/// `series_per_dataset` planted series per family, top-3 candidates per
/// method, window length = (window_fraction x instance length).
struct ExperimentConfig {
  int series_per_dataset = 25;
  size_t top_k = 3;
  double window_fraction = 1.0;  ///< n = fraction * na (Tables 13/14 sweep)
  uint64_t data_seed = 2020;     ///< seed for series generation

  /// Degree of parallelism across (dataset, method) experiment cells. Each
  /// cell builds its own detector and walks its series in order, so scores
  /// are identical to a serial run for every thread count; a detector that
  /// parallelizes internally fans out onto the workers other cells leave idle.
  exec::Parallelism parallelism = exec::Parallelism::FromEnv();
};

/// Per-dataset, per-method-label evaluation outcome: the best-of-top-k
/// Score for every generated series (everything else — average Score,
/// HitRate, win/tie/loss — derives from these).
struct ExperimentResult {
  std::map<data::Family, std::map<std::string, MethodAggregate, std::less<>>>
      scores;

  const MethodAggregate& Get(data::Family d, std::string_view label) const;
};

/// Deterministically regenerates the evaluation series for one dataset
/// (shared by every bench so all tables see identical data).
std::vector<data::PlantedSeries> MakeEvaluationSeries(data::Family dataset,
                                                     int count,
                                                     uint64_t data_seed);

/// Runs `methods` over every dataset in `datasets_to_run`, building each
/// detector from its spec through the registry. Aborts on a spec the
/// registry rejects (programmer error).
ExperimentResult RunExperiment(std::span<const data::Family> datasets_to_run,
                               std::span<const PaperMethod> methods,
                               const ExperimentConfig& config);

/// Win/tie/loss of `proposed` vs `baseline` over per-series score pairs.
WinTieLoss CompareScores(const MethodAggregate& proposed,
                         const MethodAggregate& baseline);

}  // namespace egi::eval

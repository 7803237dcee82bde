#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/parallel.h"
#include "sax/multires_encoder.h"
#include "util/result.h"

namespace egi::core {

/// How kept member curves are combined into the ensemble curve. The paper
/// uses the point-wise median; mean is provided for the ablation bench.
enum class CombineRule { kMedian, kMean };

/// Per-curve normalization before combining. The paper divides each curve by
/// its own maximum to preserve exact zeros (it explicitly rejects min-max
/// normalization); min-max is provided for the ablation bench.
enum class NormalizeMode { kMaxPreservingZeros, kMinMax, kNone };

/// Parameters of Algorithm 1 (Ensemble Rule Density Curve). Defaults are the
/// paper's experimental configuration: wmax = amax = 10, N = 50, tau = 40%.
struct EnsembleParams {
  size_t window_length = 0;  ///< sliding window length n
  int wmax = 10;             ///< PAA sizes drawn from [2, wmax]
  int amax = 10;             ///< alphabet sizes drawn from [2, amax]
  int ensemble_size = 50;    ///< N; capped at the grid size (combinations
                             ///< are drawn without replacement)
  double selectivity = 0.4;  ///< tau: fraction of curves kept by std-dev rank
  uint64_t seed = 42;        ///< RNG seed for the parameter draw

  /// Two-stage member construction: when 0 < prune_to < the drawn sample
  /// size, a cheap screening pass (token-frequency curve std on a strided
  /// subsample of window positions, from the shared discretizations alone)
  /// ranks all N candidates and full Sequitur induction runs only for the
  /// top `prune_to` survivors. 0 (default) builds every member — the exact
  /// Algorithm 1 path, bitwise-identical to builds without this knob.
  int prune_to = 0;

  bool numerosity_reduction = true;

  /// Degree of parallelism for the N member computations (Lines 4-6 of
  /// Algorithm 1). Each member writes only its own curve slot, so the
  /// result is bitwise-identical for every thread count (tested).
  ///
  /// The library-wide default is FromEnv() — EGI_NUM_THREADS, falling back
  /// to hardware_concurrency — everywhere a detector is configured
  /// (EnsembleParams and the registry's `threads=` option agree; pinned by
  /// tests/api_spec_test.cc).
  exec::Parallelism parallelism = exec::Parallelism::FromEnv();

  // Ablation knobs (paper behaviour by default, except boundary_correction
  // which fixes a structural edge artifact — see grammar/density.h).
  CombineRule combine = CombineRule::kMedian;
  NormalizeMode normalize = NormalizeMode::kMaxPreservingZeros;
  bool filter_by_std = true;        ///< when false, all N curves are kept
  bool boundary_correction = true;  ///< per-point window-coverage scaling
};

/// One ensemble member: the (w, a) draw, its curve's quality statistic, and
/// whether the selectivity filter kept it.
struct EnsembleMember {
  int paa_size = 0;
  int alphabet_size = 0;
  double std_dev = 0.0;
  bool kept = false;
};

/// Result of Algorithm 1.
struct EnsembleResult {
  std::vector<double> density;          ///< the ensemble rule density curve
  std::vector<EnsembleMember> members;  ///< all N members, draw order
};

Status ValidateEnsembleParams(size_t series_length,
                              const EnsembleParams& params);

/// Word statistics of one member's discretization: its distinct SAX words
/// (token ids) and how many sliding-window positions each covers — a
/// numerosity-reduced token covers a run of identically encoded positions.
/// A count is a whole number of positions, kept in 32 bits: a member's
/// counts sum to its series' window positions (a stream's buffer holds at
/// most 2^26 points), and the scorer converts one to double before it
/// divides by `max_count`.
struct MemberWordCounts {
  sax::TokenTable table;
  std::vector<uint32_t> position_counts;  ///< indexed by token id
  double max_count = 0.0;  ///< max of position_counts, 0 if empty
};

/// Per-member by-products of an ensemble run that callers may capture to
/// avoid re-deriving them (aligned 1:1 with the drawn sample / the result's
/// `members`). The streaming detector adopts them as its incremental
/// word-frequency models without a second encode pass. Each member's counts
/// are built right after its induction and its token sequence is released
/// then, so a run never holds every member's sequence and curve at once.
/// Candidates the pruning screen dropped (`prune_to`) have empty entries.
struct EnsembleArtifacts {
  std::vector<MemberWordCounts> word_counts;
};

/// Draws `count` distinct (w, a) pairs uniformly from [2,wmax] x [2,amax]
/// (Line 5 of Algorithm 1; each combination used at most once). When `count`
/// exceeds the grid size the whole grid is returned in random order.
std::vector<sax::WaParam> DrawParameterSample(int wmax, int amax, int count,
                                              uint64_t seed);

/// Runs Algorithm 1 end to end: draw parameters, build N rule density curves
/// (sharing discretization through the multi-resolution encoder), filter by
/// standard deviation, normalize, and combine. `artifacts` (optional)
/// receives the per-member word counts of the run's discretizations.
Result<EnsembleResult> ComputeEnsembleDensity(
    std::span<const double> series, const EnsembleParams& params,
    EnsembleArtifacts* artifacts = nullptr);

/// Lines 4-6 of Algorithm 1 in isolation: the N raw member density curves
/// for the parameter draw of `params` (before filtering/normalization),
/// built by the same code as ComputeEnsembleDensity but never pruned
/// (`prune_to` is ignored). `out_sample` (optional) receives the drawn
/// (w, a) pairs. Exposed so the N- and tau-sweep benches can compute member
/// curves once and re-combine them many ways; a prefix of a
/// without-replacement draw is itself a valid smaller draw, so N-sweeps may
/// reuse prefixes. `artifacts` (optional) receives the per-member word
/// counts.
Result<std::vector<std::vector<double>>> ComputeMemberDensityCurves(
    std::span<const double> series, const EnsembleParams& params,
    std::vector<sax::WaParam>* out_sample = nullptr,
    EnsembleArtifacts* artifacts = nullptr);

/// How CombineMemberCurves filters and merges a set of member curves.
struct CombineSpec {
  double selectivity = 0.4;
  CombineRule combine = CombineRule::kMedian;
  NormalizeMode normalize = NormalizeMode::kMaxPreservingZeros;
  bool filter_by_std = true;
  /// The curves are already ranked best-first (e.g. by the pruning screen),
  /// so the std-dev re-sort is skipped and a prefix is kept.
  bool already_ranked = false;
  /// When the ranked curves are the survivors of a pruned draw, the keep
  /// fraction applies to this original population size rather than
  /// curves.size() (0 = use curves.size()).
  size_t rank_population = 0;
};

/// Steps 7-14 of Algorithm 1 in isolation: given precomputed member curves,
/// applies the selectivity filter, normalization, and combination. Exposed
/// so parameter-sweep benches (N, tau) can reuse one set of member curves.
/// `member_stats` is filled with each curve's population standard deviation;
/// `kept` (optional) records the filter decision per curve.
std::vector<double> CombineMemberCurves(
    std::span<const std::vector<double>> curves, const CombineSpec& spec,
    std::vector<double>* member_stats = nullptr,
    std::vector<bool>* kept = nullptr);

}  // namespace egi::core

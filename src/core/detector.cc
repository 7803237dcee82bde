#include "core/detector.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "discord/discords.h"
#include "discord/matrix_profile.h"
#include "sax/breakpoints.h"
#include "sax/fast_paa.h"
#include "ts/prefix_stats.h"
#include "ts/stats.h"
#include "util/rng.h"

namespace egi::core {

Result<std::vector<Detection>> AnomalyDetector::Detect(
    std::span<const double> series, size_t window_length,
    size_t max_candidates) {
  EGI_ASSIGN_OR_RETURN(const auto density, Score(series, window_length));
  return FindDensityAnomalies(density, window_length, max_candidates);
}

Result<std::vector<double>> AnomalyDetector::Score(std::span<const double>,
                                                   size_t) {
  return Status::FailedPrecondition(std::string(name()) +
                                    " has no point-wise score curve");
}

// ---------------------------------------------------------------- Ensemble

EnsembleGiDetector::EnsembleGiDetector(EnsembleParams params)
    : params_(params) {}

Result<std::vector<double>> EnsembleGiDetector::Score(
    std::span<const double> series, size_t window_length) {
  EnsembleParams p = params_;
  p.window_length = window_length;
  // wmax cannot exceed the window (PAA size is bounded by it).
  p.wmax = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(p.wmax), window_length));
  EGI_ASSIGN_OR_RETURN(last_result_, ComputeEnsembleDensity(series, p));
  return last_result_.density;
}

// ------------------------------------------------------------------ GI-Fix

FixedGiDetector::FixedGiDetector(int paa_size, int alphabet_size,
                                 bool numerosity_reduction)
    : paa_size_(paa_size),
      alphabet_size_(alphabet_size),
      numerosity_reduction_(numerosity_reduction) {}

Result<std::vector<double>> FixedGiDetector::Score(
    std::span<const double> series, size_t window_length) {
  GiParams p;
  p.window_length = window_length;
  p.paa_size = paa_size_;
  p.alphabet_size = alphabet_size_;
  p.numerosity_reduction = numerosity_reduction_;
  EGI_ASSIGN_OR_RETURN(auto run, RunGrammarInduction(series, p));
  return std::move(run.density);
}

// --------------------------------------------------------------- GI-Random

RandomGiDetector::RandomGiDetector(int wmax, int amax, uint64_t seed)
    : wmax_(wmax), amax_(amax), next_seed_(seed) {}

Result<std::vector<Detection>> RandomGiDetector::Detect(
    std::span<const double> series, size_t window_length,
    size_t max_candidates) {
  Rng rng(next_seed_);
  next_seed_ = rng.NextUint64();  // fresh substream per call

  const int wmax = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(wmax_), window_length));
  last_w_ = static_cast<int>(rng.UniformInt(2, wmax));
  last_a_ = static_cast<int>(rng.UniformInt(2, amax_));

  GiParams p;
  p.window_length = window_length;
  p.paa_size = last_w_;
  p.alphabet_size = last_a_;
  EGI_ASSIGN_OR_RETURN(auto run, RunGrammarInduction(series, p));
  return FindDensityAnomalies(run.density, window_length, max_candidates);
}

// --------------------------------------------------------------- GI-Select

SelectGiDetector::SelectGiDetector(int wmax, int amax, double train_fraction)
    : wmax_(wmax), amax_(amax), train_fraction_(train_fraction) {}

namespace {

// Average squared residual between the z-normalized training windows and
// their SAX reconstruction (PAA segment value replaced by the Gaussian
// region centroid of its symbol). Measures how much signal a (w, a)
// discretization throws away.
double SaxResidualVariance(std::span<const double> prefix,
                           const ts::PrefixStats& stats, size_t n, int w,
                           std::span<const double> breakpoints,
                           const std::vector<double>& centroids) {
  const size_t positions = prefix.size() - n + 1;
  const size_t stride = std::max<size_t>(1, n / 4);
  const sax::FastPaa fast_paa(&stats);
  std::vector<double> coeffs(static_cast<size_t>(w));

  double err = 0.0;
  size_t count = 0;
  for (size_t p = 0; p < positions; p += stride) {
    const double mu = stats.RangeMean(p, n);
    const double sigma = stats.RangeStdDev(p, n);
    fast_paa.ComputeBlock(p, 1, n, w, coeffs);
    for (size_t i = 0; i < n; ++i) {
      const size_t seg = std::min<size_t>(
          static_cast<size_t>(w) - 1,
          i * static_cast<size_t>(w) / n);
      const double recon =
          centroids[static_cast<size_t>(sax::SymbolForValue(
              coeffs[seg], breakpoints))];
      const double z =
          sigma < ts::kNormThreshold ? 0.0 : (prefix[p + i] - mu) / sigma;
      const double d = z - recon;
      err += d * d;
      ++count;
    }
  }
  return count == 0 ? 0.0 : err / static_cast<double>(count);
}

}  // namespace

Result<GiParams> SelectGiDetector::SelectParams(std::span<const double> series,
                                                size_t window_length) const {
  // The paper trains on 10% of the normal series; we floor the prefix at
  // four windows so that repetition is observable at all (a prefix holding
  // fewer than ~2 instances makes every grammar incompressible and the MDL
  // objective degenerate).
  const size_t train_len = std::min(
      series.size(),
      std::max(4 * window_length + 1,
               static_cast<size_t>(static_cast<double>(series.size()) *
                                   train_fraction_)));
  if (train_len <= window_length) {
    return Status::InvalidArgument(
        "series too short for GI-Select training prefix");
  }
  auto prefix = series.subspan(0, train_len);
  const ts::PrefixStats stats(prefix);

  const int wmax = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(wmax_), window_length));

  // Two-part MDL over the grid: bits to describe the grammar (the model)
  // plus bits to describe what the discretization discarded (the residual,
  // via the differential entropy of a Gaussian with the measured variance).
  // Coarse parameters get tiny models but large residuals; fine parameters
  // the reverse; the minimum balances the two (our stand-in for the
  // optimization procedure of GrammarViz 3.0 — see DESIGN.md).
  double best_cost = std::numeric_limits<double>::infinity();
  GiParams best;
  best.window_length = window_length;
  for (int w = 2; w <= wmax; ++w) {
    for (int a = 2; a <= amax_; ++a) {
      GiParams p;
      p.window_length = window_length;
      p.paa_size = w;
      p.alphabet_size = a;
      EGI_ASSIGN_OR_RETURN(auto run, RunGrammarInduction(prefix, p));

      const double vocab =
          static_cast<double>(run.vocabulary + run.num_rules + 1);
      const double model_bits_per_point =
          static_cast<double>(run.grammar_symbols) *
          std::log2(std::max(2.0, vocab)) /
          static_cast<double>(prefix.size());

      const auto centroids = sax::GaussianRegionCentroids(a);
      const double var =
          SaxResidualVariance(prefix, stats, window_length, w,
                              sax::GaussianBreakpoints(a), centroids);
      const double residual_bits_per_point =
          0.5 * std::log2(2.0 * M_PI * M_E * (var + 1e-12));

      const double cost = model_bits_per_point + residual_bits_per_point;
      if (cost < best_cost) {
        best_cost = cost;
        best = p;
      }
    }
  }
  return best;
}

Result<std::vector<double>> SelectGiDetector::Score(
    std::span<const double> series, size_t window_length) {
  EGI_ASSIGN_OR_RETURN(auto params, SelectParams(series, window_length));
  last_w_ = params.paa_size;
  last_a_ = params.alphabet_size;
  EGI_ASSIGN_OR_RETURN(auto run, RunGrammarInduction(series, params));
  return std::move(run.density);
}

// ----------------------------------------------------------------- Discord

DiscordDetector::DiscordDetector(exec::Parallelism parallelism)
    : parallelism_(parallelism) {}

Result<std::vector<Detection>> DiscordDetector::Detect(
    std::span<const double> series, size_t window_length,
    size_t max_candidates) {
  EGI_ASSIGN_OR_RETURN(auto mp, discord::ComputeMatrixProfileStomp(
                                    series, window_length, parallelism_));
  const auto discords = discord::TopKDiscords(mp, max_candidates);
  std::vector<Detection> out;
  out.reserve(discords.size());
  for (const auto& d : discords) {
    Detection a;
    a.position = d.position;
    a.length = window_length;
    a.severity = d.distance;
    out.push_back(a);
  }
  return out;
}

}  // namespace egi::core

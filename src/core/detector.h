#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/anomaly.h"
#include "core/ensemble.h"
#include "core/gi.h"
#include "util/result.h"

namespace egi::core {

/// Common interface of all anomaly detectors in the library. Detect()
/// returns up to `max_candidates` mutually non-overlapping anomalies, most
/// anomalous first. Detectors are reusable across series; randomized
/// detectors derive a fresh deterministic substream per call.
class AnomalyDetector {
 public:
  virtual ~AnomalyDetector() = default;

  virtual std::string_view name() const = 0;

  /// The default ranks the density anomalies of Score's curve.
  virtual Result<std::vector<Detection>> Detect(
      std::span<const double> series, size_t window_length,
      size_t max_candidates);

  /// Point-wise anomaly curve, one value per series point, that Detect
  /// ranks candidates from. FailedPrecondition for detectors that rank
  /// something else (the default).
  virtual Result<std::vector<double>> Score(std::span<const double> series,
                                            size_t window_length);
};

/// The paper's proposed method: ensemble grammar induction (Algorithm 1).
/// `params.window_length` is ignored; the Detect() argument is used.
class EnsembleGiDetector : public AnomalyDetector {
 public:
  explicit EnsembleGiDetector(EnsembleParams params = EnsembleParams{});

  std::string_view name() const override { return "EnsembleGI"; }
  Result<std::vector<double>> Score(std::span<const double> series,
                                    size_t window_length) override;

  /// Full ensemble output of the last Detect() or Score() call (for
  /// inspection).
  const EnsembleResult& last_result() const { return last_result_; }

 private:
  EnsembleParams params_;
  EnsembleResult last_result_;
};

/// Single-run grammar induction with fixed (w, a) — the GI-Fix baseline with
/// the paper's generic values w = 4, a = 4 by default.
class FixedGiDetector : public AnomalyDetector {
 public:
  FixedGiDetector(int paa_size = 4, int alphabet_size = 4,
                  bool numerosity_reduction = true);

  std::string_view name() const override { return "GI-Fix"; }
  Result<std::vector<double>> Score(std::span<const double> series,
                                    size_t window_length) override;

 private:
  int paa_size_;
  int alphabet_size_;
  bool numerosity_reduction_;
};

/// Single-run grammar induction with (w, a) drawn uniformly at random from
/// [2, wmax] x [2, amax] on every Detect() call — the GI-Random baseline.
class RandomGiDetector : public AnomalyDetector {
 public:
  RandomGiDetector(int wmax = 10, int amax = 10, uint64_t seed = 1);

  std::string_view name() const override { return "GI-Random"; }
  Result<std::vector<Detection>> Detect(std::span<const double> series,
                                        size_t window_length,
                                        size_t max_candidates) override;

  /// The (w, a) used by the last Detect() call.
  int last_paa_size() const { return last_w_; }
  int last_alphabet_size() const { return last_a_; }

 private:
  int wmax_;
  int amax_;
  uint64_t next_seed_;
  int last_w_ = 0;
  int last_a_ = 0;
};

/// Single-run grammar induction with (w, a) selected by a grid search on the
/// leading fraction of the series — the GI-Select baseline standing in for
/// the GrammarViz 3.0 optimization procedure (the paper's [19]; see
/// DESIGN.md for the substitution). The objective is an MDL-style bit cost:
/// grammar description length times log2 of the symbol vocabulary,
/// normalized by the token count; the (w, a) minimizing it is selected.
class SelectGiDetector : public AnomalyDetector {
 public:
  SelectGiDetector(int wmax = 10, int amax = 10, double train_fraction = 0.1);

  std::string_view name() const override { return "GI-Select"; }
  Result<std::vector<double>> Score(std::span<const double> series,
                                    size_t window_length) override;

  /// Runs only the parameter selection; exposed for tests.
  Result<GiParams> SelectParams(std::span<const double> series,
                                size_t window_length) const;

  int last_paa_size() const { return last_w_; }
  int last_alphabet_size() const { return last_a_; }

 private:
  int wmax_;
  int amax_;
  double train_fraction_;
  int last_w_ = 0;
  int last_a_ = 0;
};

/// The state-of-the-art distance-based baseline: time series discord via the
/// STOMP matrix profile (the paper's "Discord" method). By default the row
/// sweep uses EGI_NUM_THREADS (falling back to hardware_concurrency); the
/// matrix profile is bitwise-identical for every thread count, so the choice
/// only affects wall-clock time. An int thread count also converts.
class DiscordDetector : public AnomalyDetector {
 public:
  explicit DiscordDetector(
      exec::Parallelism parallelism = exec::Parallelism::FromEnv());

  std::string_view name() const override { return "Discord"; }
  Result<std::vector<Detection>> Detect(std::span<const double> series,
                                        size_t window_length,
                                        size_t max_candidates) override;

 private:
  exec::Parallelism parallelism_;
};

}  // namespace egi::core

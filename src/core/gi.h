#pragma once

#include <span>
#include <vector>

#include "sax/sax_encoder.h"
#include "util/result.h"

namespace egi::core {

/// Parameters of a single grammar-induction anomaly-detection run
/// (GrammarViz-style; paper Section 5).
struct GiParams {
  size_t window_length = 0;  ///< sliding window length n
  int paa_size = 4;          ///< w
  int alphabet_size = 4;     ///< a
  bool numerosity_reduction = true;
  /// Divide each density value by the number of windows covering the point,
  /// removing the structural dip at the series boundaries (see
  /// grammar/density.h). On by default; ablated in bench/ablation_ensemble.
  bool boundary_correction = true;
};

/// Output of one discretize -> Sequitur -> density run.
struct GiRun {
  std::vector<double> density;  ///< rule density curve, one value per point
  size_t num_tokens = 0;        ///< tokens after numerosity reduction
  size_t num_rules = 0;         ///< induced grammar rules
  size_t grammar_symbols = 0;   ///< description length (|root| + sum |rhs|)
  size_t vocabulary = 0;        ///< distinct SAX words observed
};

/// Runs the full single-parameter pipeline: SAX discretization with
/// numerosity reduction, Sequitur, and the rule density curve.
Result<GiRun> RunGrammarInduction(std::span<const double> series,
                                  const GiParams& params);

/// Same pipeline starting from an already-discretized series (used by the
/// ensemble so discretization can be shared through the multi-resolution
/// encoder). The induction runs on a builder leased from the scratch pool
/// (grammar::AcquireScratchBuilder), and the density, rule count and
/// description length are read from the builder's live grammar in one walk,
/// without Build(); the output is bitwise-identical to a fresh builder's
/// Build() fed to BuildRuleDensityCurve (tested).
GiRun RunGrammarInductionOnTokens(const sax::DiscretizedSeries& discretized,
                                  bool boundary_correction = true);

}  // namespace egi::core

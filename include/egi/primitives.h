#pragma once

// Part of the installed public API (see DESIGN.md, "Public API"). The
// lower-level building blocks of the pipeline, for exploration and
// teaching (examples/sax_grammar_tour.cpp reproduces the paper's worked
// examples on exactly these): SAX discretization, numerosity reduction,
// Sequitur grammar induction, and the rule density curve.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "egi/result.h"

namespace egi {

/// SAX word (letters) for a single, standalone subsequence — the paper's
/// Figure 3 operation: z-normalize, PAA to `paa_size` segments, map through
/// Gaussian breakpoints for `alphabet_size` symbols. Exactly the word batch
/// discretization gives the subsequence as its only window; NaN and Inf are
/// rejected with InvalidArgument.
Result<std::string> SaxWord(std::span<const double> values, int paa_size,
                            int alphabet_size);

/// A numerosity-reduced token sequence (paper Section 4.2): consecutive
/// duplicate tokens collapsed to their first occurrence, with `offsets`
/// remembering where each surviving token started in the original
/// sliding-window position space. Example (Eq. 2 -> Eq. 3):
///   ba,ba,ba,dc,dc,aa,ac,ac  ->  tokens {ba,dc,aa,ac}, offsets {0,3,5,6}.
struct TokenRuns {
  std::vector<int32_t> tokens;
  std::vector<size_t> offsets;

  size_t size() const { return tokens.size(); }
};

/// Collapses consecutive duplicates of `raw` (one token per sliding-window
/// position).
TokenRuns ReduceNumerosity(std::span<const int32_t> raw);

/// Induces a Sequitur grammar over `tokens` and renders it in the paper's
/// "R0 -> R1 x R1" style. `render_terminal` maps a token id to its display
/// string (ids are printed when null).
std::string InducedGrammarText(
    std::span<const int32_t> tokens,
    const std::function<std::string(int32_t)>& render_terminal);

/// The rule density curve (paper Section 5.2) of `tokens`: induces a
/// Sequitur grammar, then counts for every series point how many rule
/// instances cover it. `offsets` maps token index -> original sliding-window
/// position (offsets[i] == i for an unreduced sequence); `series_length` is
/// the original series length; instances spanning tokens [p, p+e) cover time
/// points [offsets[p], offsets[p+e-1] + window_length - 1]. Low values mark
/// incompressible regions — the anomaly candidates.
std::vector<double> RuleDensityCurve(std::span<const int32_t> tokens,
                                     std::span<const size_t> offsets,
                                     size_t series_length,
                                     size_t window_length);

}  // namespace egi

#pragma once

#include <span>
#include <vector>

#include "grammar/grammar.h"
#include "grammar/sequitur.h"

namespace egi::grammar {

/// Builds the rule density curve (paper Section 5.2): a meta time series of
/// the original series' length where each point counts how many grammar-rule
/// instances cover it. Rule instances (never R0) are mapped back to the time
/// domain through the numerosity-reduction offsets:
///
///   an occurrence starting at token position p and spanning e tokens covers
///   time points [offsets[p], offsets[p + e - 1] + window_length - 1].
///
/// Low values mark rarely-covered (incompressible) regions — the anomaly
/// candidates. Complexity: O(series_length + total rule occurrences).
///
/// `normalize_by_coverage` divides each point's count by the number of
/// sliding windows that cover it (between 1 at the series edges and
/// window_length in the interior). Points near the boundaries are covered by
/// structurally fewer windows, so the raw curve always dips there and the
/// edges would otherwise outrank real anomalies (an artifact the paper's
/// 40%-80% planting protocol never exposes). Zeros are preserved exactly.
std::vector<double> BuildRuleDensityCurve(const Grammar& grammar,
                                          std::span<const size_t> offsets,
                                          size_t series_length,
                                          size_t window_length,
                                          bool normalize_by_coverage = false);

/// The same curve read straight from `builder`'s live grammar, without
/// Build(): SequiturBuilder::VisitRuleOccurrences feeds the same coverage
/// diff, so the result is bitwise-equal to BuildRuleDensityCurve(
/// builder.Build(), ...) (tested). `size`, when non-null, receives the
/// grammar's rule count and description length from the same walk.
std::vector<double> BuildRuleDensityCurve(const SequiturBuilder& builder,
                                          std::span<const size_t> offsets,
                                          size_t series_length,
                                          size_t window_length,
                                          bool normalize_by_coverage,
                                          GrammarSize* size = nullptr);

}  // namespace egi::grammar

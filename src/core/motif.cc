#include "core/motif.h"

#include <algorithm>
#include <numeric>

#include "grammar/sequitur.h"
#include "sax/sax_encoder.h"

namespace egi::core {

Result<std::vector<Motif>> DiscoverMotifs(std::span<const double> series,
                                          const MotifParams& params) {
  sax::SaxParams sp;
  sp.window_length = params.gi.window_length;
  sp.paa_size = params.gi.paa_size;
  sp.alphabet_size = params.gi.alphabet_size;
  sp.numerosity_reduction = params.gi.numerosity_reduction;
  EGI_ASSIGN_OR_RETURN(auto discretized, sax::DiscretizeSeries(series, sp));

  const grammar::Grammar g = grammar::InduceGrammar(discretized.seq.tokens);
  const auto& offsets = discretized.seq.offsets;
  const size_t n = params.gi.window_length;
  const size_t series_len = series.size();

  std::vector<Motif> motifs;
  motifs.reserve(g.rules.size());
  for (size_t k = 0; k < g.rules.size(); ++k) {
    const auto& rule = g.rules[k];
    if (rule.occurrences.size() < params.min_instances) continue;

    Motif m;
    m.rule_index = k;
    m.token_span = rule.expansion_length;

    double total_len = 0.0;
    for (size_t p : rule.occurrences) {
      const size_t start = offsets[p];
      const size_t end = std::min(series_len - 1,
                                  offsets[p + rule.expansion_length - 1] +
                                      n - 1);
      m.instances.push_back(Range{start, end - start + 1});
      total_len += static_cast<double>(end - start + 1);
    }
    const double mean_len =
        total_len / static_cast<double>(m.instances.size());
    if (mean_len <
        params.min_length_factor * static_cast<double>(n)) {
      continue;
    }

    // Coverage: union length of the instances (instances are in series
    // order; overlaps possible for adjacent occurrences).
    size_t covered = 0;
    size_t cursor = 0;
    for (const auto& w : m.instances) {
      const size_t lo = std::max(cursor, w.start);
      if (w.end() > lo) covered += w.end() - lo;
      cursor = std::max(cursor, w.end());
    }
    m.coverage = static_cast<double>(covered) /
                 static_cast<double>(series_len);

    // Render the rule expansion as SAX words for display.
    const auto expansion = g.ExpandRule(k);
    for (size_t i = 0; i < expansion.size(); ++i) {
      if (i) m.words += ' ';
      m.words += discretized.table.Word(expansion[i]);
    }
    motifs.push_back(std::move(m));
  }

  std::stable_sort(motifs.begin(), motifs.end(),
                   [](const Motif& a, const Motif& b) {
                     if (a.instances.size() != b.instances.size())
                       return a.instances.size() > b.instances.size();
                     return a.coverage > b.coverage;
                   });
  if (motifs.size() > params.top_k) motifs.resize(params.top_k);
  return motifs;
}

}  // namespace egi::core

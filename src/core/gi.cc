#include "core/gi.h"

#include "grammar/density.h"
#include "grammar/sequitur.h"

namespace egi::core {

GiRun RunGrammarInductionOnTokens(const sax::DiscretizedSeries& discretized,
                                  bool boundary_correction) {
  GiRun run;
  run.num_tokens = discretized.seq.size();
  run.vocabulary = discretized.table.size();

  auto builder = grammar::AcquireScratchBuilder();
  builder->Reset();
  builder->AppendAll(discretized.seq.tokens);
  grammar::GrammarSize size;
  run.density = grammar::BuildRuleDensityCurve(
      *builder, discretized.seq.offsets, discretized.series_length,
      discretized.window_length, boundary_correction, &size);
  run.num_rules = size.num_rules;
  run.grammar_symbols = size.symbols;
  return run;
}

Result<GiRun> RunGrammarInduction(std::span<const double> series,
                                  const GiParams& params) {
  sax::SaxParams sp;
  sp.window_length = params.window_length;
  sp.paa_size = params.paa_size;
  sp.alphabet_size = params.alphabet_size;
  sp.numerosity_reduction = params.numerosity_reduction;
  EGI_ASSIGN_OR_RETURN(auto discretized, sax::DiscretizeSeries(series, sp));
  return RunGrammarInductionOnTokens(discretized, params.boundary_correction);
}

}  // namespace egi::core

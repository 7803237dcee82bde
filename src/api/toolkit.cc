// Implementation of the public toolkit headers (egi/datasets.h,
// egi/motif.h, egi/primitives.h, egi/version.h) on the internal layers,
// which share their value types. GetFamilyInfo lives next to the family
// table (datasets/ucr_like.cc) and the Eq. 5 metrics in eval/metrics.cc.

#include <cstdint>

#include "core/motif.h"
#include "datasets/physio.h"
#include "datasets/planted.h"
#include "datasets/power.h"
#include "egi/datasets.h"
#include "egi/motif.h"
#include "egi/primitives.h"
#include "egi/version.h"
#include "grammar/density.h"
#include "grammar/sequitur.h"
#include "sax/numerosity.h"
#include "sax/sax_encoder.h"
#include "util/rng.h"

namespace egi {

// -------------------------------------------------------------------- version

#define EGI_VERSION_STR_INNER(x) #x
#define EGI_VERSION_STR(x) EGI_VERSION_STR_INNER(x)

const char* Version() {
  return EGI_VERSION_STR(EGI_VERSION_MAJOR) "." EGI_VERSION_STR(
      EGI_VERSION_MINOR) "." EGI_VERSION_STR(EGI_VERSION_PATCH);
}

namespace data {

PlantedSeries MakePlanted(Family family, uint64_t seed, int num_normal) {
  Rng rng(seed);
  return datasets::MakePlantedSeries(family, rng, num_normal);
}

LabeledSeries MakeMultiPlanted(Family family, uint64_t seed,
                               int total_instances, int num_anomalies) {
  Rng rng(seed);
  return datasets::MakeMultiPlantedSeries(family, rng, total_instances,
                                          num_anomalies);
}

LabeledSeries MakeFridgeFreezer(size_t length, uint64_t seed,
                                bool plant_anomalies) {
  Rng rng(seed);
  return datasets::MakeFridgeFreezerSeries(length, rng, plant_anomalies);
}

std::vector<double> MakeLongEcg(size_t length, uint64_t seed) {
  Rng rng(seed);
  return datasets::MakeLongEcg(length, rng);
}

}  // namespace data

// --------------------------------------------------------------------- motifs

Result<std::vector<Motif>> DiscoverMotifs(std::span<const double> series,
                                          const MotifOptions& options) {
  core::MotifParams params;
  params.gi.window_length = options.window_length;
  params.gi.paa_size = options.paa_size;
  params.gi.alphabet_size = options.alphabet_size;
  params.top_k = options.top_k;
  params.min_instances = options.min_instances;
  params.min_length_factor = options.min_length_factor;
  return core::DiscoverMotifs(series, params);
}

// ----------------------------------------------------------------- primitives

Result<std::string> SaxWord(std::span<const double> values, int paa_size,
                            int alphabet_size) {
  return sax::SaxWordForSubsequence(values, paa_size, alphabet_size);
}

TokenRuns ReduceNumerosity(std::span<const int32_t> raw) {
  return sax::NumerosityReduce(raw);
}

std::string InducedGrammarText(
    std::span<const int32_t> tokens,
    const std::function<std::string(int32_t)>& render_terminal) {
  return grammar::InduceGrammar(tokens).ToString(render_terminal);
}

std::vector<double> RuleDensityCurve(std::span<const int32_t> tokens,
                                     std::span<const size_t> offsets,
                                     size_t series_length,
                                     size_t window_length) {
  const grammar::Grammar grammar = grammar::InduceGrammar(tokens);
  return grammar::BuildRuleDensityCurve(grammar, offsets, series_length,
                                        window_length);
}

}  // namespace egi

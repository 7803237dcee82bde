#include "core/ensemble.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "core/gi.h"
#include "egi/telemetry.h"
#include "ts/stats.h"
#include "util/check.h"
#include "util/rng.h"

namespace egi::core {

namespace {

// Telemetry handles, resolved once (function-local statics are the cached-
// pointer idiom every instrumentation site in the tree uses; recording is a
// sharded relaxed add and NEVER feeds back into the computed curves).
telemetry::Registry& Telemetry() { return telemetry::Registry::Global(); }

// Screening statistic of one drawn candidate, from the shared
// discretization alone — no grammar induction. Primary rank: the
// repetition factor, numerosity-reduced runs per distinct SAX word. Heavy
// reuse of few words is exactly what lets Sequitur build deep rule
// hierarchies, and the members the std filter keeps are the ones with
// strong rule structure — empirically the repetition factor recovers
// ~85-90% of the final kept set inside a top-60% survivor cut, clearly
// beating per-position count-curve statistics. Secondary rank (tie-break
// before draw order): the population std of the token position-count curve
// on a strided subsample of window positions — the same run-length
// accounting the streaming word-frequency models use. O(tokens + samples)
// per candidate, deterministic (sequential, fixed stride).
struct ScreeningStat {
  double repetition = 0.0;  ///< runs per distinct word
  double curve_std = 0.0;   ///< strided-subsample count-curve std

  bool operator>(const ScreeningStat& o) const {
    if (repetition != o.repetition) return repetition > o.repetition;
    return curve_std > o.curve_std;
  }
};

// counts[t] = sliding-window positions covered by token t: each
// numerosity-reduced token covers the run up to the next token's offset.
void PositionCounts(const sax::DiscretizedSeries& series,
                    std::vector<uint32_t>& counts) {
  const auto& seq = series.seq;
  const size_t num_positions = series.num_positions();
  EGI_CHECK(num_positions <= UINT32_MAX)
      << num_positions << " window positions overflow a 32-bit count";
  counts.assign(series.table.size(), 0);
  for (size_t j = 0; j < seq.size(); ++j) {
    const size_t next = j + 1 < seq.size() ? seq.offsets[j + 1] : num_positions;
    counts[static_cast<size_t>(seq.tokens[j])] +=
        static_cast<uint32_t>(next - seq.offsets[j]);
  }
}

ScreeningStat ScreenCandidate(const sax::DiscretizedSeries& series,
                              std::vector<uint32_t>& counts_scratch,
                              std::vector<double>& sample_scratch) {
  ScreeningStat stat;
  const auto& seq = series.seq;
  const size_t num_positions = series.num_positions();
  if (seq.size() == 0 || num_positions == 0 || series.table.size() == 0) {
    return stat;
  }
  stat.repetition = static_cast<double>(seq.size()) /
                    static_cast<double>(series.table.size());

  PositionCounts(series, counts_scratch);

  constexpr size_t kMaxScreeningSamples = 256;
  const size_t stride = std::max<size_t>(1, num_positions / kMaxScreeningSamples);
  sample_scratch.clear();
  size_t j = 0;
  for (size_t p = 0; p < num_positions; p += stride) {
    while (j + 1 < seq.size() && seq.offsets[j + 1] <= p) ++j;
    const uint32_t count = counts_scratch[static_cast<size_t>(seq.tokens[j])];
    sample_scratch.push_back(static_cast<double>(count));
  }
  stat.curve_std = ts::PopulationStdDev(sample_scratch);
  return stat;
}

// Lines 4-6 of Algorithm 1 for one member: its raw rule density curve.
// The member's token sequence is dead once its induction finished, so the
// discretization is consumed right there — reduced to word counts when
// `counts` is non-null, freed either way — instead of living until every
// member is done.
std::vector<double> InduceMember(sax::DiscretizedSeries& member,
                                 bool boundary_correction,
                                 MemberWordCounts* counts) {
  std::vector<double> curve =
      RunGrammarInductionOnTokens(member, boundary_correction).density;
  sax::DiscretizedSeries done = std::move(member);
  if (counts != nullptr) {
    PositionCounts(done, counts->position_counts);
    for (const uint32_t c : counts->position_counts) {
      counts->max_count = std::max(counts->max_count, static_cast<double>(c));
    }
    counts->table = std::move(done.table);
  }
  return curve;
}

// Lines 1-6 of Algorithm 1, the one construction path behind both entry
// points. Fewer members built than drawn means the screen pruned the draw.
struct InducedMembers {
  std::vector<sax::WaParam> sample;         ///< the full draw
  std::vector<size_t> built;                ///< draws induced, in order
  std::vector<std::vector<double>> curves;  ///< parallel to `built`
};

// Screening pass of the two-stage construction: proxy statistic per
// candidate, then a stable rank (remaining ties by draw order), cut to the
// top `target`. Sequential on purpose — it is cheap and its order is part
// of the deterministic contract.
std::vector<size_t> ScreenCandidates(
    const std::vector<sax::DiscretizedSeries>& discretized, size_t target) {
  static auto* pruned_counter =
      Telemetry().GetCounter("ensemble.members_pruned");
  static auto* screen_hist =
      Telemetry().GetHistogram("ensemble.screen_seconds");
  std::vector<size_t> survivors(discretized.size());
  {
    telemetry::ScopedTimer timer(screen_hist);
    std::vector<ScreeningStat> proxy(discretized.size());
    std::vector<uint32_t> counts_scratch;
    std::vector<double> sample_scratch;
    for (size_t i = 0; i < discretized.size(); ++i) {
      proxy[i] =
          ScreenCandidate(discretized[i], counts_scratch, sample_scratch);
    }
    std::iota(survivors.begin(), survivors.end(), size_t{0});
    std::stable_sort(survivors.begin(), survivors.end(),
                     [&](size_t a, size_t b) { return proxy[a] > proxy[b]; });
    survivors.resize(target);
  }
  pruned_counter->Add(discretized.size() - target);
  Telemetry().journal().Emit(
      "ensemble.pruned", {{"candidates", std::to_string(discretized.size())},
                          {"built", std::to_string(target)}});
  return survivors;
}

// Validates, draws the N (w, a) pairs and encodes them all through one
// shared discretization (Section 6.2). Then it induces every draw or, when
// `allow_pruning` and 0 < prune_to < N, only the screen's top prune_to in
// rank order. `artifacts` stays aligned 1:1 with the draw (screened-out
// entries empty).
Result<InducedMembers> InduceMembers(std::span<const double> series,
                                     const EnsembleParams& params,
                                     bool allow_pruning,
                                     EnsembleArtifacts* artifacts) {
  EGI_RETURN_IF_ERROR(sax::ValidateSeriesValues(series));
  EGI_RETURN_IF_ERROR(ValidateEnsembleParams(series.size(), params));
  InducedMembers out;
  out.sample = DrawParameterSample(params.wmax, params.amax,
                                   params.ensemble_size, params.seed);

  static auto* encode_hist =
      Telemetry().GetHistogram("ensemble.encode_seconds");
  sax::MultiResSaxEncoder encoder(series, params.window_length, params.amax,
                                  params.numerosity_reduction);
  Result<std::vector<sax::DiscretizedSeries>> encoded = [&] {
    telemetry::ScopedTimer timer(encode_hist);
    return encoder.EncodeAll(out.sample);
  }();
  if (!encoded.ok()) return encoded.status();
  auto discretized = std::move(*encoded);

  const size_t target = static_cast<size_t>(params.prune_to);
  if (allow_pruning && target > 0 && target < discretized.size()) {
    out.built = ScreenCandidates(discretized, target);
  } else {
    out.built.resize(discretized.size());
    std::iota(out.built.begin(), out.built.end(), size_t{0});
  }

  // The inductions are independent; each writes only its own slot, so the
  // parallel result is bitwise-identical to the serial one. Each member's
  // induction leases a warm Sequitur builder from the process-wide scratch
  // pool (grammar/sequitur.h): the pool's high-water mark is the executing
  // concurrency, so across runs — batch calls, every streaming refit, every
  // stream in a hub — the same few arenas and digram tables serve all
  // grammar inductions allocation-free. Builder reuse is bitwise-output-
  // equivalent to a fresh builder (tested).
  static auto* induction_hist =
      Telemetry().GetHistogram("ensemble.induction_seconds");
  static auto* members_built = Telemetry().GetCounter("ensemble.members_built");
  members_built->Add(out.built.size());
  out.curves.resize(out.built.size());
  if (artifacts != nullptr) {
    artifacts->word_counts = std::vector<MemberWordCounts>(discretized.size());
  }
  {
    telemetry::ScopedTimer timer(induction_hist);
    exec::ParallelFor(
        params.parallelism, 0, out.built.size(), /*grain=*/1, [&](size_t i) {
          const size_t m = out.built[i];
          out.curves[i] = InduceMember(
              discretized[m], params.boundary_correction,
              artifacts != nullptr ? &artifacts->word_counts[m] : nullptr);
        });
  }
  return out;
}

}  // namespace

Status ValidateEnsembleParams(size_t series_length,
                              const EnsembleParams& params) {
  if (params.window_length < 2 || params.window_length > series_length) {
    return Status::InvalidArgument(
        "window length " + std::to_string(params.window_length) +
        " invalid for series of length " + std::to_string(series_length));
  }
  if (params.wmax < 2 || params.amax < 2) {
    return Status::InvalidArgument("wmax and amax must be >= 2");
  }
  if (params.amax > sax::kMaxAlphabetSize) {
    return Status::InvalidArgument("amax exceeds maximum alphabet size");
  }
  // The widest drawable combination must pack into a 128-bit word code;
  // otherwise whether a run fails would depend on which (w, a) pairs the
  // seed happens to draw. Rejecting the whole grid keeps validation
  // draw-independent (every paper configuration — w, a <= 20 — fits).
  if (!sax::WordCodec::Supported(params.wmax, params.amax)) {
    return Status::InvalidArgument(
        "(wmax=" + std::to_string(params.wmax) +
        ", amax=" + std::to_string(params.amax) +
        ") admits draws whose SAX words exceed the 128-bit packed code");
  }
  if (static_cast<size_t>(params.wmax) > params.window_length) {
    return Status::InvalidArgument("wmax must not exceed the window length");
  }
  if (params.ensemble_size < 1) {
    return Status::InvalidArgument("ensemble size must be >= 1");
  }
  if (params.selectivity <= 0.0 || params.selectivity > 1.0) {
    return Status::InvalidArgument("selectivity must be in (0, 1]");
  }
  if (params.prune_to < 0) {
    return Status::InvalidArgument("prune_to must be >= 0");
  }
  if (params.parallelism.threads < 1) {
    return Status::InvalidArgument("parallelism.threads must be >= 1");
  }
  return Status::OK();
}

std::vector<sax::WaParam> DrawParameterSample(int wmax, int amax, int count,
                                              uint64_t seed) {
  EGI_CHECK(wmax >= 2 && amax >= 2 && count >= 1);
  std::vector<sax::WaParam> grid;
  grid.reserve(static_cast<size_t>(wmax - 1) * static_cast<size_t>(amax - 1));
  for (int w = 2; w <= wmax; ++w) {
    for (int a = 2; a <= amax; ++a) grid.push_back(sax::WaParam{w, a});
  }
  Rng rng(seed);
  if (static_cast<size_t>(count) >= grid.size()) {
    // The whole grid in random order. Shuffle in place with the same
    // forward Fisher-Yates walk (and so the same RNG consumption) as
    // SampleWithoutReplacement over the full index range — identical
    // draws, without the n-sized index vector and the copied sample.
    for (size_t i = 0; i < grid.size(); ++i) {
      const size_t j = static_cast<size_t>(rng.UniformInt(
          static_cast<int64_t>(i), static_cast<int64_t>(grid.size()) - 1));
      std::swap(grid[i], grid[j]);
    }
    return grid;
  }
  const auto picks =
      rng.SampleWithoutReplacement(grid.size(), static_cast<size_t>(count));
  std::vector<sax::WaParam> sample;
  sample.reserve(picks.size());
  for (size_t idx : picks) sample.push_back(grid[idx]);
  return sample;
}

std::vector<double> CombineMemberCurves(
    std::span<const std::vector<double>> curves, const CombineSpec& spec,
    std::vector<double>* member_stats, std::vector<bool>* kept) {
  EGI_CHECK(!curves.empty()) << "no member curves";
  const size_t len = curves[0].size();
  for (const auto& c : curves)
    EGI_CHECK(c.size() == len) << "member curves of unequal length";

  // Quality statistic per curve (Lines 7-9 of Algorithm 1).
  std::vector<double> stds(curves.size());
  for (size_t i = 0; i < curves.size(); ++i)
    stds[i] = ts::PopulationStdDev(curves[i]);
  if (member_stats != nullptr) *member_stats = stds;

  // Rank by std descending; ties broken by draw order for determinism.
  // Already-ranked inputs (the pruning screen orders its survivors) keep
  // their order and skip the sort.
  std::vector<size_t> order(curves.size());
  std::iota(order.begin(), order.end(), size_t{0});
  if (!spec.already_ranked) {
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return stds[a] > stds[b]; });
  }

  const size_t population =
      spec.rank_population > 0 ? spec.rank_population : curves.size();
  size_t keep_count = curves.size();
  if (spec.filter_by_std) {
    keep_count = static_cast<size_t>(
        std::lround(spec.selectivity * static_cast<double>(population)));
    keep_count = std::clamp<size_t>(keep_count, 1, curves.size());
  }
  if (kept != nullptr) {
    kept->assign(curves.size(), false);
    for (size_t i = 0; i < keep_count; ++i) (*kept)[order[i]] = true;
  }

  // Normalize each kept curve (Line 11). With kNone the sources are
  // combined as-is through row pointers — no working copy is made.
  std::vector<std::vector<double>> normed;
  std::vector<const double*> rows(keep_count);
  if (spec.normalize == NormalizeMode::kNone) {
    for (size_t i = 0; i < keep_count; ++i) rows[i] = curves[order[i]].data();
  } else {
    normed.reserve(keep_count);
    for (size_t i = 0; i < keep_count; ++i) {
      const auto& src = curves[order[i]];
      std::vector<double> c(src);
      switch (spec.normalize) {
        case NormalizeMode::kMaxPreservingZeros: {
          const double mx = *std::max_element(c.begin(), c.end());
          if (mx > 0.0) {
            for (double& v : c) v /= mx;
          }
          break;
        }
        case NormalizeMode::kMinMax: {
          const auto mm = ts::FindMinMax(c);
          const double range = mm.max - mm.min;
          if (range > 0.0) {
            for (double& v : c) v = (v - mm.min) / range;
          } else {
            std::fill(c.begin(), c.end(), 0.0);
          }
          break;
        }
        case NormalizeMode::kNone:
          break;
      }
      normed.push_back(std::move(c));
      rows[i] = normed.back().data();
    }
  }

  // Combine point-wise (Line 14). The mean accumulates straight into the
  // compensated sum (same add order as ts::Mean, so bitwise-identical); the
  // median fills one reused scratch column and selects in place.
  std::vector<double> ensemble(len, 0.0);
  std::vector<double> column(keep_count);
  for (size_t t = 0; t < len; ++t) {
    if (spec.combine == CombineRule::kMean) {
      double sum = 0.0, comp = 0.0;
      for (size_t i = 0; i < keep_count; ++i) {
        ts::CompensatedAdd(sum, comp, rows[i][t]);
      }
      ensemble[t] = (sum + comp) / static_cast<double>(keep_count);
      continue;
    }
    for (size_t i = 0; i < keep_count; ++i) column[i] = rows[i][t];
    ensemble[t] = ts::MedianInPlace(column);
  }
  return ensemble;
}

Result<std::vector<std::vector<double>>> ComputeMemberDensityCurves(
    std::span<const double> series, const EnsembleParams& params,
    std::vector<sax::WaParam>* out_sample, EnsembleArtifacts* artifacts) {
  EGI_ASSIGN_OR_RETURN(auto members,
                       InduceMembers(series, params, /*allow_pruning=*/false,
                                     artifacts));
  if (out_sample != nullptr) *out_sample = std::move(members.sample);
  return std::move(members.curves);
}

Result<EnsembleResult> ComputeEnsembleDensity(std::span<const double> series,
                                              const EnsembleParams& params,
                                              EnsembleArtifacts* artifacts) {
  static auto* runs = Telemetry().GetCounter("ensemble.runs");
  static auto* kept_counter = Telemetry().GetCounter("ensemble.members_kept");
  static auto* compute_hist =
      Telemetry().GetHistogram("ensemble.compute_seconds");
  static auto* combine_hist =
      Telemetry().GetHistogram("ensemble.combine_seconds");
  telemetry::ScopedTimer compute_timer(compute_hist);
  runs->Add(1);

  EGI_ASSIGN_OR_RETURN(auto members,
                       InduceMembers(series, params, /*allow_pruning=*/true,
                                     artifacts));
  const size_t population = members.sample.size();
  const bool pruned = members.built.size() < population;

  CombineSpec spec;
  spec.selectivity = params.selectivity;
  spec.combine = params.combine;
  spec.normalize = params.normalize;
  spec.filter_by_std = params.filter_by_std;
  // The std filter keeps round(tau * N) curves, ranked by real (post-
  // induction) curve std over the members built — on a pruned run, the
  // full path restricted to the survivor set, so complete screening
  // coverage implies a bitwise-identical ensemble curve. The already-ranked
  // fast path (screening order, no second sort) is exact only when every
  // survivor is kept.
  const size_t keep_count = static_cast<size_t>(
      std::lround(params.selectivity * static_cast<double>(population)));
  spec.already_ranked = pruned && (!params.filter_by_std ||
                                   keep_count >= members.built.size());
  spec.rank_population = population;
  std::vector<double> stds;
  std::vector<bool> kept;
  EnsembleResult out;
  {
    telemetry::ScopedTimer combine_timer(combine_hist);
    out.density = CombineMemberCurves(members.curves, spec, &stds, &kept);
  }
  // Members the screen dropped report std_dev 0 and kept == false.
  out.members.reserve(population);
  for (const auto& draw : members.sample) {
    out.members.push_back(EnsembleMember{draw.paa_size, draw.alphabet_size});
  }
  size_t kept_count = 0;
  for (size_t i = 0; i < members.built.size(); ++i) {
    out.members[members.built[i]].std_dev = stds[i];
    out.members[members.built[i]].kept = kept[i];
    kept_count += kept[i] ? 1 : 0;
  }
  kept_counter->Add(kept_count);
  return out;
}

}  // namespace egi::core

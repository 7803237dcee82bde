#include "stream/detector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "egi/telemetry.h"
#include "sax/breakpoints.h"
#include "sax/fast_paa.h"
#include "sax/simd/kernels.h"
#include "ts/stats.h"
#include "util/check.h"

namespace egi::stream {

namespace {

telemetry::Registry& Telemetry() { return telemetry::Registry::Global(); }

// Absolute slack added to the drift band so constant-score streams (baseline
// std exactly 0) do not re-trigger on sub-ulp mean wobble.
constexpr double kDriftBandEpsilon = 1e-9;

// paa_row_of_w_ entry of a w no kept member has used yet at this point.
constexpr size_t kNoRow = std::numeric_limits<size_t>::max();

// Bound on buffer_capacity for opened and restored detectors alike: the
// constructor pre-allocates two rings of `capacity` doubles, so an absurd
// capacity (a forged snapshot, a negative flag cast to size_t) must be a
// Status error, not a bad_alloc or length_error. 2^26 points (~1 GiB of
// rings) is far beyond any practical config — a refit batch-runs
// Algorithm 1 over the whole buffer.
constexpr size_t kMaxBufferCapacity = size_t{1} << 26;

}  // namespace

Status StreamDetector::ValidateOptions(const StreamDetectorOptions& options) {
  if (options.refit_interval < 1) {
    return Status::InvalidArgument("refit_interval must be >= 1");
  }
  if (options.buffer_capacity < options.ensemble.window_length) {
    return Status::InvalidArgument(
        "buffer_capacity smaller than the window length");
  }
  if (options.buffer_capacity > kMaxBufferCapacity) {
    return Status::InvalidArgument(
        "buffer_capacity " + std::to_string(options.buffer_capacity) +
        " exceeds the open and restore limit of " +
        std::to_string(kMaxBufferCapacity) + " points");
  }
  if (options.refit_policy != RefitPolicy::kFixed &&
      options.refit_policy != RefitPolicy::kAdaptive) {
    return Status::InvalidArgument("unknown refit policy");
  }
  if (options.refit_interval_max != 0 &&
      options.refit_interval_max < options.refit_interval) {
    return Status::InvalidArgument(
        "refit_interval_max must be 0 (auto) or >= refit_interval");
  }
  if (options.refit_policy == RefitPolicy::kAdaptive &&
      (!std::isfinite(options.drift_tolerance) ||
       options.drift_tolerance <= 0.0)) {
    return Status::InvalidArgument(
        "drift_tolerance must be a finite value > 0 under the adaptive "
        "refit policy");
  }
  // The buffered window is the longest series a refit will ever see; if the
  // ensemble parameters are invalid for it they are invalid for every
  // prefix, so fail fast here instead of at the first refit.
  return core::ValidateEnsembleParams(options.buffer_capacity,
                                      options.ensemble);
}

StreamDetector::StreamDetector(StreamDetectorOptions options)
    : options_(options),
      points_(options.buffer_capacity),
      scores_(options.buffer_capacity),
      effective_interval_(options.refit_interval) {
  const Status st = ValidateOptions(options_);
  EGI_CHECK(st.ok()) << "invalid streaming options: " << st.ToString();
  paa_row_of_w_.resize(static_cast<size_t>(options_.ensemble.wmax) + 1);
}

StreamPoint StreamDetector::Append(double value) {
  // Per-point telemetry is counters only — sharded relaxed adds, never a
  // clock read (the <2% enabled-overhead budget on ingest; latency is
  // measured at batch granularity by Ingest below).
  static auto* points = Telemetry().GetCounter("stream.points");
  static auto* rejected = Telemetry().GetCounter("stream.points_rejected");
  static auto* evicted = Telemetry().GetCounter("stream.points_evicted");
  static auto* provisional = Telemetry().GetCounter("stream.scores_provisional");
  static auto* refit_scored = Telemetry().GetCounter("stream.scores_refit");
  points->Add(1);

  StreamPoint pt;
  pt.index = appended_;
  pt.value = value;
  ++appended_;
  if (!std::isfinite(value)) {  // rejected: not buffered, unscored
    rejected->Add(1);
    return pt;
  }

  const size_t n = window_length();
  const bool was_full = points_.full();
  if (was_full) evicted->Add(1);
  // Retire the value leaving the trailing window before the push shifts
  // logical indices. It is still buffered here because capacity >= n.
  if (points_.size() >= n) window_stats_.Remove(points_[points_.size() - n]);
  points_.PushBack(value);
  window_stats_.Add(value);
  ++buffered_total_;
  if (!was_full && points_.full()) {
    // The ring just reached capacity: from here on every append evicts the
    // oldest point. Once per stream lifetime, so it goes to the journal.
    Telemetry().journal().Emit(
        "stream.ring_wrapped",
        {{"capacity", std::to_string(points_.capacity())},
         {"appended", std::to_string(appended_)}});
  }
  ++since_refit_;

  // Incremental path: score the one new sliding window against the model
  // fitted at the last refit.
  double score = std::numeric_limits<double>::quiet_NaN();
  if (fitted() && points_.size() >= n) {
    score = ProvisionalScore();
    pt.score = score;
    pt.scored = true;
    pt.provisional = true;
    provisional->Add(1);
  }
  scores_.PushBack(score);

  // Drift tracking (adaptive policy): every provisional score produced
  // since the last refit feeds the rolling stats the gate below reads.
  if (options_.refit_policy == RefitPolicy::kAdaptive && pt.provisional) {
    drift_stats_.Add(score);
  }

  // Amortized refit: replace the whole curve with the batch result. Under
  // kFixed a refit is due every refit_interval appends; under kAdaptive the
  // drift gate decides — once a first model exists to drift from.
  bool due = since_refit_ >= options_.refit_interval;
  if (due && options_.refit_policy == RefitPolicy::kAdaptive && fitted()) {
    due = AdaptiveRefitDue();
  }
  if (due && points_.size() >= n) {
    if (RefitNow().ok()) {
      pt.score = scores_.back();  // exact batch density for this point
      pt.scored = true;
      pt.provisional = false;
      pt.refit = true;
      refit_scored->Add(1);
    }
  }
  return pt;
}

std::vector<StreamPoint> StreamDetector::Ingest(
    std::span<const double> values) {
  // One clock pair per batch, amortized over the whole span.
  static auto* batch_hist =
      Telemetry().GetHistogram("stream.ingest_batch_seconds");
  telemetry::ScopedTimer timer(batch_hist);
  std::vector<StreamPoint> out;
  out.reserve(values.size());
  for (const double v : values) out.push_back(Append(v));
  return out;
}

Status StreamDetector::ForceRefit() { return RefitNow(); }

bool StreamDetector::AdaptiveRefitDue() {
  static auto* skipped = Telemetry().GetCounter("stream.refits_skipped");
  static auto* triggers = Telemetry().GetCounter("stream.drift_triggers");

  // Drift is judged block by block: drift_stats_ holds the provisional
  // scores of the current refit_interval-sized block and is consumed when
  // the block completes. The first completed block after a refit is the
  // baseline; every later block's mean is held to a tolerance band around
  // the baseline mean. Comparing block means — not the cumulative mean
  // since the refit — keeps a late regime change from being diluted by a
  // long calm prefix inside a stretched interval. Once fitted, every
  // buffered append scores provisionally, so blocks complete exactly at
  // since_refit_ multiples of the interval.
  if (drift_stats_.count() < options_.refit_interval) {
    // Mid-block: nothing to judge at this append. The count-0 case is a
    // safety net (a fitted detector produces a provisional score per
    // buffered append, so it is unreachable today): fixed cadence.
    return drift_stats_.count() == 0;
  }

  const double block_mean = drift_stats_.Mean();
  const double block_std = drift_stats_.SampleStdDev();
  drift_stats_.Reset();
  if (!drift_base_set_) {
    drift_base_mean_ = block_mean;
    drift_base_std_ = block_std;
    drift_base_set_ = true;
  } else {
    // Out-of-band block mean: the fitted model no longer describes the
    // stream — refit at this append and drop back to the cadence floor.
    const double deviation = std::abs(block_mean - drift_base_mean_);
    const double band =
        options_.drift_tolerance * drift_base_std_ + kDriftBandEpsilon;
    if (deviation > band) {
      triggers->Add(1);
      effective_interval_ = options_.refit_interval;
      Telemetry().journal().Emit(
          "stream.drift_trigger",
          {{"since_refit", std::to_string(since_refit_)},
           {"block_mean", std::to_string(block_mean)},
           {"base_mean", std::to_string(drift_base_mean_)}});
      return true;
    }
  }

  // In band: refit only when the stretched interval elapses at its ceiling;
  // until then keep doubling it and let the provisional path carry on.
  if (since_refit_ >= effective_interval_) {
    const uint64_t max_interval = EffectiveIntervalMax();
    if (effective_interval_ >= max_interval) return true;
    effective_interval_ = std::min(effective_interval_ * 2, max_interval);
    Telemetry().journal().Emit(
        "stream.refit_stretched",
        {{"effective_interval", std::to_string(effective_interval_)},
         {"since_refit", std::to_string(since_refit_)}});
  }
  skipped->Add(1);
  return false;
}

Status StreamDetector::RefitNow() {
  static auto* refits = Telemetry().GetCounter("stream.refits");
  static auto* failures = Telemetry().GetCounter("stream.refit_failures");
  static auto* refit_hist = Telemetry().GetHistogram("stream.refit_seconds");
  telemetry::ScopedTimer refit_timer(refit_hist);
  if (points_.size() < window_length()) {
    failures->Add(1);
    last_refit_status_ = Status::FailedPrecondition(
        "refit needs at least one full window buffered");
    return last_refit_status_;
  }
  Telemetry().journal().Emit(
      "refit.started", {{"buffered", std::to_string(points_.size())},
                        {"appended", std::to_string(appended_)}});
  const std::vector<double> snapshot = points_.Snapshot();

  // The replay-equivalence contract: this is literally the batch Algorithm 1
  // on the buffered window, so ScoresSnapshot() right after a refit is
  // bitwise-identical to ComputeEnsembleDensity(BufferSnapshot(), ensemble).
  // The artifacts hand back each member's word counts, built from the
  // run's own discretizations, so the word models below need no second
  // encode pass and no walk over the token sequences.
  core::EnsembleArtifacts artifacts;
  auto result =
      core::ComputeEnsembleDensity(snapshot, options_.ensemble, &artifacts);
  if (!result.ok()) {
    failures->Add(1);
    Telemetry().journal().Emit("refit.failed",
                               {{"status", result.status().ToString()}});
    last_refit_status_ = result.status();
    return last_refit_status_;
  }
  last_ensemble_ = std::move(*result);
  scores_.Assign(last_ensemble_.density);

  // Adopt the kept members' word counts as the models the incremental path
  // scores against. Only kept members contribute to the ensemble curve, so
  // only they are modelled; counts are in sliding-window positions (each
  // numerosity-reduced token covers a run of identically-encoded positions).
  // The refit's token table is sized for the member's run count; the model
  // keeps it compacted to its vocabulary (same ids, far fewer slots).
  models_.clear();
  for (size_t m = 0; m < last_ensemble_.members.size(); ++m) {
    if (!last_ensemble_.members[m].kept) continue;
    core::MemberWordCounts& counts = artifacts.word_counts[m];
    counts.table = counts.table.Compacted();
    models_.push_back(std::move(counts));
  }

  since_refit_ = 0;
  ++refits_;
  refits->Add(1);
  // A fresh model invalidates the drift baseline (inert under kFixed, where
  // the drift state never leaves its defaults). The stretched interval
  // persists across calm refits — only a drift trigger resets it.
  drift_stats_.Reset();
  drift_base_set_ = false;
  drift_base_mean_ = 0.0;
  drift_base_std_ = 0.0;
  Telemetry().journal().Emit(
      "refit.adopted", {{"members_kept", std::to_string(models_.size())},
                        {"buffered", std::to_string(points_.size())}});
  last_refit_status_ = Status::OK();
  return last_refit_status_;
}

double StreamDetector::ProvisionalScore() {
  const size_t n = window_length();
  scratch_window_.resize(n);
  points_.CopyLast(n, scratch_window_);

  // The newest window is the whole series here: prefix sums over it alone
  // and the batch PAA kernel at position 0 give bit for bit the
  // coefficients DiscretizeSeries computes for that window on its own. As
  // in EncodeAll, each distinct w is averaged once: the first kept member
  // of a w fills its row of paa_coeffs_ and later ones reuse it.
  window_prefix_.Assign(scratch_window_);
  const sax::FastPaa fast_paa(&window_prefix_);
  std::fill(paa_row_of_w_.begin(), paa_row_of_w_.end(), kNoRow);
  size_t rows_end = 0;

  member_scores_.clear();
  for (const core::MemberWordCounts& model : models_) {
    const sax::WordCodec& codec = model.table.codec();
    const int w = codec.word_length();
    const auto uw = static_cast<size_t>(w);
    size_t& row = paa_row_of_w_[uw];
    if (row == kNoRow) {
      row = rows_end;
      rows_end += uw;
      if (paa_coeffs_.size() < rows_end) paa_coeffs_.resize(rows_end);
      fast_paa.ComputeBlock(0, 1, n, w, {paa_coeffs_.data() + row, uw});
    }
    // The member's word: its w coefficients resolved against its
    // alphabet's breakpoints in one batched kernel call (same upper_bound
    // semantics as the merged axis EncodeAll uses, symbol for symbol —
    // tested incl. NaN/±inf and values exactly on a breakpoint), packed
    // into a code.
    const std::span<const double> breakpoints =
        sax::GaussianBreakpoints(codec.alphabet_size());
    symbol_scratch_.resize(uw);
    sax::simd::ActiveKernels().intervals(paa_coeffs_.data() + row, uw,
                                         breakpoints.data(), breakpoints.size(),
                                         symbol_scratch_.data());
    sax::WordCode code;
    for (size_t i = 0; i < uw; ++i) {
      codec.AppendSymbol(code, static_cast<int>(symbol_scratch_[i]));
    }
    double s = 0.0;
    if (model.max_count > 0.0) {
      const int32_t id = model.table.Find(code);
      if (id >= 0) {
        const uint32_t count = model.position_counts[static_cast<size_t>(id)];
        s = static_cast<double>(count) / model.max_count;
      }
    }
    member_scores_.push_back(s);
  }
  if (member_scores_.empty()) return 0.0;
  if (options_.ensemble.combine != core::CombineRule::kMedian) {
    return ts::Mean(member_scores_);
  }
  return ts::MedianInPlace(member_scores_);  // no per-point allocation
}

}  // namespace egi::stream

// Snapshot/restore of StreamDetector state (DESIGN.md "Snapshot format").
//
// The payload is written field-for-field from the live state and restored
// verbatim — nothing numeric is recomputed on load. That is what makes a
// restored detector continue bitwise-identically to the uninterrupted
// original: the compensated rolling sums, the NaN markers in the score
// ring, the interning order of every adopted TokenTable, and the refit
// counters all survive exactly.
//
// The decode side trusts nothing: ByteReader bounds-checks every read, the
// envelope checksum catches bit flips, and RestorePayload re-validates the
// cross-field invariants a live detector maintains (sizes that must agree,
// counters that must be ordered, models that must match the kept members).

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "egi/telemetry.h"
#include "serialize/codecs.h"
#include "serialize/format.h"
#include "stream/detector.h"
#include "ts/stats.h"

namespace egi::stream {

namespace {

using serialize::ByteReader;
using serialize::ByteWriter;

void WriteOptions(ByteWriter& w, const StreamDetectorOptions& o) {
  const core::EnsembleParams& e = o.ensemble;
  w.PutVarint(e.window_length);
  w.PutVarint(static_cast<uint64_t>(e.wmax));
  w.PutVarint(static_cast<uint64_t>(e.amax));
  w.PutVarint(static_cast<uint64_t>(e.ensemble_size));
  w.PutDouble(e.selectivity);
  w.PutU64(e.seed);
  // The flat-window threshold is a library constant; its slot keeps the
  // byte layout of blobs written while it was an option.
  w.PutDouble(ts::kNormThreshold);
  w.PutBool(e.numerosity_reduction);
  // Likewise the thread-count slot holds 1: scores do not depend on it.
  w.PutVarint(1);
  w.PutU8(static_cast<uint8_t>(e.combine));
  w.PutU8(static_cast<uint8_t>(e.normalize));
  w.PutBool(e.filter_by_std);
  w.PutBool(e.boundary_correction);
  w.PutVarint(o.buffer_capacity);
  w.PutVarint(o.refit_interval);
  // v2 additions (adaptive ensembles & refit policy).
  w.PutVarint(static_cast<uint64_t>(e.prune_to));
  w.PutU8(static_cast<uint8_t>(o.refit_policy));
  w.PutVarint(o.refit_interval_max);
  w.PutDouble(o.drift_tolerance);
}

Status ReadVarintInt(ByteReader& r, int* out, const char* what) {
  uint64_t v = 0;
  EGI_RETURN_IF_ERROR(r.ReadVarint(&v));
  if (v > static_cast<uint64_t>(1) << 30) {
    return Status::InvalidArgument(std::string(what) + " out of range");
  }
  *out = static_cast<int>(v);
  return Status::OK();
}

Status ReadVarintSize(ByteReader& r, size_t* out, const char* what) {
  uint64_t v = 0;
  EGI_RETURN_IF_ERROR(r.ReadVarint(&v));
  // Generous structural bound: no snapshot field legitimately reaches 2^48
  // (counters included — that is ~8900 years of appends at 1M points/sec).
  if (v > static_cast<uint64_t>(1) << 48) {
    return Status::InvalidArgument(std::string(what) + " out of range");
  }
  *out = static_cast<size_t>(v);
  return Status::OK();
}

Status ReadOptions(ByteReader& r, uint32_t version,
                   StreamDetectorOptions* out) {
  StreamDetectorOptions o;
  core::EnsembleParams& e = o.ensemble;
  EGI_RETURN_IF_ERROR(ReadVarintSize(r, &e.window_length, "window_length"));
  EGI_RETURN_IF_ERROR(ReadVarintInt(r, &e.wmax, "wmax"));
  EGI_RETURN_IF_ERROR(ReadVarintInt(r, &e.amax, "amax"));
  EGI_RETURN_IF_ERROR(ReadVarintInt(r, &e.ensemble_size, "ensemble_size"));
  EGI_RETURN_IF_ERROR(r.ReadFiniteDouble(&e.selectivity));
  EGI_RETURN_IF_ERROR(r.ReadU64(&e.seed));
  double norm_threshold = 0.0;
  EGI_RETURN_IF_ERROR(r.ReadFiniteDouble(&norm_threshold));
  if (norm_threshold != ts::kNormThreshold) {
    return Status::InvalidArgument(
        "norm_threshold differs from the fixed flat-window threshold (0.01)");
  }
  EGI_RETURN_IF_ERROR(r.ReadBool(&e.numerosity_reduction));
  int threads = 1;  // bounds-checked, then ignored: restores run at FromEnv()
  EGI_RETURN_IF_ERROR(ReadVarintInt(r, &threads, "parallelism.threads"));
  uint8_t combine = 0;
  EGI_RETURN_IF_ERROR(r.ReadU8(&combine));
  if (combine > static_cast<uint8_t>(core::CombineRule::kMean)) {
    return Status::InvalidArgument("unknown combine rule");
  }
  e.combine = static_cast<core::CombineRule>(combine);
  uint8_t normalize = 0;
  EGI_RETURN_IF_ERROR(r.ReadU8(&normalize));
  if (normalize > static_cast<uint8_t>(core::NormalizeMode::kNone)) {
    return Status::InvalidArgument("unknown normalize mode");
  }
  e.normalize = static_cast<core::NormalizeMode>(normalize);
  EGI_RETURN_IF_ERROR(r.ReadBool(&e.filter_by_std));
  EGI_RETURN_IF_ERROR(r.ReadBool(&e.boundary_correction));
  EGI_RETURN_IF_ERROR(ReadVarintSize(r, &o.buffer_capacity, "buffer_capacity"));
  EGI_RETURN_IF_ERROR(ReadVarintSize(r, &o.refit_interval, "refit_interval"));
  if (version >= 2) {
    EGI_RETURN_IF_ERROR(ReadVarintInt(r, &e.prune_to, "prune_to"));
    uint8_t policy = 0;
    EGI_RETURN_IF_ERROR(r.ReadU8(&policy));
    if (policy > static_cast<uint8_t>(RefitPolicy::kAdaptive)) {
      return Status::InvalidArgument("unknown refit policy");
    }
    o.refit_policy = static_cast<RefitPolicy>(policy);
    EGI_RETURN_IF_ERROR(
        ReadVarintSize(r, &o.refit_interval_max, "refit_interval_max"));
    EGI_RETURN_IF_ERROR(r.ReadFiniteDouble(&o.drift_tolerance));
  }
  // v1 blobs predate the adaptive knobs; the defaults (no pruning, fixed
  // cadence) reproduce exactly the behavior that wrote them.
  *out = o;
  return Status::OK();
}

}  // namespace

void StreamDetector::WritePayload(ByteWriter& w) const {
  // Counters.
  w.PutVarint(appended_);
  w.PutVarint(since_refit_);
  w.PutVarint(refits_);
  serialize::WriteStatus(w, last_refit_status_);

  // Ingest state: buffered points, rolling accumulators, buffered count.
  serialize::WriteDoubles(w, points_.Snapshot());
  serialize::WriteRollingStats(w, window_stats_);
  w.PutVarint(buffered_total_);

  // Score ring (NaN marks "never scored" — the bit pattern survives).
  serialize::WriteDoubles(w, scores_.Snapshot());

  // Last ensemble result (accessor fidelity; continuation itself only needs
  // the models below, but restored introspection must match the original).
  serialize::WriteDoubles(w, last_ensemble_.density);
  w.PutVarint(last_ensemble_.members.size());
  for (const core::EnsembleMember& m : last_ensemble_.members) {
    w.PutVarint(static_cast<uint64_t>(m.paa_size));
    w.PutVarint(static_cast<uint64_t>(m.alphabet_size));
    w.PutDouble(m.std_dev);
    w.PutBool(m.kept);
  }

  // Per-member word counts, kept-member draw order; the (w, a) layout
  // travels inside each adopted TokenTable's codec. Each 32-bit count is
  // written as a double, the layout of blobs written before counts were
  // kept in 32 bits.
  w.PutVarint(models_.size());
  for (const core::MemberWordCounts& model : models_) {
    serialize::WriteTokenTable(w, model.table);
    w.PutVarint(model.position_counts.size());
    for (const uint32_t c : model.position_counts) w.PutDouble(c);
    w.PutDouble(model.max_count);
  }

  // v2: adaptive-cadence runtime state. Written unconditionally (the
  // defaults are inert under kFixed); restored verbatim so a restored
  // adaptive detector keeps its stretched interval and drift baseline.
  w.PutVarint(effective_interval_);
  w.PutBool(drift_base_set_);
  w.PutDouble(drift_base_mean_);
  w.PutDouble(drift_base_std_);
  serialize::WriteRollingStats(w, drift_stats_);
}

Status StreamDetector::RestorePayload(ByteReader& r, uint32_t version) {
  size_t counter = 0;
  EGI_RETURN_IF_ERROR(ReadVarintSize(r, &counter, "appended"));
  appended_ = counter;
  EGI_RETURN_IF_ERROR(ReadVarintSize(r, &counter, "since_refit"));
  since_refit_ = counter;
  EGI_RETURN_IF_ERROR(ReadVarintSize(r, &counter, "refits"));
  refits_ = counter;
  EGI_RETURN_IF_ERROR(serialize::ReadStatus(r, &last_refit_status_));

  std::vector<double> buffered;
  EGI_RETURN_IF_ERROR(serialize::ReadDoubles(r, &buffered, /*allow_nan=*/false));
  if (buffered.size() > options_.buffer_capacity) {
    return Status::InvalidArgument("buffered points exceed capacity");
  }
  EGI_RETURN_IF_ERROR(serialize::ReadRollingStats(r, &window_stats_));
  if (window_stats_.count() != std::min(buffered.size(), window_length())) {
    return Status::InvalidArgument(
        "rolling-stats count disagrees with the buffered window");
  }
  EGI_RETURN_IF_ERROR(ReadVarintSize(r, &counter, "window total_appended"));
  buffered_total_ = counter;
  if (buffered_total_ < buffered.size() || buffered_total_ > appended_) {
    return Status::InvalidArgument("append counters are inconsistent");
  }
  points_.Clear();
  for (const double v : buffered) points_.PushBack(v);

  std::vector<double> scores;
  EGI_RETURN_IF_ERROR(serialize::ReadDoubles(r, &scores, /*allow_nan=*/true));
  if (scores.size() != buffered.size()) {
    return Status::InvalidArgument("score ring disagrees with the buffer");
  }
  scores_.Clear();
  for (const double s : scores) scores_.PushBack(s);

  EGI_RETURN_IF_ERROR(serialize::ReadDoubles(r, &last_ensemble_.density,
                                             /*allow_nan=*/false));
  size_t member_count = 0;
  EGI_RETURN_IF_ERROR(r.ReadLength(&member_count, /*min_bytes_per_element=*/4));
  if (member_count > static_cast<size_t>(options_.ensemble.ensemble_size)) {
    return Status::InvalidArgument("more members than the ensemble size");
  }
  last_ensemble_.members.clear();
  last_ensemble_.members.reserve(member_count);
  size_t kept_count = 0;
  for (size_t i = 0; i < member_count; ++i) {
    core::EnsembleMember m;
    EGI_RETURN_IF_ERROR(ReadVarintInt(r, &m.paa_size, "member paa_size"));
    EGI_RETURN_IF_ERROR(ReadVarintInt(r, &m.alphabet_size, "member alphabet"));
    if (m.paa_size < 2 || m.paa_size > options_.ensemble.wmax ||
        m.alphabet_size < 2 || m.alphabet_size > options_.ensemble.amax) {
      return Status::InvalidArgument("member (w, a) outside the drawn grid");
    }
    EGI_RETURN_IF_ERROR(r.ReadFiniteDouble(&m.std_dev));
    EGI_RETURN_IF_ERROR(r.ReadBool(&m.kept));
    kept_count += m.kept ? 1 : 0;
    last_ensemble_.members.push_back(m);
  }

  size_t model_count = 0;
  EGI_RETURN_IF_ERROR(r.ReadLength(&model_count, /*min_bytes_per_element=*/4));
  if (model_count != kept_count) {
    return Status::InvalidArgument(
        "model count disagrees with the kept members");
  }
  if (refits_ == 0 &&
      (model_count != 0 || member_count != 0 || !last_ensemble_.density.empty())) {
    return Status::InvalidArgument("fitted state with a zero refit count");
  }
  models_.clear();
  models_.reserve(model_count);
  size_t kept_index = 0;
  for (size_t i = 0; i < model_count; ++i) {
    core::MemberWordCounts model;
    EGI_RETURN_IF_ERROR(serialize::ReadTokenTable(r, &model.table));
    // Model i belongs to the i-th kept member, in draw order; its table
    // layout must be that member's (w, a).
    while (kept_index < last_ensemble_.members.size() &&
           !last_ensemble_.members[kept_index].kept) {
      ++kept_index;
    }
    const core::EnsembleMember& member = last_ensemble_.members[kept_index++];
    const sax::WordCodec& codec = model.table.codec();
    if (codec.word_length() != member.paa_size ||
        codec.alphabet_size() != member.alphabet_size) {
      return Status::InvalidArgument(
          "model table layout disagrees with its kept member");
    }
    std::vector<double> counts;
    EGI_RETURN_IF_ERROR(
        serialize::ReadDoubles(r, &counts, /*allow_nan=*/false));
    if (counts.size() != model.table.size()) {
      return Status::InvalidArgument(
          "position counts disagree with the token table");
    }
    model.position_counts.reserve(counts.size());
    double expected_max = 0.0;
    for (const double c : counts) {
      if (!(c >= 0.0 && c < 0x1p32) || c != std::floor(c)) {
        return Status::InvalidArgument(
            "position_counts entry " + std::to_string(c) +
            " is not a whole number in [0, 2^32)");
      }
      model.position_counts.push_back(static_cast<uint32_t>(c));
      expected_max = std::max(expected_max, c);
    }
    EGI_RETURN_IF_ERROR(r.ReadFiniteDouble(&model.max_count));
    if (model.max_count != expected_max) {
      return Status::InvalidArgument(
          "max_count disagrees with the position counts");
    }
    models_.push_back(std::move(model));
  }

  if (version >= 2) {
    size_t effective = 0;
    EGI_RETURN_IF_ERROR(ReadVarintSize(r, &effective, "effective_interval"));
    EGI_RETURN_IF_ERROR(r.ReadBool(&drift_base_set_));
    EGI_RETURN_IF_ERROR(r.ReadFiniteDouble(&drift_base_mean_));
    EGI_RETURN_IF_ERROR(r.ReadFiniteDouble(&drift_base_std_));
    EGI_RETURN_IF_ERROR(serialize::ReadRollingStats(r, &drift_stats_));
    if (effective < options_.refit_interval ||
        effective > EffectiveIntervalMax()) {
      return Status::InvalidArgument(
          "effective refit interval outside [refit_interval, "
          "refit_interval_max]");
    }
    effective_interval_ = effective;
    if (options_.refit_policy == RefitPolicy::kFixed &&
        (effective_interval_ != options_.refit_interval || drift_base_set_ ||
         drift_base_mean_ != 0.0 || drift_base_std_ != 0.0 ||
         drift_stats_.count() != 0)) {
      return Status::InvalidArgument(
          "adaptive drift state in a fixed-policy snapshot");
    }
    if (drift_base_std_ < 0.0) {
      return Status::InvalidArgument("negative drift baseline std-dev");
    }
    if (drift_stats_.count() >= options_.refit_interval) {
      // Blocks are consumed by the gate the moment they complete, inside
      // the same Append that filled them — a full block at rest is corrupt.
      return Status::InvalidArgument("unconsumed drift block in snapshot");
    }
    if (drift_stats_.count() > since_refit_) {
      return Status::InvalidArgument(
          "drift stats count exceeds appends since the last refit");
    }
    if (refits_ == 0 && (drift_base_set_ || drift_stats_.count() != 0)) {
      return Status::InvalidArgument("drift state with a zero refit count");
    }
  } else {
    // v1 blob: pre-adaptive writer, so the state is the kFixed default the
    // constructor already installed.
    effective_interval_ = options_.refit_interval;
  }
  return Status::OK();
}

std::vector<uint8_t> StreamDetector::Serialize() const {
  auto& registry = telemetry::Registry::Global();
  static auto* hist = registry.GetHistogram("stream.snapshot_seconds");
  static auto* bytes_gauge = registry.GetGauge("stream.snapshot_bytes");
  telemetry::ScopedTimer timer(hist);
  ByteWriter w;
  WriteOptions(w, options_);
  WritePayload(w);
  std::vector<uint8_t> blob = serialize::WrapPayload(
      serialize::BlobKind::kStreamDetector, w.bytes());
  bytes_gauge->Set(static_cast<int64_t>(blob.size()));
  registry.journal().Emit(
      "checkpoint.save", {{"bytes", std::to_string(blob.size())},
                          {"appended", std::to_string(appended_)}});
  return blob;
}

Result<StreamDetector> StreamDetector::Deserialize(
    std::span<const uint8_t> blob) {
  auto& registry = telemetry::Registry::Global();
  static auto* hist = registry.GetHistogram("stream.restore_seconds");
  telemetry::ScopedTimer timer(hist);
  std::span<const uint8_t> payload;
  uint32_t version = 0;
  EGI_RETURN_IF_ERROR(serialize::UnwrapPayload(
      blob, serialize::BlobKind::kStreamDetector, &payload, &version));
  ByteReader r(payload);
  StreamDetectorOptions options;
  EGI_RETURN_IF_ERROR(ReadOptions(r, version, &options));
  // Bounds buffer_capacity too, before the constructor allocates the rings.
  EGI_RETURN_IF_ERROR(ValidateOptions(options));
  StreamDetector detector(options);
  EGI_RETURN_IF_ERROR(detector.RestorePayload(r, version));
  EGI_RETURN_IF_ERROR(r.ExpectEnd());
  registry.journal().Emit(
      "checkpoint.restore", {{"bytes", std::to_string(blob.size())},
                             {"appended", std::to_string(detector.appended_)}});
  return detector;
}

}  // namespace egi::stream

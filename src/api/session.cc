#include "egi/session.h"

#include <optional>
#include <string>
#include <utility>

#include "api/internal.h"
#include "egi/telemetry.h"
#include "exec/parallel.h"
#include "serialize/format.h"
#include "stream/detector.h"
#include "util/check.h"

namespace egi {

namespace {

telemetry::Registry& Telemetry() { return telemetry::Registry::Global(); }

}  // namespace

// ------------------------------------------------------------- StreamSession

struct StreamSession::Impl {
  explicit Impl(stream::StreamDetector d) : detector(std::move(d)) {}
  stream::StreamDetector detector;
};

StreamSession::StreamSession(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
StreamSession::StreamSession(StreamSession&&) noexcept = default;
StreamSession& StreamSession::operator=(StreamSession&&) noexcept = default;
StreamSession::~StreamSession() = default;

StreamPoint StreamSession::Append(double value) {
  return impl_->detector.Append(value);
}

std::vector<StreamPoint> StreamSession::Ingest(std::span<const double> values) {
  return impl_->detector.Ingest(values);
}

Status StreamSession::ForceRefit() { return impl_->detector.ForceRefit(); }

size_t StreamSession::window_length() const {
  return impl_->detector.window_length();
}
uint64_t StreamSession::total_appended() const {
  return impl_->detector.total_appended();
}
size_t StreamSession::buffered() const { return impl_->detector.buffered(); }
uint64_t StreamSession::refit_count() const {
  return impl_->detector.refit_count();
}
bool StreamSession::fitted() const { return impl_->detector.fitted(); }

double StreamSession::RollingMean() const {
  return impl_->detector.RollingMean();
}
double StreamSession::RollingStdDev() const {
  return impl_->detector.RollingStdDev();
}

std::vector<double> StreamSession::BufferSnapshot() const {
  return impl_->detector.BufferSnapshot();
}
std::vector<double> StreamSession::ScoresSnapshot() const {
  return impl_->detector.ScoresSnapshot();
}
std::vector<double> StreamSession::RecentScores(size_t max_points) const {
  return impl_->detector.RecentScores(max_points);
}

std::vector<uint8_t> StreamSession::Checkpoint() const {
  return impl_->detector.Serialize();
}

Result<StreamSession> StreamSession::Restore(std::span<const uint8_t> blob) {
  EGI_ASSIGN_OR_RETURN(auto detector, stream::StreamDetector::Deserialize(blob));
  return StreamSession(std::make_unique<Impl>(std::move(detector)));
}

// ----------------------------------------------------------------- StreamHub

struct StreamHub::Impl {
  explicit Impl(stream::StreamDetectorOptions o) : options(std::move(o)) {}

  stream::StreamDetector& At(size_t stream) {
    EGI_CHECK(stream < streams.size()) << "unknown stream " << stream;
    return streams[stream];
  }

  stream::StreamDetectorOptions options;  // every AddStream()'s detector
  std::vector<stream::StreamDetector> streams;
};

StreamHub::StreamHub(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
StreamHub::StreamHub(StreamHub&&) noexcept = default;
StreamHub& StreamHub::operator=(StreamHub&&) noexcept = default;
StreamHub::~StreamHub() = default;

size_t StreamHub::AddStream() {
  impl_->streams.emplace_back(impl_->options);
  return impl_->streams.size() - 1;
}

std::vector<StreamPoint> StreamHub::Ingest(size_t stream,
                                           std::span<const double> values) {
  return impl_->At(stream).Ingest(values);
}

size_t StreamHub::num_streams() const { return impl_->streams.size(); }

HubStreamStats StreamHub::Stats(size_t stream) const {
  const stream::StreamDetector& d = impl_->At(stream);
  HubStreamStats out;
  out.total_appended = d.total_appended();
  out.buffered = d.buffered();
  out.refit_count = d.refit_count();
  out.fitted = d.fitted();
  out.window_length = d.window_length();
  return out;
}

std::vector<double> StreamHub::RecentScores(size_t stream,
                                            size_t max_points) const {
  return impl_->At(stream).RecentScores(max_points);
}

std::vector<uint8_t> StreamHub::Checkpoint() const {
  // Each section is a full detector snapshot (own envelope + checksum), so
  // one stream can be extracted from the blob and restored on its own.
  const auto& streams = impl_->streams;
  std::vector<std::vector<uint8_t>> sections(streams.size());
  exec::ParallelFor(impl_->options.ensemble.parallelism, 0, streams.size(),
                    /*grain=*/1,
                    [&](size_t i) { sections[i] = streams[i].Serialize(); });
  std::vector<uint8_t> blob = serialize::WrapEngineSections(sections);
  Telemetry().journal().Emit(
      "engine.save_all", {{"streams", std::to_string(sections.size())},
                          {"bytes", std::to_string(blob.size())}});
  return blob;
}

Status StreamHub::Restore(std::span<const uint8_t> blob) {
  std::vector<std::span<const uint8_t>> sections;
  EGI_RETURN_IF_ERROR(serialize::UnwrapEngineSections(blob, &sections));
  // Decode every section concurrently; commit only if all of them restored.
  std::vector<std::optional<stream::StreamDetector>> decoded(sections.size());
  std::vector<Status> statuses(sections.size());
  const auto decode = [&](size_t i) {
    auto result = stream::StreamDetector::Deserialize(sections[i]);
    if (result.ok()) {
      decoded[i].emplace(std::move(*result));
    } else {
      statuses[i] = result.status();
    }
  };
  exec::ParallelFor(impl_->options.ensemble.parallelism, 0, sections.size(),
                    /*grain=*/1, decode);
  std::vector<stream::StreamDetector> restored;
  restored.reserve(sections.size());
  for (size_t i = 0; i < sections.size(); ++i) {
    if (!statuses[i].ok()) {
      return Status(statuses[i].code(), "stream " + std::to_string(i) + ": " +
                                            statuses[i].message());
    }
    restored.push_back(std::move(*decoded[i]));
  }
  impl_->streams = std::move(restored);
  Telemetry().journal().Emit(
      "engine.load_all", {{"streams", std::to_string(sections.size())},
                          {"bytes", std::to_string(blob.size())}});
  return Status::OK();
}

Result<std::vector<uint8_t>> StreamHub::CheckpointStream(size_t stream) const {
  if (stream >= impl_->streams.size()) {
    return Status::NotFound("unknown stream " + std::to_string(stream));
  }
  return impl_->streams[stream].Serialize();
}

Status StreamHub::RestoreStream(size_t stream,
                                std::span<const uint8_t> blob) {
  if (stream >= impl_->streams.size()) {
    return Status::NotFound("unknown stream " + std::to_string(stream));
  }
  EGI_ASSIGN_OR_RETURN(auto detector,
                       stream::StreamDetector::Deserialize(blob));
  impl_->streams[stream] = std::move(detector);
  return Status::OK();
}

// ------------------------------------------------------------------- Session

struct Session::Impl {
  Impl(const api::DetectorEntry* e, api::OptionValues v,
       std::unique_ptr<core::AnomalyDetector> d)
      : entry(e), values(std::move(v)), detector(std::move(d)) {}

  const api::DetectorEntry* entry;
  api::OptionValues values;
  std::unique_ptr<core::AnomalyDetector> detector;
};

Session::Session(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;
Session::~Session() = default;

Result<Session> Session::Open(std::string_view spec) {
  EGI_ASSIGN_OR_RETURN(auto parsed, DetectorSpec::Parse(spec));
  return Open(parsed);
}

Result<Session> Session::Open(const DetectorSpec& spec) {
  static auto* open_hist = Telemetry().GetHistogram("session.open_seconds");
  telemetry::ScopedTimer timer(open_hist);
  const api::DetectorEntry* entry = api::FindEntry(spec.method);
  if (entry == nullptr) return api::UnknownDetectorError(spec.method);
  EGI_ASSIGN_OR_RETURN(auto values, api::ResolveOptions(*entry, spec));
  auto detector = entry->make(values);
  EGI_CHECK(detector != nullptr);
  return Session(std::make_unique<Impl>(entry, std::move(values),
                                        std::move(detector)));
}

std::string Session::MetricsJson() { return Telemetry().ToJson(); }

const DetectorInfo& Session::info() const { return impl_->entry->info; }

std::string_view Session::method() const { return impl_->entry->info.name; }

std::string Session::spec() const {
  return api::CanonicalSpec(*impl_->entry, impl_->values);
}

Result<std::vector<Detection>> Session::Detect(std::span<const double> series,
                                               size_t window_length,
                                               size_t max_candidates) {
  static auto* calls = Telemetry().GetCounter("session.detect_calls");
  static auto* hist = Telemetry().GetHistogram("session.detect_seconds");
  calls->Add(1);
  telemetry::ScopedTimer timer(hist);
  return impl_->detector->Detect(series, window_length, max_candidates);
}

Result<std::vector<double>> Session::Score(std::span<const double> series,
                                           size_t window_length) {
  static auto* calls = Telemetry().GetCounter("session.score_calls");
  static auto* hist = Telemetry().GetHistogram("session.score_seconds");
  calls->Add(1);
  telemetry::ScopedTimer timer(hist);
  if (!impl_->entry->info.supports_score) {
    return Status::FailedPrecondition(
        "method '" + std::string(method()) +
        "' has no point-wise score curve (see DetectorInfo::supports_score)");
  }
  return impl_->detector->Score(series, window_length);
}

namespace {

Result<stream::StreamDetectorOptions> StreamOptionsFor(
    const api::DetectorEntry& entry, const api::OptionValues& values,
    const StreamOptions& options) {
  if (entry.ensemble == nullptr) {
    return Status::FailedPrecondition(
        "method '" + std::string(entry.info.name) +
        "' does not support streaming (see DetectorInfo::supports_streaming)");
  }
  stream::StreamDetectorOptions out;
  out.ensemble = entry.ensemble(values);
  out.ensemble.window_length = options.window_length;
  out.buffer_capacity = options.buffer_capacity;
  out.refit_interval = options.refit_interval;
  out.refit_policy = options.refit_policy;
  out.refit_interval_max = options.refit_interval_max;
  out.drift_tolerance = options.drift_tolerance;
  EGI_RETURN_IF_ERROR(stream::StreamDetector::ValidateOptions(out));
  return out;
}

}  // namespace

Result<StreamSession> Session::OpenStream(const StreamOptions& options) const {
  EGI_ASSIGN_OR_RETURN(auto detector_options,
                       StreamOptionsFor(*impl_->entry, impl_->values, options));
  return StreamSession(std::make_unique<StreamSession::Impl>(
      stream::StreamDetector(detector_options)));
}

Result<StreamHub> Session::OpenHub(const StreamOptions& options) const {
  EGI_ASSIGN_OR_RETURN(auto detector_options,
                       StreamOptionsFor(*impl_->entry, impl_->values, options));
  return StreamHub(
      std::make_unique<StreamHub::Impl>(std::move(detector_options)));
}

}  // namespace egi

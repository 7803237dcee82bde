#include "service/hub_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "egi/telemetry.h"
#include "exec/parallel.h"
#include "serialize/bytes.h"
#include "serialize/file_io.h"
#include "serialize/format.h"
#include "util/json.h"

namespace egi::service {

namespace {

telemetry::Registry& Telemetry() { return telemetry::Registry::Global(); }

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Points a drain task scores per detect-mutex acquisition: large enough to
/// amortize locking, small enough that a checkpoint guard waiting on the
/// mutex gets it promptly.
constexpr size_t kDrainChunk = 512;

/// Longest tenant/name string accepted from clients and from checkpoints.
constexpr size_t kMaxLabelBytes = 256;

/// Points accepted but not yet scored, across all streams: set on admit and
/// after every drained chunk.
telemetry::Gauge* BacklogGauge() {
  static auto* gauge = Telemetry().GetGauge("service.backlog_points");
  return gauge;
}

HubStreamStats StatsOf(const StreamSession& session) {
  HubStreamStats out;
  out.total_appended = session.total_appended();
  out.buffered = session.buffered();
  out.refit_count = session.refit_count();
  out.fitted = session.fitted();
  out.window_length = session.window_length();
  return out;
}

}  // namespace

// ------------------------------------------------------------------- state

struct HubService::Impl {
  struct Tenant {
    std::string name;
    size_t live_streams = 0;  // guarded by the exclusive struct lock

    std::mutex mu;  // token bucket below
    double tokens = 0.0;
    uint64_t last_refill_ns = 0;
  };

  struct StreamState {
    explicit StreamState(StreamSession s) : session(std::move(s)) {}

    std::string tenant_name;
    std::string name;
    Tenant* tenant = nullptr;  // stable: tenants are never destroyed
    bool deleted = false;      // guarded by the exclusive struct lock

    // Accept path (TCP threads): bounded queue + admission counters.
    mutable std::mutex queue_mu;
    std::deque<double> queue;
    uint64_t accepted_total = 0;
    bool scheduled = false;  // a drain task is queued or running

    // Score path (drain tasks + checkpoints).
    mutable std::mutex detect_mu;
    StreamSession session;  // guarded by detect_mu
    std::atomic<int> checkpoint_waiters{0};  // see CheckpointNow
    std::atomic<uint64_t> scored_total{0};
    std::atomic<double> last_score{0.0};
    std::atomic<bool> last_scored{false};

    // Rebuilds the admission counters from a just-restored session: the
    // blob is the source of truth for how many points the stream has
    // consumed and for its latest score. Caller holds both stream locks or
    // the exclusive structural lock.
    void ResetCountersFromSession() {
      accepted_total = session.total_appended();
      scored_total.store(accepted_total, std::memory_order_relaxed);
      const std::vector<double> last = session.RecentScores(1);
      const bool scored = !last.empty() && !std::isnan(last.back());
      last_score.store(scored ? last.back() : 0.0, std::memory_order_relaxed);
      last_scored.store(scored, std::memory_order_relaxed);
    }
  };

  Impl(HubServiceOptions opts, Session session)
      : options(std::move(opts)),
        session(std::move(session)),
        now_ns(options.now_ns ? options.now_ns : SteadyNowNs) {}

  HubServiceOptions options;
  Session session;

  // Structural lock: CreateStream / DeleteStream / RestoreFromDisk take it
  // exclusively; ingest, queries, and checkpoints take it shared. Stream
  // and tenant objects are held by pointer so they never move.
  mutable std::shared_mutex struct_mu;
  std::vector<std::unique_ptr<StreamState>> streams;
  std::unordered_map<std::string, std::unique_ptr<Tenant>> tenants;

  std::function<uint64_t()> now_ns;
  // Checkpoint and restore fan-out: one stream per chunk over the pool.
  const exec::Parallelism fan_out = exec::Parallelism::FromEnv();
  std::atomic<bool> draining{false};
  std::atomic<size_t> last_checkpoint_bytes{0};

  // Drain tasks posted to the exec pool and not yet finished; Shutdown
  // waits for zero so no task outlives the service, and RestoreFromDisk
  // (under its exclusive lock) so none outlives the stream it drains.
  std::mutex drains_mu;
  std::condition_variable drains_cv;
  size_t drains_in_flight = 0;

  // Flush accounting: points accepted but not yet scored.
  std::atomic<uint64_t> pending_points{0};
  std::mutex flush_mu;
  std::condition_variable flush_cv;

  bool shut_down = false;
  std::mutex shutdown_mu;

  // --- helpers (definitions below) ---
  bool ConsumeQuota(Tenant& tenant, size_t count);
  void ScheduleDrain(StreamState* st);  // structural lock held
  void DrainStream(StreamState& st);
  void FinishPoints(uint64_t count);
  Tenant* GetOrCreateTenant(const std::string& name);  // excl. lock held
  StreamInfo DescribeLocked(size_t id) const;          // shared lock held
};

// ------------------------------------------------------------- construction

HubService::HubService(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Result<std::unique_ptr<HubService>> HubService::Create(
    HubServiceOptions options) {
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (options.quota_burst < 0.0 || options.points_per_second < 0.0 ||
      !std::isfinite(options.quota_burst) ||
      !std::isfinite(options.points_per_second)) {
    return Status::InvalidArgument("quota options must be finite and >= 0");
  }
  EGI_ASSIGN_OR_RETURN(auto session, Session::Open(options.spec));
  // Every CreateStream opens a stream of this shape: reject a bad one here.
  EGI_RETURN_IF_ERROR(session.OpenStream(options.stream).status());

  auto impl = std::make_unique<Impl>(std::move(options), std::move(session));
  auto service =
      std::unique_ptr<HubService>(new HubService(std::move(impl)));
  EGI_RETURN_IF_ERROR(service->RestoreFromDisk());
  return service;
}

HubService::~HubService() {
  if (impl_ != nullptr) Shutdown();  // final-checkpoint errors are dropped
}

// ------------------------------------------------------------------ tenants

HubService::Impl::Tenant* HubService::Impl::GetOrCreateTenant(
    const std::string& name) {
  auto it = tenants.find(name);
  if (it != tenants.end()) return it->second.get();
  auto tenant = std::make_unique<Tenant>();
  tenant->name = name;
  const double rate = options.points_per_second;
  tenant->tokens =
      options.quota_burst > 0.0 ? options.quota_burst : rate;
  tenant->last_refill_ns = now_ns();
  Tenant* raw = tenant.get();
  tenants.emplace(name, std::move(tenant));
  return raw;
}

bool HubService::Impl::ConsumeQuota(Tenant& tenant, size_t count) {
  const double rate = options.points_per_second;
  if (rate <= 0.0) return true;
  const double burst =
      options.quota_burst > 0.0 ? options.quota_burst : rate;
  std::lock_guard<std::mutex> lock(tenant.mu);
  const uint64_t now = now_ns();
  if (now > tenant.last_refill_ns) {
    const double elapsed =
        static_cast<double>(now - tenant.last_refill_ns) * 1e-9;
    tenant.tokens = std::min(burst, tenant.tokens + elapsed * rate);
  }
  tenant.last_refill_ns = now;
  if (tenant.tokens < static_cast<double>(count)) return false;
  tenant.tokens -= static_cast<double>(count);
  return true;
}

// --------------------------------------------------------------- data plane

IngestResponse HubService::HandleIngest(const IngestRequest& request) {
  static auto* frames = Telemetry().GetCounter("service.ingest_frames");
  static auto* accepted = Telemetry().GetCounter("service.points_accepted");
  static auto* rejected = Telemetry().GetCounter("service.frames_rejected");
  frames->Add(1);

  IngestResponse resp;
  resp.stream = request.stream;
  const auto reject = [&](RejectReason reason) {
    rejected->Add(1);
    Telemetry()
        .GetCounter(std::string("service.reject.") +
                    std::string(RejectReasonName(reason)))
        ->Add(1);
    resp.type = FrameType::kReject;
    resp.reason = reason;
    return resp;
  };

  if (request.hello) {
    // Version handshake, answered before the draining check so a draining
    // server still tells a connecting router *why* frames will bounce.
    if (request.protocol_version != kProtocolVersion) {
      return reject(RejectReason::kVersionMismatch);
    }
    resp.type = FrameType::kHelloAck;
    resp.protocol_version = kProtocolVersion;
    return resp;
  }
  if (impl_->draining.load(std::memory_order_relaxed)) {
    return reject(RejectReason::kDraining);
  }
  std::shared_lock<std::shared_mutex> structural(impl_->struct_mu);
  if (request.stream >= impl_->streams.size()) {
    return reject(RejectReason::kUnknownStream);
  }
  Impl::StreamState& st = *impl_->streams[request.stream];
  if (st.deleted) return reject(RejectReason::kUnknownStream);

  bool need_schedule = false;
  {
    std::lock_guard<std::mutex> lock(st.queue_mu);
    if (impl_->options.queue_capacity - st.queue.size() <
        request.values.size()) {
      return reject(RejectReason::kQueueFull);
    }
    // Only a frame that fits spends quota (lock order: queue, then tenant).
    if (!impl_->ConsumeQuota(*st.tenant, request.values.size())) {
      return reject(RejectReason::kRateLimited);
    }
    st.queue.insert(st.queue.end(), request.values.begin(),
                    request.values.end());
    st.accepted_total += request.values.size();
    resp.accepted_total = st.accepted_total;
    if (!st.scheduled && !st.queue.empty()) {
      st.scheduled = true;
      need_schedule = true;
    }
  }
  BacklogGauge()->Set(static_cast<int64_t>(
      impl_->pending_points.fetch_add(request.values.size(),
                                      std::memory_order_relaxed) +
      request.values.size()));
  accepted->Add(request.values.size());
  if (need_schedule) impl_->ScheduleDrain(&st);
  resp.type = FrameType::kAck;
  resp.scored_total = st.scored_total.load(std::memory_order_relaxed);
  resp.last_score = st.last_score.load(std::memory_order_relaxed);
  resp.last_scored = st.last_scored.load(std::memory_order_relaxed);
  return resp;
}

// ------------------------------------------------------------- drain tasks

void HubService::Impl::ScheduleDrain(StreamState* st) {
  {
    std::lock_guard<std::mutex> lock(drains_mu);
    ++drains_in_flight;
  }
  exec::ThreadPool::Shared().Enqueue([this, st] {
    DrainStream(*st);
    std::lock_guard<std::mutex> lock(drains_mu);
    if (--drains_in_flight == 0) drains_cv.notify_all();
  });
}

void HubService::Impl::FinishPoints(uint64_t count) {
  const uint64_t before =
      pending_points.fetch_sub(count, std::memory_order_acq_rel);
  BacklogGauge()->Set(static_cast<int64_t>(before - count));
  if (before == count) {
    std::lock_guard<std::mutex> lock(flush_mu);
    flush_cv.notify_all();
  }
}

void HubService::Impl::DrainStream(StreamState& st) {
  static auto* scored_counter =
      Telemetry().GetCounter("service.points_scored");
  static auto* drain_hist =
      Telemetry().GetHistogram("service.drain_seconds");

  // No structural lock here: a saturated stream's queue may never empty,
  // and holding the shared lock that long would starve CreateStream and
  // DeleteStream. The stream object outlives the task because
  // RestoreFromDisk, the only code that destroys one, first waits for
  // every drain task to finish.
  std::vector<double> chunk;
  while (true) {
    chunk.clear();
    {
      std::lock_guard<std::mutex> lock(st.queue_mu);
      const size_t take = std::min(st.queue.size(), kDrainChunk);
      if (take == 0) {
        st.scheduled = false;  // enqueue path will re-schedule
        return;
      }
      chunk.assign(st.queue.begin(),
                   st.queue.begin() + static_cast<ptrdiff_t>(take));
      st.queue.erase(st.queue.begin(),
                     st.queue.begin() + static_cast<ptrdiff_t>(take));
    }
    // A checkpoint waiting for this stream goes first (see CheckpointNow).
    while (st.checkpoint_waiters.load(std::memory_order_relaxed) > 0) {
      std::this_thread::yield();
    }
    {
      telemetry::ScopedTimer timer(drain_hist);
      std::lock_guard<std::mutex> lock(st.detect_mu);
      bool any_scored = false;
      double last = 0.0;
      for (const double v : chunk) {
        const StreamPoint p = st.session.Append(v);
        if (p.scored) {
          any_scored = true;
          last = p.score;
        }
      }
      st.scored_total.fetch_add(chunk.size(), std::memory_order_relaxed);
      if (any_scored) {
        st.last_score.store(last, std::memory_order_relaxed);
        st.last_scored.store(true, std::memory_order_relaxed);
      }
    }
    scored_counter->Add(chunk.size());
    FinishPoints(chunk.size());
  }
}

void HubService::Flush() {
  std::unique_lock<std::mutex> lock(impl_->flush_mu);
  impl_->flush_cv.wait(lock, [this] {
    return impl_->pending_points.load(std::memory_order_acquire) == 0;
  });
}

// ----------------------------------------------------------- stream control

Result<size_t> HubService::CreateStream(std::string tenant,
                                        std::string name) {
  static auto* created = Telemetry().GetCounter("service.streams_created");
  if (impl_->draining.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("service is draining");
  }
  if (tenant.empty() || tenant.size() > kMaxLabelBytes ||
      name.size() > kMaxLabelBytes) {
    return Status::InvalidArgument(
        "tenant must be 1.." + std::to_string(kMaxLabelBytes) +
        " bytes, name at most " + std::to_string(kMaxLabelBytes));
  }
  std::unique_lock<std::shared_mutex> structural(impl_->struct_mu);
  Impl::Tenant* owner = impl_->GetOrCreateTenant(tenant);
  if (impl_->options.max_streams_per_tenant != 0 &&
      owner->live_streams >= impl_->options.max_streams_per_tenant) {
    return Status::FailedPrecondition(
        "tenant '" + tenant + "' is at its stream quota (" +
        std::to_string(impl_->options.max_streams_per_tenant) + ")");
  }
  EGI_ASSIGN_OR_RETURN(auto session,
                       impl_->session.OpenStream(impl_->options.stream));
  const size_t id = impl_->streams.size();
  auto st = std::make_unique<Impl::StreamState>(std::move(session));
  st->tenant_name = std::move(tenant);
  st->name = std::move(name);
  st->tenant = owner;
  impl_->streams.push_back(std::move(st));
  owner->live_streams += 1;
  created->Add(1);
  Telemetry().journal().Emit(
      "service.stream_created",
      {{"stream", std::to_string(id)},
       {"tenant", impl_->streams[id]->tenant_name}});
  return id;
}

Status HubService::DeleteStream(size_t stream) {
  static auto* deleted = Telemetry().GetCounter("service.streams_deleted");
  std::unique_lock<std::shared_mutex> structural(impl_->struct_mu);
  if (stream >= impl_->streams.size() || impl_->streams[stream]->deleted) {
    return Status::NotFound("no stream " + std::to_string(stream));
  }
  Impl::StreamState& st = *impl_->streams[stream];
  st.deleted = true;
  st.tenant->live_streams -= 1;
  // Drop anything still queued; the stream state stays (tombstoned
  // sections still checkpoint, keeping ids positionally stable).
  {
    std::lock_guard<std::mutex> lock(st.queue_mu);
    const size_t dropped = st.queue.size();
    st.queue.clear();
    if (dropped > 0) impl_->FinishPoints(dropped);
  }
  deleted->Add(1);
  return Status::OK();
}

// ---------------------------------------------------------------- queries

StreamInfo HubService::Impl::DescribeLocked(size_t id) const {
  const StreamState& st = *streams[id];
  StreamInfo info;
  info.stream = id;
  info.tenant = st.tenant_name;
  info.name = st.name;
  {
    std::lock_guard<std::mutex> lock(st.queue_mu);
    info.accepted_total = st.accepted_total;
    info.queued = st.queue.size();
  }
  info.scored_total = st.scored_total.load(std::memory_order_relaxed);
  info.last_score = st.last_score.load(std::memory_order_relaxed);
  info.last_scored = st.last_scored.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(st.detect_mu);
    info.stats = StatsOf(st.session);
  }
  return info;
}

Result<StreamInfo> HubService::Describe(size_t stream) const {
  std::shared_lock<std::shared_mutex> structural(impl_->struct_mu);
  if (stream >= impl_->streams.size() || impl_->streams[stream]->deleted) {
    return Status::NotFound("no stream " + std::to_string(stream));
  }
  return impl_->DescribeLocked(stream);
}

std::vector<StreamInfo> HubService::List() const {
  std::shared_lock<std::shared_mutex> structural(impl_->struct_mu);
  std::vector<StreamInfo> out;
  out.reserve(impl_->streams.size());
  for (size_t i = 0; i < impl_->streams.size(); ++i) {
    if (impl_->streams[i]->deleted) continue;
    out.push_back(impl_->DescribeLocked(i));
  }
  return out;
}

Result<std::vector<double>> HubService::RecentScores(
    size_t stream, size_t max_points) const {
  std::shared_lock<std::shared_mutex> structural(impl_->struct_mu);
  if (stream >= impl_->streams.size() || impl_->streams[stream]->deleted) {
    return Status::NotFound("no stream " + std::to_string(stream));
  }
  Impl::StreamState& st = *impl_->streams[stream];
  std::lock_guard<std::mutex> lock(st.detect_mu);
  return st.session.RecentScores(max_points);
}

size_t HubService::num_streams() const {
  std::shared_lock<std::shared_mutex> structural(impl_->struct_mu);
  size_t live = 0;
  for (const auto& st : impl_->streams) {
    if (!st->deleted) ++live;
  }
  return live;
}

bool HubService::draining() const {
  return impl_->draining.load(std::memory_order_relaxed);
}

// -------------------------------------------------------------- checkpoint

Status HubService::CheckpointNow() {
  static auto* checkpoints = Telemetry().GetCounter("service.checkpoints");
  static auto* hist = Telemetry().GetHistogram("service.checkpoint_seconds");
  static auto* bytes_gauge =
      Telemetry().GetGauge("service.checkpoint_bytes");
  if (impl_->options.checkpoint_path.empty()) {
    return Status::FailedPrecondition("no checkpoint path configured");
  }
  telemetry::ScopedTimer timer(hist);

  std::shared_lock<std::shared_mutex> structural(impl_->struct_mu);
  serialize::ByteWriter writer;
  writer.PutVarint(impl_->streams.size());
  for (const auto& st : impl_->streams) {
    writer.PutString(st->tenant_name);
    writer.PutString(st->name);
    writer.PutBool(st->deleted);
  }
  // Consistent under load: each stream's section is serialized under its
  // detect mutex, one stream per chunk across the pool, while the other
  // streams keep draining.
  std::vector<std::vector<uint8_t>> sections(impl_->streams.size());
  const auto serialize_stream = [&](size_t i) {
    Impl::StreamState& st = *impl_->streams[i];
    // A drain that keeps its stream saturated re-takes the mutex between
    // chunks within microseconds, before a woken checkpoint gets a core when
    // every core runs a drain; announced, the checkpoint goes first and
    // waits for at most one chunk per stream.
    st.checkpoint_waiters.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(st.detect_mu);
    st.checkpoint_waiters.fetch_sub(1, std::memory_order_relaxed);
    sections[i] = st.session.Checkpoint();
  };
  exec::ParallelFor(impl_->fan_out, 0, sections.size(), /*grain=*/1,
                    serialize_stream);
  const std::vector<uint8_t> engine_blob =
      serialize::WrapEngineSections(sections);
  writer.PutVarint(engine_blob.size());
  writer.PutBytes(engine_blob);

  const std::vector<uint8_t> blob = serialize::WrapPayload(
      serialize::BlobKind::kServiceCheckpoint, writer.bytes());
  EGI_RETURN_IF_ERROR(
      serialize::WriteFileAtomic(impl_->options.checkpoint_path, blob));
  impl_->last_checkpoint_bytes.store(blob.size(),
                                     std::memory_order_relaxed);
  checkpoints->Add(1);
  bytes_gauge->Set(static_cast<int64_t>(blob.size()));
  Telemetry().journal().Emit(
      "service.checkpoint",
      {{"bytes", std::to_string(blob.size())},
       {"streams", std::to_string(impl_->streams.size())}});
  return Status::OK();
}

Status HubService::RestoreFromDisk() {
  static auto* restores = Telemetry().GetCounter("service.restores");
  if (impl_->options.checkpoint_path.empty()) return Status::OK();
  auto read = serialize::ReadFileBytes(impl_->options.checkpoint_path);
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kNotFound) {
      return Status::OK();  // fresh start
    }
    return read.status();
  }

  std::span<const uint8_t> payload;
  EGI_RETURN_IF_ERROR(serialize::UnwrapPayload(
      *read, serialize::BlobKind::kServiceCheckpoint, &payload));
  serialize::ByteReader reader(payload);
  uint64_t count = 0;
  EGI_RETURN_IF_ERROR(reader.ReadVarint(&count));
  struct ManifestEntry {
    std::string tenant;
    std::string name;
    bool deleted = false;
  };
  std::vector<ManifestEntry> manifest;
  manifest.reserve(std::min<uint64_t>(count, 1 << 20));
  for (uint64_t i = 0; i < count; ++i) {
    ManifestEntry entry;
    EGI_RETURN_IF_ERROR(reader.ReadString(&entry.tenant, kMaxLabelBytes));
    EGI_RETURN_IF_ERROR(reader.ReadString(&entry.name, kMaxLabelBytes));
    EGI_RETURN_IF_ERROR(reader.ReadBool(&entry.deleted));
    manifest.push_back(std::move(entry));
  }
  uint64_t engine_len = 0;
  EGI_RETURN_IF_ERROR(reader.ReadVarint(&engine_len));
  if (engine_len != reader.remaining()) {
    return Status::InvalidArgument(
        "service checkpoint: engine blob length mismatch");
  }
  std::vector<std::span<const uint8_t>> sections;
  EGI_RETURN_IF_ERROR(serialize::UnwrapEngineSections(
      payload.subspan(reader.position(), engine_len), &sections));
  if (sections.size() != manifest.size()) {
    return Status::InvalidArgument(
        "service checkpoint: " + std::to_string(manifest.size()) +
        " manifest entries but " + std::to_string(sections.size()) +
        " stream sections");
  }
  // Decode every section concurrently; commit only if all of them restored.
  std::vector<std::optional<StreamSession>> restored(sections.size());
  std::vector<Status> statuses(sections.size());
  const auto restore_stream = [&](size_t i) {
    auto result = StreamSession::Restore(sections[i]);
    if (result.ok()) {
      restored[i].emplace(std::move(*result));
    } else {
      statuses[i] = result.status();
    }
  };
  exec::ParallelFor(impl_->fan_out, 0, sections.size(), /*grain=*/1,
                    restore_stream);
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (!statuses[i].ok()) {
      return Status(statuses[i].code(), "stream " + std::to_string(i) + ": " +
                                            statuses[i].message());
    }
  }

  std::unique_lock<std::shared_mutex> structural(impl_->struct_mu);
  if (impl_->pending_points.load(std::memory_order_acquire) != 0) {
    return Status::FailedPrecondition(
        "restore with points still queued; Flush first");
  }
  {
    // Drain tasks hold StreamState pointers without the structural lock.
    // None can be scheduled while this lock is held, and the ones in
    // flight only find empty queues, so this wait is short.
    std::unique_lock<std::mutex> lock(impl_->drains_mu);
    impl_->drains_cv.wait(lock,
                          [this] { return impl_->drains_in_flight == 0; });
  }
  // From here on nothing can fail: rebuild the stream table from the
  // manifest and the restored streams.
  impl_->streams.clear();
  impl_->tenants.clear();
  for (size_t i = 0; i < manifest.size(); ++i) {
    auto st = std::make_unique<Impl::StreamState>(std::move(*restored[i]));
    st->tenant_name = std::move(manifest[i].tenant);
    st->name = std::move(manifest[i].name);
    st->deleted = manifest[i].deleted;
    st->tenant = impl_->GetOrCreateTenant(st->tenant_name);
    if (!st->deleted) st->tenant->live_streams += 1;
    st->ResetCountersFromSession();
    impl_->streams.push_back(std::move(st));
  }
  restores->Add(1);
  Telemetry().journal().Emit(
      "service.restore",
      {{"streams", std::to_string(impl_->streams.size())}});
  return Status::OK();
}

Result<std::vector<uint8_t>> HubService::ExportStreamCheckpoint(
    size_t stream) const {
  static auto* exports = Telemetry().GetCounter("service.stream_exports");
  std::shared_lock<std::shared_mutex> structural(impl_->struct_mu);
  if (stream >= impl_->streams.size() || impl_->streams[stream]->deleted) {
    return Status::NotFound("no stream " + std::to_string(stream));
  }
  Impl::StreamState& st = *impl_->streams[stream];
  // Both locks: queue empty alone is not enough — a drain worker pops a
  // chunk off the queue *before* scoring it, so the blob would miss those
  // points. accepted == scored under both locks means every acked point is
  // inside the detector.
  std::scoped_lock lock(st.queue_mu, st.detect_mu);
  if (!st.queue.empty() ||
      st.accepted_total != st.scored_total.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "stream " + std::to_string(stream) +
        " still has unscored points; flush first");
  }
  std::vector<uint8_t> blob = st.session.Checkpoint();
  exports->Add(1);
  Telemetry().journal().Emit(
      "service.stream_export", {{"stream", std::to_string(stream)},
                                {"bytes", std::to_string(blob.size())}});
  return blob;
}

Status HubService::ImportStreamCheckpoint(size_t stream,
                                          std::span<const uint8_t> blob) {
  static auto* imports = Telemetry().GetCounter("service.stream_imports");
  std::shared_lock<std::shared_mutex> structural(impl_->struct_mu);
  if (stream >= impl_->streams.size() || impl_->streams[stream]->deleted) {
    return Status::NotFound("no stream " + std::to_string(stream));
  }
  Impl::StreamState& st = *impl_->streams[stream];
  std::scoped_lock lock(st.queue_mu, st.detect_mu);
  if (!st.queue.empty() ||
      st.accepted_total != st.scored_total.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "stream " + std::to_string(stream) +
        " still has unscored points; flush first");
  }
  EGI_ASSIGN_OR_RETURN(st.session, StreamSession::Restore(blob));
  st.ResetCountersFromSession();
  imports->Add(1);
  Telemetry().journal().Emit(
      "service.stream_import", {{"stream", std::to_string(stream)},
                                {"bytes", std::to_string(blob.size())}});
  return Status::OK();
}

// ---------------------------------------------------------------- shutdown

void HubService::BeginDrain() {
  impl_->draining.store(true, std::memory_order_relaxed);
}

Status HubService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(impl_->shutdown_mu);
    if (impl_->shut_down) return Status::OK();
    impl_->shut_down = true;
  }
  BeginDrain();
  Flush();  // no new frames admitted, so the pending count only falls
  {
    // A deleted stream's drain task can still be queued after its points
    // were dropped; wait for every task so none outlives the service.
    std::unique_lock<std::mutex> lock(impl_->drains_mu);
    impl_->drains_cv.wait(lock,
                          [this] { return impl_->drains_in_flight == 0; });
  }
  if (impl_->options.checkpoint_path.empty()) return Status::OK();
  return CheckpointNow();
}

// ------------------------------------------------------------ control plane

namespace {

std::string RenderStreamInfo(const StreamInfo& info) {
  std::string out = "{\"stream\":" + std::to_string(info.stream);
  out += ",\"tenant\":" + JsonQuote(info.tenant);
  out += ",\"name\":" + JsonQuote(info.name);
  out += ",\"accepted\":" + std::to_string(info.accepted_total);
  out += ",\"scored\":" + std::to_string(info.scored_total);
  out += ",\"queued\":" + std::to_string(info.queued);
  out += ",\"last_score\":" + JsonNumber(info.last_score);
  out += std::string(",\"last_scored\":") +
         (info.last_scored ? "true" : "false");
  out += ",\"detector\":{\"total_appended\":" +
         std::to_string(info.stats.total_appended);
  out += ",\"buffered\":" + std::to_string(info.stats.buffered);
  out += ",\"refit_count\":" + std::to_string(info.stats.refit_count);
  out += std::string(",\"fitted\":") + (info.stats.fitted ? "true" : "false");
  out += ",\"window_length\":" + std::to_string(info.stats.window_length);
  out += "}}";
  return out;
}

}  // namespace

std::string HubService::Handle(const HttpRequest& request) {
  static auto* requests = Telemetry().GetCounter("service.http_requests");
  static auto* hist = Telemetry().GetHistogram("service.http_seconds");
  requests->Add(1);
  telemetry::ScopedTimer timer(hist);

  if (request.path == "/healthz") {
    if (request.method != "GET") {
      return RenderHttpError(405, "use GET");
    }
    return RenderHttpResponse(
        200, std::string("{\"status\":\"ok\",\"draining\":") +
                 (draining() ? "true" : "false") +
                 ",\"streams\":" + std::to_string(num_streams()) + "}");
  }
  if (request.path == "/metrics") {
    if (request.method != "GET") return RenderHttpError(405, "use GET");
    return RenderHttpResponse(200, Session::MetricsJson());
  }
  if (request.path == "/v1/streams") {
    if (request.method == "POST") {
      std::string tenant;
      std::string name;
      if (!JsonFindString(request.body, "tenant", &tenant)) {
        return RenderHttpError(400, "body must carry a \"tenant\" field");
      }
      JsonFindString(request.body, "name", &name);  // optional
      auto created = CreateStream(std::move(tenant), std::move(name));
      if (!created.ok()) {
        const int code = draining() ? 503 : StatusToHttp(created.status());
        return RenderHttpError(code, created.status().message());
      }
      auto info = Describe(*created);
      return RenderHttpResponse(201, RenderStreamInfo(*info));
    }
    if (request.method == "GET") {
      std::string body = "{\"streams\":[";
      bool first = true;
      for (const StreamInfo& info : List()) {
        if (!first) body += ',';
        first = false;
        body += RenderStreamInfo(info);
      }
      body += "]}";
      return RenderHttpResponse(200, body);
    }
    return RenderHttpError(405, "use GET or POST");
  }
  std::string_view suffix;
  if (size_t id = 0; ParseStreamPath(request.path, &id, &suffix)) {
    if (suffix == "/checkpoint") {
      if (request.method == "GET") {
        auto blob = ExportStreamCheckpoint(id);
        if (!blob.ok()) {
          return RenderHttpError(StatusToHttp(blob.status()),
                                 blob.status().message());
        }
        return RenderHttpResponse(
            200,
            std::string_view(reinterpret_cast<const char*>(blob->data()),
                             blob->size()),
            "application/octet-stream");
      }
      if (request.method == "PUT") {
        const Status status = ImportStreamCheckpoint(
            id, std::span<const uint8_t>(
                    reinterpret_cast<const uint8_t*>(request.body.data()),
                    request.body.size()));
        if (!status.ok()) {
          return RenderHttpError(StatusToHttp(status), status.message());
        }
        return RenderHttpResponse(200, "{\"stream\":" + std::to_string(id) +
                                           ",\"imported\":true}");
      }
      return RenderHttpError(405, "use GET or PUT");
    }
    if (!suffix.empty()) {
      return RenderHttpError(404, "no route for " + std::string(request.path));
    }
    if (request.method == "GET") {
      auto info = Describe(id);
      if (!info.ok()) {
        return RenderHttpError(StatusToHttp(info.status()),
                               info.status().message());
      }
      std::string body = RenderStreamInfo(*info);
      const long tail = request.QueryInt("tail", 0);
      if (tail > 0) {
        auto scores = RecentScores(id, static_cast<size_t>(tail));
        if (scores.ok()) {
          body.pop_back();  // reopen the object to append "scores"
          body += ",\"scores\":[";
          bool first = true;
          for (const double s : *scores) {
            if (!first) body += ',';
            first = false;
            body += JsonNumber(s);
          }
          body += "]}";
        }
      }
      return RenderHttpResponse(200, body);
    }
    if (request.method == "DELETE") {
      const Status status = DeleteStream(id);
      if (!status.ok()) {
        return RenderHttpError(StatusToHttp(status), status.message());
      }
      return RenderHttpResponse(200, "{\"stream\":" + std::to_string(id) +
                                         ",\"deleted\":true}");
    }
    return RenderHttpError(405, "use GET or DELETE");
  }
  if (request.path == "/v1/flush") {
    if (request.method != "POST") return RenderHttpError(405, "use POST");
    Flush();
    return RenderHttpResponse(200, "{\"flushed\":true}");
  }
  if (request.path == "/v1/checkpoint") {
    if (request.method != "POST") return RenderHttpError(405, "use POST");
    const Status status = CheckpointNow();
    if (!status.ok()) {
      return RenderHttpError(StatusToHttp(status), status.message());
    }
    return RenderHttpResponse(
        200, "{\"checkpoint\":" + JsonQuote(impl_->options.checkpoint_path) +
                 ",\"bytes\":" +
                 std::to_string(impl_->last_checkpoint_bytes.load(
                     std::memory_order_relaxed)) +
                 "}");
  }
  return RenderHttpError(404, "no route for " + std::string(request.path));
}

}  // namespace egi::service

// Checkpoint/restore through the public façade: survive a crash (or migrate
// to another node) without losing a fitted streaming detector. The stream's
// complete state — buffered history, rolling statistics, per-member
// word-frequency models, refit counters — serializes into one versioned,
// checksummed blob; a stream restored from it continues *bitwise-identically*
// to an uninterrupted run, down to the exact scores and refit boundaries.
//
// The demo runs the same feed three ways: (a) one uninterrupted stream,
// (b) a stream that is checkpointed to a file mid-feed, "crashes", and is
// restored from disk, and (c) a whole multi-stream StreamHub checkpointed
// as one blob — then verifies all continuations agree exactly.
//
// Build & run:  ./build/checkpoint_restore

#include <egi/egi.h>

#include <chrono>
#include <cstdio>
#include <vector>

int main() {
  const auto data = egi::data::MakePlanted(egi::data::Family::kTwoLeadEcg,
                                           /*seed=*/7);
  const std::vector<double>& feed = data.values;
  const size_t crash_at = feed.size() / 2;

  auto session = egi::Session::Open("ensemble");
  if (!session.ok()) {
    std::printf("open failed: %s\n", session.status().ToString().c_str());
    return 1;
  }
  egi::StreamOptions options;
  options.window_length = 82;
  options.buffer_capacity = 1024;
  options.refit_interval = 256;

  // (a) The uninterrupted reference run.
  auto uninterrupted = session->OpenStream(options);
  if (!uninterrupted.ok()) return 1;
  for (size_t i = 0; i < crash_at; ++i) uninterrupted->Append(feed[i]);

  // (b) An identical stream, checkpointed to disk mid-feed.
  auto victim = session->OpenStream(options);
  if (!victim.ok()) return 1;
  for (size_t i = 0; i < crash_at; ++i) victim->Append(feed[i]);

  const auto snap_t0 = std::chrono::steady_clock::now();
  const std::vector<uint8_t> blob = victim->Checkpoint();
  const double snap_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - snap_t0)
                             .count();
  // WriteCheckpointFile is crash-safe: temp file + fsync + atomic rename,
  // so a kill at any instant leaves the previous complete checkpoint (or
  // this one), never a truncated blob.
  const char* path = "/tmp/egi_checkpoint.bin";
  if (const auto st = egi::WriteCheckpointFile(path, blob); !st.ok()) {
    std::printf("checkpoint write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "checkpointed stream at point %zu: %zu bytes (%.1f us to "
      "serialize), %llu refits so far\n",
      crash_at, blob.size(), snap_us,
      static_cast<unsigned long long>(victim->refit_count()));

  // ---- the process "crashes" here; the victim stream is gone ----

  auto read_back = egi::ReadCheckpointFile(path);
  if (!read_back.ok()) {
    std::printf("checkpoint read failed: %s\n",
                read_back.status().ToString().c_str());
    return 1;
  }
  const std::vector<uint8_t>& from_disk = *read_back;
  const auto restore_t0 = std::chrono::steady_clock::now();
  auto restored = egi::StreamSession::Restore(from_disk);
  const double restore_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - restore_t0)
                                .count();
  if (!restored.ok()) {
    std::printf("restore failed: %s\n", restored.status().ToString().c_str());
    return 1;
  }
  std::printf("restored from %s in %.1f us\n", path, restore_us);

  // Continue both runs over the second half and compare every point.
  size_t mismatches = 0;
  for (size_t i = crash_at; i < feed.size(); ++i) {
    const egi::StreamPoint a = uninterrupted->Append(feed[i]);
    const egi::StreamPoint b = restored->Append(feed[i]);
    if (a.score != b.score && !(a.score != a.score && b.score != b.score)) {
      ++mismatches;  // bitwise disagreement (NaN-aware)
    }
    if (a.refit != b.refit) ++mismatches;
  }
  std::printf(
      "continued %zu points after the crash: %zu mismatches vs the "
      "uninterrupted run (refits %llu == %llu)\n",
      feed.size() - crash_at, mismatches,
      static_cast<unsigned long long>(uninterrupted->refit_count()),
      static_cast<unsigned long long>(restored->refit_count()));

  // A corrupted checkpoint is a clean error, never a crash.
  std::vector<uint8_t> corrupted = blob;
  corrupted[corrupted.size() / 2] ^= 0x10;
  const auto rejected = egi::StreamSession::Restore(corrupted);
  std::printf("tampered checkpoint rejected: %s\n",
              rejected.status().ToString().c_str());

  // (c) Whole-hub failover: three tenant streams checkpointed as one blob
  // through the thread pool, restored into a brand-new hub.
  auto hub = session->OpenHub(options);
  if (!hub.ok()) return 1;
  for (size_t s = 0; s < 3; ++s) {
    hub->AddStream();
    hub->Ingest(s, std::span<const double>(feed).first(crash_at));
  }

  const std::vector<uint8_t> checkpoint = hub->Checkpoint();
  auto standby = session->OpenHub(options);
  if (!standby.ok()) return 1;
  const egi::Status load = standby->Restore(checkpoint);
  std::printf(
      "hub checkpoint: %zu streams, %zu bytes -> standby hub %s "
      "(%zu streams)\n",
      hub->num_streams(), checkpoint.size(),
      load.ok() ? "restored" : load.ToString().c_str(),
      standby->num_streams());

  return mismatches == 0 && load.ok() ? 0 : 1;
}

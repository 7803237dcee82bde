#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/status.h"

namespace egi::serialize {

/// First bytes of every snapshot blob: "EGIS".
inline constexpr uint8_t kSnapshotMagic[4] = {'E', 'G', 'I', 'S'};

/// Current snapshot format version. Policy: any change to the byte layout of
/// an existing section bumps this (there is no in-place migration — decoders
/// reject versions above their own with Status, and callers re-fit or
/// re-snapshot). Purely additive trailing sections also bump it: the decoder
/// demands exact payload consumption, so older readers must never see newer
/// bytes. Writers always emit the current version; readers accept
/// [kMinSnapshotVersion, kSnapshotVersion] and the per-kind decoders skip
/// the sections an older revision did not write.
///
/// History: v1 = the original detector and engine-checkpoint layout; v2 adds
/// the adaptive-cadence options (prune_to, refit_policy, refit_interval_max,
/// drift_tolerance) and drift-gate runtime state. tests/stream_snapshot_test
/// pins both: the v1 golden fixture must keep decoding, the v2 golden pins
/// the current byte layout.
inline constexpr uint32_t kSnapshotVersion = 2;
inline constexpr uint32_t kMinSnapshotVersion = 1;

/// What a blob contains; part of the envelope so a detector snapshot can
/// never be restored as an engine checkpoint or vice versa.
enum class BlobKind : uint8_t {
  kStreamDetector = 1,  ///< one StreamDetector (StreamDetector::Serialize)
  kStreamEngine = 2,    ///< many detector snapshots, one section per stream
                        ///< (WrapEngineSections: StreamHub::Checkpoint and
                        ///< the egid checkpoint below)
  kServiceCheckpoint = 3,  ///< egid daemon checkpoint: stream manifest
                           ///< (tenants, names, tombstones) + the enclosed
                           ///< kStreamEngine blob (src/service/hub_service.cc)
};

/// CRC-32 (IEEE 802.3, reflected) of `data`. Snapshot payloads carry their
/// checksum in the envelope, so any bit flip anywhere in the payload is a
/// deterministic Status error rather than a silently different detector.
uint32_t Crc32(std::span<const uint8_t> data);

/// Wraps a payload in the versioned envelope:
///   magic(4) | version(u32 LE) | kind(u8) | payload_len(u64 LE) |
///   crc32(payload)(u32 LE) | payload
std::vector<uint8_t> WrapPayload(BlobKind kind,
                                 std::span<const uint8_t> payload);

/// Validates the envelope of `blob` (magic, version, kind, exact length,
/// checksum) and points `payload` at the enclosed bytes. Never reads out of
/// bounds; every malformed input yields a Status error. `version` (optional)
/// receives the accepted envelope revision so decoders can skip sections an
/// older writer did not emit.
Status UnwrapPayload(std::span<const uint8_t> blob, BlobKind expected_kind,
                     std::span<const uint8_t>* payload,
                     uint32_t* version = nullptr);

/// Frames per-stream detector snapshots as one kStreamEngine blob: the
/// payload is `count | count x (section_len | section)`, and the envelope
/// checksum covers every stream. Section i is stream i. The only writer of
/// the kind-2 framing.
std::vector<uint8_t> WrapEngineSections(
    std::span<const std::vector<uint8_t>> sections);

/// Inverse of WrapEngineSections: validates the envelope and the framing
/// (exact consumption) and points `sections` into `engine_blob`, one span per
/// stream, without decoding any detector. Each span is that stream's
/// complete kStreamDetector envelope, restorable on its own. Every malformed
/// input is a Status error, and `sections` is only written on success.
Status UnwrapEngineSections(std::span<const uint8_t> engine_blob,
                            std::vector<std::span<const uint8_t>>* sections);

}  // namespace egi::serialize

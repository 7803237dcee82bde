#include "serialize/format.h"

#include <array>
#include <string>
#include <utility>

#include "serialize/bytes.h"

namespace egi::serialize {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (const uint8_t byte : data) {
    crc = kTable[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> WrapPayload(BlobKind kind,
                                 std::span<const uint8_t> payload) {
  ByteWriter w;
  w.PutBytes(std::span<const uint8_t>(kSnapshotMagic, 4));
  w.PutU32(kSnapshotVersion);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutU64(payload.size());
  w.PutU32(Crc32(payload));
  w.PutBytes(payload);
  return w.Take();
}

Status UnwrapPayload(std::span<const uint8_t> blob, BlobKind expected_kind,
                     std::span<const uint8_t>* payload, uint32_t* version_out) {
  ByteReader r(blob);
  uint8_t magic[4] = {0, 0, 0, 0};
  for (auto& b : magic) {
    EGI_RETURN_IF_ERROR(r.ReadU8(&b));
  }
  for (int i = 0; i < 4; ++i) {
    if (magic[i] != kSnapshotMagic[i]) {
      return Status::InvalidArgument("not an EGIS snapshot (bad magic)");
    }
  }
  uint32_t version = 0;
  EGI_RETURN_IF_ERROR(r.ReadU32(&version));
  if (version < kMinSnapshotVersion || version > kSnapshotVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(version) +
        " (this build reads versions " + std::to_string(kMinSnapshotVersion) +
        " through " + std::to_string(kSnapshotVersion) + ")");
  }
  if (version_out != nullptr) *version_out = version;
  uint8_t kind = 0;
  EGI_RETURN_IF_ERROR(r.ReadU8(&kind));
  if (kind != static_cast<uint8_t>(expected_kind)) {
    return Status::InvalidArgument(
        "snapshot kind " + std::to_string(kind) + " where kind " +
        std::to_string(static_cast<uint8_t>(expected_kind)) + " expected");
  }
  uint64_t length = 0;
  EGI_RETURN_IF_ERROR(r.ReadU64(&length));
  uint32_t crc = 0;
  EGI_RETURN_IF_ERROR(r.ReadU32(&crc));
  if (length != r.remaining()) {
    return Status::InvalidArgument("payload length mismatch (truncated blob)");
  }
  const std::span<const uint8_t> body = blob.subspan(r.position());
  if (Crc32(body) != crc) {
    return Status::InvalidArgument("snapshot checksum mismatch (corrupted)");
  }
  *payload = body;
  return Status::OK();
}

std::vector<uint8_t> WrapEngineSections(
    std::span<const std::vector<uint8_t>> sections) {
  ByteWriter w;
  w.PutVarint(sections.size());
  for (const auto& section : sections) {
    w.PutVarint(section.size());
    w.PutBytes(section);
  }
  return WrapPayload(BlobKind::kStreamEngine, w.bytes());
}

Status UnwrapEngineSections(std::span<const uint8_t> engine_blob,
                            std::vector<std::span<const uint8_t>>* sections) {
  std::span<const uint8_t> payload;
  EGI_RETURN_IF_ERROR(
      UnwrapPayload(engine_blob, BlobKind::kStreamEngine, &payload));
  ByteReader r(payload);
  size_t count = 0;
  EGI_RETURN_IF_ERROR(r.ReadLength(&count, /*min_bytes_per_element=*/1));
  std::vector<std::span<const uint8_t>> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t length = 0;
    EGI_RETURN_IF_ERROR(r.ReadLength(&length, 1));
    out.push_back(payload.subspan(r.position(), length));
    // ReadLength validated length <= remaining, so the skip stays in range.
    EGI_RETURN_IF_ERROR(r.Skip(length));
  }
  EGI_RETURN_IF_ERROR(r.ExpectEnd());
  *sections = std::move(out);
  return Status::OK();
}

}  // namespace egi::serialize

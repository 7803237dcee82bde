#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace egi::serialize {

/// Crash-safe whole-file write: the bytes land in `path + ".tmp"`, are
/// fsync'd, and only then atomically rename(2)'d over `path` (the directory
/// is fsync'd too, so the rename itself survives a power cut). A process
/// killed at any instant therefore leaves either the previous complete file
/// or the new complete file at `path` — never a truncated blob. This is the
/// one way checkpoints reach disk (egi::WriteCheckpointFile, the egid
/// periodic checkpointer); tests/serialize_test.cc proves the
/// crashed-mid-write case restores the prior checkpoint.
///
/// A stale `path + ".tmp"` left by a crashed writer is silently replaced by
/// the next successful write.
Status WriteFileAtomic(const std::string& path, std::span<const uint8_t> bytes);

/// Reads the whole file into memory. NotFound when it does not exist; other
/// I/O failures are Internal.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

}  // namespace egi::serialize

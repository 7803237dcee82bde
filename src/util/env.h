#pragma once

#include <cstdint>
#include <string>

namespace egi {

/// Reads an integer environment variable, returning `fallback` when unset or
/// unparsable. Used by the bench binaries for knobs like
/// EGI_SERIES_PER_DATASET without growing a CLI-parsing dependency.
int64_t GetEnvInt(const char* name, int64_t fallback);

/// Reads a boolean env var; "1", "true", "yes", "on" (case-insensitive) are
/// true; anything else (or unset) yields `fallback`.
bool GetEnvBool(const char* name, bool fallback);

/// Reads a string env var with fallback.
std::string GetEnvString(const char* name, const std::string& fallback);

/// Resolves the library-wide thread-count knob: EGI_NUM_THREADS when set to
/// a positive integer, otherwise hardware_concurrency; always clamped >= 1.
/// exec::Parallelism::FromEnv() is the usual consumer.
int GetEnvNumThreads();

}  // namespace egi

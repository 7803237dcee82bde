#include "util/env.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <thread>

namespace egi {

namespace {

// strtoll skips leading whitespace itself; skip it after the number too, so
// " 4" and "4 " parse symmetrically (daemon config files and shell-exported
// values routinely carry a stray trailing space).
const char* SkipTrailingSpace(const char* p) {
  while (p != nullptr && *p != '\0' &&
         std::isspace(static_cast<unsigned char>(*p))) {
    ++p;
  }
  return p;
}

}  // namespace

int64_t GetEnvInt(const char* name, int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(raw, &end, 10);
  if (end == raw) return fallback;
  if (const char* rest = SkipTrailingSpace(end); rest != nullptr && *rest != '\0') {
    return fallback;
  }
  // Out-of-range values saturate to LLONG_MIN/MAX with errno == ERANGE;
  // treat them as unparsable rather than silently using the clamp.
  if (errno == ERANGE) return fallback;
  return static_cast<int64_t>(v);
}

bool GetEnvBool(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  std::string v(raw);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!v.empty() && is_space(static_cast<unsigned char>(v.front()))) v.erase(v.begin());
  while (!v.empty() && is_space(static_cast<unsigned char>(v.back()))) v.pop_back();
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  return fallback;
}

std::string GetEnvString(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return raw;
}

int GetEnvNumThreads() {
  const int64_t requested = GetEnvInt("EGI_NUM_THREADS", 0);
  if (requested >= 1) {
    return static_cast<int>(
        std::min<int64_t>(requested, std::numeric_limits<int>::max()));
  }
  // Read once: hardware_concurrency() costs a sysfs read, and every
  // default-constructed EnsembleParams (one per opened stream) asks.
  static const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return cores;
}

}  // namespace egi

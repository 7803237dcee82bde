#include "util/flags.h"

#include <cstdlib>
#include <string>

#include "util/env.h"

namespace egi {

const char* Flags::Find(std::string_view name) const {
  for (int i = 1; i < argc_; ++i) {
    const std::string_view arg = argv_[i];
    if (arg.substr(0, 2) != "--" || arg.substr(2, name.size()) != name) {
      continue;
    }
    const std::string_view rest = arg.substr(2 + name.size());
    if (!rest.empty() && rest.front() == '=') return argv_[i] + 3 + name.size();
    if (rest.empty() && i + 1 < argc_) return argv_[i + 1];
  }
  return nullptr;
}

int64_t Flags::Int(std::string_view name, int64_t fallback,
                   const char* env) const {
  if (const char* v = Find(name); v != nullptr) return std::atoll(v);
  return env != nullptr ? GetEnvInt(env, fallback) : fallback;
}

double Flags::Double(std::string_view name, double fallback,
                     const char* env) const {
  if (const char* v = Find(name); v != nullptr) return std::atof(v);
  return env != nullptr ? GetEnvDouble(env, fallback) : fallback;
}

std::string Flags::Str(std::string_view name, const std::string& fallback,
                       const char* env) const {
  if (const char* v = Find(name); v != nullptr) return v;
  return env != nullptr ? GetEnvString(env, fallback) : fallback;
}

Status Flags::Count(std::string_view name, size_t fallback, const char* env,
                    size_t* out) const {
  const int64_t v = Int(name, static_cast<int64_t>(fallback), env);
  if (v < 0) {
    // Name where the value came from: the flag, else its environment twin.
    const std::string source = Find(name) == nullptr && env != nullptr
                                   ? std::string(env)
                                   : "--" + std::string(name);
    return Status::InvalidArgument(source + " must be >= 0, got " +
                                   std::to_string(v));
  }
  *out = static_cast<size_t>(v);
  return Status::OK();
}

}  // namespace egi

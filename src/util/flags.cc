#include "util/flags.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

#include "util/env.h"

namespace egi {

namespace {

// Int(), Double() and Count() in one, parsing as the registry parses spec
// values (the whole text is one number) and holding the value to `min`.
template <typename T>
Status ReadNumber(const Flags& flags, std::string_view name, T fallback,
                  const char* env, T* out,
                  T min = std::numeric_limits<T>::lowest()) {
  const char* flag = flags.Find(name);
  const char* text =
      flag != nullptr || env == nullptr ? flag : std::getenv(env);
  T v = fallback;
  if (text != nullptr && (flag != nullptr || *text != '\0')) {
    const std::string source = flag != nullptr ? "--" + std::string(name) : env;
    const char* end = text + std::string_view(text).size();
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v)) {
      return Status::InvalidArgument(
          source + " expects " +
          (std::is_integral_v<T> ? "an integer" : "a finite number") +
          ", got '" + text + "'");
    }
    if (v < min) {
      return Status::InvalidArgument(source + " must be >= " +
                                     std::to_string(min) + ", got " +
                                     std::to_string(v));
    }
  }
  *out = v;
  return Status::OK();
}

}  // namespace

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

Status Flags::Int(std::string_view name, int fallback, const char* env,
                  int* out) const {
  return ReadNumber(*this, name, fallback, env, out);
}

Status Flags::Double(std::string_view name, double fallback, const char* env,
                     double* out) const {
  return ReadNumber(*this, name, fallback, env, out);
}

std::string Flags::Str(std::string_view name, const std::string& fallback,
                       const char* env) const {
  if (const char* v = Find(name); v != nullptr) return v;
  return env != nullptr ? GetEnvString(env, fallback) : fallback;
}

Status Flags::Count(std::string_view name, size_t fallback, const char* env,
                    size_t* out) const {
  int64_t v = 0;
  EGI_RETURN_IF_ERROR(ReadNumber(*this, name, static_cast<int64_t>(fallback),
                                 env, &v, int64_t{0}));
  *out = static_cast<size_t>(v);
  return Status::OK();
}

}  // namespace egi

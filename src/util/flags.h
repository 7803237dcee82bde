#pragma once

// The command-line reader of egid, egid_router and loadgen: `--name=value`
// or `--name value` from argv, falling back to an optional environment
// twin (parsed by util/env.h) and then to a default.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace egi {

class Flags {
 public:
  Flags(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// The value given for --name, or nullptr when the flag is absent.
  const char* Find(std::string_view name) const;

  /// --name's value (atoll / atof for the numbers), else the environment
  /// variable `env` when it is non-null and set, else `fallback`.
  int64_t Int(std::string_view name, int64_t fallback,
              const char* env = nullptr) const;
  double Double(std::string_view name, double fallback,
                const char* env = nullptr) const;
  std::string Str(std::string_view name, const std::string& fallback,
                  const char* env = nullptr) const;

  /// Int() for a size or count flag: stores the value in `*out`, or returns
  /// InvalidArgument "--name must be >= 0, got <v>" when it is negative (a
  /// negative size would otherwise wrap to a huge one); a negative value
  /// read from `env` is reported under the variable's name instead.
  Status Count(std::string_view name, size_t fallback, const char* env,
               size_t* out) const;

 private:
  int argc_;
  char** argv_;
};

}  // namespace egi

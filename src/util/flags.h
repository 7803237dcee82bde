#pragma once

// The command-line reader of egid, egid_router and loadgen: `--name=value`
// or `--name value` from argv, falling back to an optional environment
// twin and then to a default.

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

  /// Stores --name's value in `*out`, else that of the environment variable
  /// `env` when it is non-null and set to a non-empty value, else
  /// `fallback`. The whole value must be one number: a suffix, garbage or an
  /// empty --name= is InvalidArgument naming where the value came from, e.g.
  /// "--buffer expects an integer, got '4k'", and leaves `*out` untouched.
  Status Int(std::string_view name, int fallback, const char* env,
             int* out) const;
  Status Double(std::string_view name, double fallback, const char* env,
                double* out) const;
  std::string Str(std::string_view name, const std::string& fallback,
                  const char* env = nullptr) const;

  /// Int() for a size or count flag: a negative value is InvalidArgument
  /// "--name must be >= 0, got <v>" ("<env> must be ..." when it came from
  /// the variable), since it would otherwise wrap to a huge size.
  Status Count(std::string_view name, size_t fallback, const char* env,
               size_t* out) const;

 private:
  int argc_;
  char** argv_;
};

}  // namespace egi

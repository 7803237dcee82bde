#pragma once

// Internal plumbing of the public façade (NOT installed): the registry's
// entry table, spec-option resolution, and detector construction. The
// installed view of all of this is include/egi/{registry,spec,session}.h.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/ensemble.h"
#include "egi/registry.h"
#include "egi/spec.h"
#include "util/result.h"

namespace egi::api {

/// One resolved option value (the schema position tells the key and type).
struct OptionValue {
  int64_t i = 0;    ///< kInt payload
  uint64_t u = 0;   ///< kUint64 payload
  double d = 0.0;   ///< kDouble payload
};

/// A spec resolved against one registry entry: every schema key carries a
/// typed value (spec-provided or default), accessed by key. Lookup of a key
/// absent from the schema is a programmer error (aborts).
class OptionValues {
 public:
  OptionValues(const DetectorInfo* info, std::vector<OptionValue> values)
      : info_(info), values_(std::move(values)) {}

  int64_t GetInt(std::string_view key) const;
  uint64_t GetUint(std::string_view key) const;
  double GetDouble(std::string_view key) const;

  const DetectorInfo& info() const { return *info_; }
  std::span<const OptionValue> raw() const { return values_; }

 private:
  const OptionValue& At(std::string_view key, OptionType type) const;

  const DetectorInfo* info_;
  std::vector<OptionValue> values_;  // parallel to info_->options
};

/// One registry entry: the public info plus the construction hooks the
/// façade drives. `ensemble` is null for methods that cannot stream
/// (info.supports_streaming mirrors this); info.supports_score mirrors
/// whether the built detector implements Score.
struct DetectorEntry {
  DetectorInfo info;

  /// Range/consistency validation of resolved values (beyond type parsing).
  Status (*validate)(const OptionValues& v);

  /// Builds the configured batch detector.
  std::unique_ptr<core::AnomalyDetector> (*make)(const OptionValues& v);

  /// Algorithm 1 parameters for streaming (window_length left 0 for the
  /// stream options to fill in).
  core::EnsembleParams (*ensemble)(const OptionValues& v);
};

std::span<const DetectorEntry> Entries();
const DetectorEntry* FindEntry(std::string_view name);

/// The canonical "unknown detector" error, listing what is registered
/// (shared by BuildDetector and Session::Open).
Status UnknownDetectorError(std::string_view name);

/// Resolves `spec` against `entry`'s schema: every key must be known, every
/// value must parse as its schema type, and `entry->validate` must accept
/// the result. Defaults (including the env-derived `threads`) fill the gaps.
Result<OptionValues> ResolveOptions(const DetectorEntry& entry,
                                    const DetectorSpec& spec);

/// Fully-resolved canonical spec string: every schema key in schema order
/// with its effective value. Parsing it back resolves to identical values.
std::string CanonicalSpec(const DetectorEntry& entry, const OptionValues& v);

/// Resolves and validates `spec`, then builds the detector (how the
/// experiment runner builds the paper's methods from their specs).
Result<std::unique_ptr<core::AnomalyDetector>> BuildDetector(
    const DetectorSpec& spec);

/// Shortest decimal rendering of `value` that round-trips through strtod
/// (spec-string value formatting).
std::string FormatSpecDouble(double value);

}  // namespace egi::api

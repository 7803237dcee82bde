#include "api/internal.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <string>

#include "exec/parallel.h"
#include "sax/breakpoints.h"
#include "sax/word_code.h"
#include "util/check.h"

namespace egi {

std::string_view OptionTypeName(OptionType type) {
  switch (type) {
    case OptionType::kInt:
      return "int";
    case OptionType::kUint64:
      return "uint64";
    case OptionType::kDouble:
      return "double";
  }
  return "unknown";
}

namespace api {

// Shortest decimal rendering that round-trips exactly (std::to_chars
// default), so canonical specs stay short ("0.4", not
// "0.40000000000000002") yet lossless. Locale-independent by construction —
// the spec grammar must not change under a comma-decimal LC_NUMERIC.
std::string FormatSpecDouble(double value) {
  char buf[40];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, ptr);
}

namespace {

// ------------------------------------------------------------- value parsing

// All parsing goes through std::from_chars: locale-independent (the public
// spec grammar must not bend under a consumer's LC_NUMERIC) and strict —
// the whole value must be consumed.
Status ParseValue(const OptionSpec& opt, const std::string& text,
                  OptionValue* out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  switch (opt.type) {
    case OptionType::kInt: {
      int64_t v = 0;
      const auto [ptr, ec] = std::from_chars(begin, end, v);
      if (ec != std::errc() || ptr != end) {
        return Status::InvalidArgument("option '" + std::string(opt.key) +
                                       "' expects an int, got '" + text + "'");
      }
      // Every kInt option feeds a C++ int downstream; reject instead of
      // silently narrowing (4294967298 must not wrap to 2).
      if (v < std::numeric_limits<int>::min() ||
          v > std::numeric_limits<int>::max()) {
        return Status::OutOfRange("option '" + std::string(opt.key) +
                                  "' is outside the int range: " + text);
      }
      out->i = v;
      return Status::OK();
    }
    case OptionType::kUint64: {
      uint64_t v = 0;
      const auto [ptr, ec] = std::from_chars(begin, end, v);
      if (ec != std::errc() || ptr != end) {
        return Status::InvalidArgument("option '" + std::string(opt.key) +
                                       "' expects a uint64, got '" + text +
                                       "'");
      }
      out->u = v;
      return Status::OK();
    }
    case OptionType::kDouble: {
      double v = 0.0;
      const auto [ptr, ec] = std::from_chars(begin, end, v);
      if (ec != std::errc() || ptr != end || !std::isfinite(v)) {
        return Status::InvalidArgument("option '" + std::string(opt.key) +
                                       "' expects a finite double, got '" +
                                       text + "'");
      }
      out->d = v;
      return Status::OK();
    }
  }
  return Status::Internal("unhandled option type");
}


std::string FormatValue(const OptionSpec& opt, const OptionValue& v) {
  switch (opt.type) {
    case OptionType::kInt:
      return std::to_string(v.i);
    case OptionType::kUint64:
      return std::to_string(v.u);
    case OptionType::kDouble:
      return FormatSpecDouble(v.d);
  }
  return "?";
}

// ------------------------------------------------------------------ schemas

constexpr OptionSpec kEnsembleOptions[] = {
    {"wmax", OptionType::kInt, "10", "PAA sizes drawn from [2, wmax]"},
    {"amax", OptionType::kInt, "10", "alphabet sizes drawn from [2, amax]"},
    {"n", OptionType::kInt, "50", "ensemble size N (distinct (w, a) draws)"},
    {"tau", OptionType::kDouble, "0.4",
     "selectivity: fraction of curves kept by std-dev rank, in (0, 1]"},
    {"seed", OptionType::kUint64, "42", "RNG seed for the parameter draw"},
    {"prune_to", OptionType::kInt, "0",
     "two-stage construction: full induction only for the top-k screened "
     "candidates (0 = build all N)"},
    {"threads", OptionType::kInt, "env",
     "intra-detector parallelism; default EGI_NUM_THREADS or all cores"},
};

constexpr OptionSpec kGiRandomOptions[] = {
    {"wmax", OptionType::kInt, "10", "PAA size drawn from [2, wmax]"},
    {"amax", OptionType::kInt, "10", "alphabet size drawn from [2, amax]"},
    {"seed", OptionType::kUint64, "42", "RNG seed for the per-call draw"},
};

constexpr OptionSpec kGiFixOptions[] = {
    {"w", OptionType::kInt, "4", "fixed PAA size"},
    {"a", OptionType::kInt, "4", "fixed alphabet size"},
};

constexpr OptionSpec kGiSelectOptions[] = {
    {"wmax", OptionType::kInt, "10", "grid-search PAA sizes in [2, wmax]"},
    {"amax", OptionType::kInt, "10",
     "grid-search alphabet sizes in [2, amax]"},
    {"train", OptionType::kDouble, "0.1",
     "training-prefix fraction for the MDL grid search, in (0, 1]"},
};

constexpr OptionSpec kDiscordOptions[] = {
    {"threads", OptionType::kInt, "env",
     "STOMP row parallelism; default EGI_NUM_THREADS or all cores"},
};

// --------------------------------------------------- shared range validators

Status CheckAlphabetRange(std::string_view key, int64_t a) {
  if (a < sax::kMinAlphabetSize || a > sax::kMaxAlphabetSize) {
    return Status::OutOfRange(
        std::string(key) + " must be in [" +
        std::to_string(sax::kMinAlphabetSize) + ", " +
        std::to_string(sax::kMaxAlphabetSize) + "], got " + std::to_string(a));
  }
  return Status::OK();
}

// The widest drawable (w, a) must pack into the 128-bit word code — the
// same draw-independent rejection ValidateSaxParams / ValidateEnsembleParams
// apply, surfaced at spec time so a bad spec fails at Open, not at Detect.
Status CheckWordCodeFits(int64_t w, int64_t a) {
  if (!sax::WordCodec::Supported(static_cast<int>(w), static_cast<int>(a))) {
    return Status::OutOfRange(
        "SAX word (w=" + std::to_string(w) + ", a=" + std::to_string(a) +
        ") needs " +
        std::to_string(w * sax::BitsPerSymbol(static_cast<int>(a))) +
        " bits, exceeding the " + std::to_string(sax::kWordCodeBits) +
        "-bit packed word code; reduce w or a");
  }
  return Status::OK();
}

Status CheckThreads(const OptionValues& v) {
  if (v.GetInt("threads") < 1) {
    return Status::OutOfRange("threads must be >= 1, got " +
                              std::to_string(v.GetInt("threads")));
  }
  return Status::OK();
}

// ----------------------------------------------------------------- ensemble

Status ValidateEnsemble(const OptionValues& v) {
  const int64_t wmax = v.GetInt("wmax");
  const int64_t amax = v.GetInt("amax");
  if (wmax < 2) {
    return Status::OutOfRange("wmax must be >= 2, got " +
                              std::to_string(wmax));
  }
  EGI_RETURN_IF_ERROR(CheckAlphabetRange("amax", amax));
  EGI_RETURN_IF_ERROR(CheckWordCodeFits(wmax, amax));
  if (v.GetInt("n") < 1) {
    return Status::OutOfRange("n (ensemble size) must be >= 1, got " +
                              std::to_string(v.GetInt("n")));
  }
  const double tau = v.GetDouble("tau");
  if (tau <= 0.0 || tau > 1.0) {
    return Status::OutOfRange("tau (selectivity) must be in (0, 1], got " +
                              FormatSpecDouble(tau));
  }
  if (v.GetInt("prune_to") < 0) {
    return Status::OutOfRange("prune_to must be >= 0, got " +
                              std::to_string(v.GetInt("prune_to")));
  }
  return CheckThreads(v);
}

core::EnsembleParams EnsembleParamsOf(const OptionValues& v) {
  core::EnsembleParams p;
  p.wmax = static_cast<int>(v.GetInt("wmax"));
  p.amax = static_cast<int>(v.GetInt("amax"));
  p.ensemble_size = static_cast<int>(v.GetInt("n"));
  p.selectivity = v.GetDouble("tau");
  p.seed = v.GetUint("seed");
  p.prune_to = static_cast<int>(v.GetInt("prune_to"));
  p.parallelism =
      exec::Parallelism::Fixed(static_cast<int>(v.GetInt("threads")));
  return p;
}

std::unique_ptr<core::AnomalyDetector> MakeEnsemble(const OptionValues& v) {
  return std::make_unique<core::EnsembleGiDetector>(EnsembleParamsOf(v));
}

// ---------------------------------------------------------------- gi-random

Status ValidateGiRandom(const OptionValues& v) {
  const int64_t wmax = v.GetInt("wmax");
  const int64_t amax = v.GetInt("amax");
  if (wmax < 2) {
    return Status::OutOfRange("wmax must be >= 2, got " +
                              std::to_string(wmax));
  }
  EGI_RETURN_IF_ERROR(CheckAlphabetRange("amax", amax));
  return CheckWordCodeFits(wmax, amax);
}

std::unique_ptr<core::AnomalyDetector> MakeGiRandom(const OptionValues& v) {
  return std::make_unique<core::RandomGiDetector>(
      static_cast<int>(v.GetInt("wmax")), static_cast<int>(v.GetInt("amax")),
      v.GetUint("seed"));
}

// ------------------------------------------------------------------- gi-fix

Status ValidateGiFix(const OptionValues& v) {
  const int64_t w = v.GetInt("w");
  const int64_t a = v.GetInt("a");
  if (w < 1) {
    return Status::OutOfRange("w must be >= 1, got " + std::to_string(w));
  }
  EGI_RETURN_IF_ERROR(CheckAlphabetRange("a", a));
  return CheckWordCodeFits(w, a);
}

std::unique_ptr<core::AnomalyDetector> MakeGiFix(const OptionValues& v) {
  return std::make_unique<core::FixedGiDetector>(
      static_cast<int>(v.GetInt("w")), static_cast<int>(v.GetInt("a")));
}

// ---------------------------------------------------------------- gi-select

Status ValidateGiSelect(const OptionValues& v) {
  const int64_t wmax = v.GetInt("wmax");
  const int64_t amax = v.GetInt("amax");
  if (wmax < 2) {
    return Status::OutOfRange("wmax must be >= 2, got " +
                              std::to_string(wmax));
  }
  EGI_RETURN_IF_ERROR(CheckAlphabetRange("amax", amax));
  EGI_RETURN_IF_ERROR(CheckWordCodeFits(wmax, amax));
  const double train = v.GetDouble("train");
  if (train <= 0.0 || train > 1.0) {
    return Status::OutOfRange("train fraction must be in (0, 1], got " +
                              FormatSpecDouble(train));
  }
  return Status::OK();
}

std::unique_ptr<core::AnomalyDetector> MakeGiSelect(const OptionValues& v) {
  return std::make_unique<core::SelectGiDetector>(
      static_cast<int>(v.GetInt("wmax")), static_cast<int>(v.GetInt("amax")),
      v.GetDouble("train"));
}

// ------------------------------------------------------------------ discord

Status ValidateDiscord(const OptionValues& v) { return CheckThreads(v); }

std::unique_ptr<core::AnomalyDetector> MakeDiscord(const OptionValues& v) {
  return std::make_unique<core::DiscordDetector>(
      exec::Parallelism::Fixed(static_cast<int>(v.GetInt("threads"))));
}

// ---------------------------------------------------------------- the table

// Registration order is the paper's method order (Section 7.1.3); it is the
// deterministic order ListDetectors() and --list-methods print.
const DetectorEntry kEntries[] = {
    {{"ensemble",
      "ensemble grammar induction, the paper's Algorithm 1 (Proposed)",
      kEnsembleOptions, /*supports_streaming=*/true, /*supports_score=*/true},
     ValidateEnsemble, MakeEnsemble, EnsembleParamsOf},
    {{"gi-random", "single GI run, random (w, a) per call", kGiRandomOptions,
      false, false},
     ValidateGiRandom, MakeGiRandom, nullptr},
    {{"gi-fix", "single GI run with fixed (w, a)", kGiFixOptions, false,
      true},
     ValidateGiFix, MakeGiFix, nullptr},
    {{"gi-select", "single GI run, (w, a) from MDL grid search on a prefix",
      kGiSelectOptions, false, true},
     ValidateGiSelect, MakeGiSelect, nullptr},
    {{"discord", "STOMP matrix-profile discords (distance baseline)",
      kDiscordOptions, false, false},
     ValidateDiscord, MakeDiscord, nullptr},
};

}  // namespace

std::span<const DetectorEntry> Entries() { return kEntries; }

const DetectorEntry* FindEntry(std::string_view name) {
  for (const DetectorEntry& entry : kEntries) {
    if (entry.info.name == name) return &entry;
  }
  return nullptr;
}

Status UnknownDetectorError(std::string_view name) {
  std::string names;
  for (const DetectorEntry& entry : kEntries) {
    if (!names.empty()) names += ", ";
    names += entry.info.name;
  }
  return Status::NotFound("unknown detector '" + std::string(name) +
                          "'; registered: " + names);
}

// -------------------------------------------------------------- OptionValues

const OptionValue& OptionValues::At(std::string_view key,
                                    OptionType type) const {
  for (size_t i = 0; i < info_->options.size(); ++i) {
    if (info_->options[i].key == key) {
      EGI_CHECK(info_->options[i].type == type)
          << "option '" << key << "' of '" << info_->name
          << "' accessed as the wrong type";
      return values_[i];
    }
  }
  EGI_CHECK(false) << "option '" << key << "' is not in the schema of '"
                   << info_->name << "'";
  return values_[0];  // unreachable
}

int64_t OptionValues::GetInt(std::string_view key) const {
  return At(key, OptionType::kInt).i;
}

uint64_t OptionValues::GetUint(std::string_view key) const {
  return At(key, OptionType::kUint64).u;
}

double OptionValues::GetDouble(std::string_view key) const {
  return At(key, OptionType::kDouble).d;
}

// ---------------------------------------------------------------- resolution

Result<OptionValues> ResolveOptions(const DetectorEntry& entry,
                                    const DetectorSpec& spec) {
  const std::span<const OptionSpec> schema = entry.info.options;

  // Duplicates are caught here, not only in DetectorSpec::Parse, so a spec
  // assembled programmatically gets the same contract as a parsed string.
  for (size_t i = 0; i < spec.options.size(); ++i) {
    for (size_t j = i + 1; j < spec.options.size(); ++j) {
      if (spec.options[i].first == spec.options[j].first) {
        return Status::InvalidArgument("duplicate option key '" +
                                       spec.options[i].first + "'");
      }
    }
  }

  // Every spec key must be in the schema.
  for (const auto& [key, value] : spec.options) {
    bool known = false;
    for (const OptionSpec& opt : schema) {
      if (opt.key == key) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string known_keys;
      for (const OptionSpec& opt : schema) {
        if (!known_keys.empty()) known_keys += ", ";
        known_keys += opt.key;
      }
      return Status::InvalidArgument(
          "unknown option '" + key + "' for method '" +
          std::string(entry.info.name) + "' (known: " +
          (known_keys.empty() ? "none" : known_keys) + ")");
    }
  }

  // Fill every schema slot from the spec or the default.
  std::vector<OptionValue> values(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    const OptionSpec& opt = schema[i];
    if (const std::string* given = spec.Find(opt.key)) {
      EGI_RETURN_IF_ERROR(ParseValue(opt, *given, &values[i]));
    } else if (opt.default_value == "env") {
      // The one environment-derived default: thread counts follow
      // EGI_NUM_THREADS / hardware_concurrency (see DESIGN.md).
      values[i].i = exec::Parallelism::FromEnv().threads;
    } else {
      EGI_RETURN_IF_ERROR(
          ParseValue(opt, std::string(opt.default_value), &values[i]));
    }
  }

  OptionValues resolved(&entry.info, std::move(values));
  if (entry.validate != nullptr) {
    EGI_RETURN_IF_ERROR(entry.validate(resolved));
  }
  return resolved;
}

std::string CanonicalSpec(const DetectorEntry& entry, const OptionValues& v) {
  std::string out(entry.info.name);
  for (size_t i = 0; i < entry.info.options.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += entry.info.options[i].key;
    out += '=';
    out += FormatValue(entry.info.options[i], v.raw()[i]);
  }
  return out;
}

Result<std::unique_ptr<core::AnomalyDetector>> BuildDetector(
    const DetectorSpec& spec) {
  const DetectorEntry* entry = FindEntry(spec.method);
  if (entry == nullptr) return UnknownDetectorError(spec.method);
  EGI_ASSIGN_OR_RETURN(auto values, ResolveOptions(*entry, spec));
  return entry->make(values);
}

}  // namespace api

// ------------------------------------------------------- public registry view

std::span<const DetectorInfo> ListDetectors() {
  static const std::vector<DetectorInfo> infos = [] {
    std::vector<DetectorInfo> out;
    for (const api::DetectorEntry& entry : api::Entries()) {
      out.push_back(entry.info);
    }
    return out;
  }();
  return infos;
}

const DetectorInfo* FindDetector(std::string_view name) {
  const api::DetectorEntry* entry = api::FindEntry(name);
  return entry == nullptr ? nullptr : &entry->info;
}

std::string FormatDetectorList() {
  std::string out;
  for (const DetectorInfo& info : ListDetectors()) {
    out += info.name;
    out += ": ";
    out += info.summary;
    out += " (";
    for (size_t i = 0; i < info.options.size(); ++i) {
      if (i > 0) out += ", ";
      out += info.options[i].key;
      out += '=';
      out += info.options[i].default_value;
      out += '[';
      out += OptionTypeName(info.options[i].type);
      out += ']';
    }
    if (info.options.empty()) out += "no options";
    out += ")\n";
  }
  return out;
}

}  // namespace egi

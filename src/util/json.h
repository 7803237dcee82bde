#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace egi {

/// Escapes `s` for inclusion inside a double-quoted JSON string: quote,
/// backslash, and control characters become their JSON escape sequences.
/// The one escaping routine in the tree — the bench JSON-lines emitter and
/// the telemetry MetricsJson renderer both route through it, so a method
/// spec containing `"` or `\` can never produce an invalid line from either.
std::string JsonEscape(std::string_view s);

/// `"escaped"` — `s` escaped and wrapped in double quotes.
std::string JsonQuote(std::string_view s);

/// Inverse of JsonEscape: decodes the *contents* of a JSON string literal
/// (no surrounding quotes) into `out`. Handles every escape JSON defines,
/// including \uXXXX (with surrogate pairs). Returns false on malformed
/// input — truncated escapes, bad hex, lone surrogates, or raw quote /
/// control bytes that a conforming encoder would have escaped. Used by the
/// service control plane to read client-supplied JSON fields, and by the
/// hostile-label round-trip tests.
bool JsonUnescape(std::string_view s, std::string* out);

/// Shortest decimal rendering of `value` that round-trips through strtod;
/// non-finite values render as `null` (JSON has no NaN/Inf literal).
std::string JsonNumber(double value);

/// Extracts the string value of a top-level `"key":"value"` pair from a
/// JSON object body. Not a general parser — the service control plane's
/// documents are flat objects of string fields — but escape-correct: the
/// value is scanned with backslash tracking and decoded through
/// JsonUnescape, so labels containing quotes, backslashes, or \u escapes
/// round-trip. Shared by the egid daemon and the egid-router.
bool JsonFindString(std::string_view body, std::string_view key,
                    std::string* out);

/// Extracts the elements of a top-level `"key":["a","b",...]` pair, by the
/// same key scan as JsonFindString; each element is decoded as JsonFindString
/// decodes its value. False (and `out` untouched) when the key is missing,
/// the value is not an array, an element is not a string, or the array or a
/// string is unterminated. An empty array yields an empty `out`.
bool JsonFindStringArray(std::string_view body, std::string_view key,
                         std::vector<std::string>* out);

/// Extracts the unsigned integer value of a top-level `"key":123` pair, by
/// the same key scan as JsonFindString. False when the key is missing, the
/// value does not start with a digit, or it exceeds 2^64 - 1.
bool JsonFindUInt(std::string_view body, std::string_view key,
                  uint64_t* out);

}  // namespace egi

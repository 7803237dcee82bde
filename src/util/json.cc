#include "util/json.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <utility>

namespace egi {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Appends the UTF-8 encoding of a code point (callers validated the range).
void AppendUtf8(std::string& out, uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

bool JsonUnescape(std::string_view s, std::string* out) {
  out->clear();
  out->reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '\\') {
      // A raw quote or control character inside string contents is invalid
      // JSON — reject rather than pass through, so the round-trip contract
      // (JsonUnescape(JsonEscape(x)) == x, and only escaped forms accepted)
      // holds exactly.
      if (c == '"' || static_cast<unsigned char>(c) < 0x20) return false;
      *out += c;
      continue;
    }
    if (++i >= s.size()) return false;
    switch (s[i]) {
      case '"': *out += '"'; break;
      case '\\': *out += '\\'; break;
      case '/': *out += '/'; break;
      case 'n': *out += '\n'; break;
      case 't': *out += '\t'; break;
      case 'r': *out += '\r'; break;
      case 'b': *out += '\b'; break;
      case 'f': *out += '\f'; break;
      case 'u': {
        if (i + 4 >= s.size()) return false;
        uint32_t cp = 0;
        for (int k = 1; k <= 4; ++k) {
          const int h = HexValue(s[i + static_cast<size_t>(k)]);
          if (h < 0) return false;
          cp = (cp << 4) | static_cast<uint32_t>(h);
        }
        i += 4;
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // High surrogate: a low surrogate escape must follow.
          if (i + 6 >= s.size() || s[i + 1] != '\\' || s[i + 2] != 'u') {
            return false;
          }
          uint32_t lo = 0;
          for (int k = 3; k <= 6; ++k) {
            const int h = HexValue(s[i + static_cast<size_t>(k)]);
            if (h < 0) return false;
            lo = (lo << 4) | static_cast<uint32_t>(h);
          }
          if (lo < 0xDC00 || lo > 0xDFFF) return false;
          i += 6;
          cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          return false;  // lone low surrogate
        }
        AppendUtf8(*out, cp);
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

std::string JsonQuote(std::string_view s) {
  return '"' + JsonEscape(s) + '"';
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

namespace {

size_t SkipJsonSpace(std::string_view body, size_t i) {
  while (i < body.size() && (body[i] == ' ' || body[i] == '\t' ||
                             body[i] == '\r' || body[i] == '\n')) {
    ++i;
  }
  return i;
}

// Offset of the first non-space byte after the `"key":` of a flat JSON
// object, or npos. A "key" that matches inside some other string (not
// followed by a colon) is skipped.
size_t FindJsonValue(std::string_view body, std::string_view key) {
  std::string needle;
  needle.reserve(key.size() + 2);
  needle += '"';
  needle += key;
  needle += '"';
  for (size_t pos = body.find(needle); pos != std::string_view::npos;
       pos = body.find(needle, pos + 1)) {
    const size_t i = SkipJsonSpace(body, pos + needle.size());
    if (i < body.size() && body[i] == ':') return SkipJsonSpace(body, i + 1);
  }
  return std::string_view::npos;
}

// Decodes the JSON string literal starting at body[*i] and moves *i past
// its closing quote. The scan tracks backslashes, so an escaped quote does
// not end the string.
bool ReadJsonString(std::string_view body, size_t* i, std::string* out) {
  if (*i >= body.size() || body[*i] != '"') return false;
  const size_t start = *i + 1;
  size_t end = start;
  while (end < body.size() && body[end] != '"') {
    end += body[end] == '\\' ? 2 : 1;
  }
  if (end >= body.size()) return false;  // unterminated
  *i = end + 1;
  return JsonUnescape(body.substr(start, end - start), out);
}

}  // namespace

bool JsonFindString(std::string_view body, std::string_view key,
                    std::string* out) {
  size_t i = FindJsonValue(body, key);
  return ReadJsonString(body, &i, out);
}

bool JsonFindStringArray(std::string_view body, std::string_view key,
                         std::vector<std::string>* out) {
  size_t i = FindJsonValue(body, key);
  if (i >= body.size() || body[i] != '[') return false;
  i = SkipJsonSpace(body, i + 1);
  if (i < body.size() && body[i] == ']') {
    out->clear();
    return true;
  }
  std::vector<std::string> items;
  while (true) {
    std::string item;
    if (!ReadJsonString(body, &i, &item)) return false;
    items.push_back(std::move(item));
    i = SkipJsonSpace(body, i);
    if (i >= body.size()) return false;  // unterminated array
    if (body[i] == ']') break;
    if (body[i] != ',') return false;
    i = SkipJsonSpace(body, i + 1);
  }
  *out = std::move(items);
  return true;
}

bool JsonFindUInt(std::string_view body, std::string_view key,
                  uint64_t* out) {
  size_t i = FindJsonValue(body, key);
  if (i >= body.size() || body[i] < '0' || body[i] > '9') return false;
  uint64_t value = 0;
  for (; i < body.size() && body[i] >= '0' && body[i] <= '9'; ++i) {
    const auto digit = static_cast<uint64_t>(body[i] - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // past 2^64 - 1
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace egi

#include "sax/numerosity.h"

#include "util/check.h"

namespace egi::sax {

TokenRuns NumerosityReduce(std::span<const int32_t> raw, bool enabled) {
  TokenRuns out;
  if (raw.empty()) return out;
  out.tokens.reserve(enabled ? raw.size() / 4 + 1 : raw.size());
  out.offsets.reserve(out.tokens.capacity());
  for (size_t i = 0; i < raw.size(); ++i) {
    if (enabled && !out.tokens.empty() && out.tokens.back() == raw[i]) continue;
    out.tokens.push_back(raw[i]);
    out.offsets.push_back(i);
  }
  return out;
}

std::vector<int32_t> NumerosityExpand(const TokenRuns& reduced,
                                      size_t total_positions) {
  EGI_CHECK(reduced.tokens.size() == reduced.offsets.size());
  std::vector<int32_t> out;
  out.reserve(total_positions);
  for (size_t i = 0; i < reduced.size(); ++i) {
    const size_t end =
        (i + 1 < reduced.size()) ? reduced.offsets[i + 1] : total_positions;
    EGI_CHECK(reduced.offsets[i] < end) << "offsets not strictly increasing";
    for (size_t p = reduced.offsets[i]; p < end; ++p)
      out.push_back(reduced.tokens[i]);
  }
  return out;
}

}  // namespace egi::sax

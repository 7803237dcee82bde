#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "egi/primitives.h"

namespace egi::sax {

/// Collapses consecutive duplicates of `raw` (token per sliding-window
/// position). With `enabled == false`, returns the identity sequence with
/// offsets 0..n-1 (used by the numerosity-reduction ablation).
TokenRuns NumerosityReduce(std::span<const int32_t> raw, bool enabled = true);

/// Expands a reduced sequence back to per-position tokens (for tests /
/// round-trip validation). `total_positions` is the original position count.
std::vector<int32_t> NumerosityExpand(const TokenRuns& reduced,
                                      size_t total_positions);

}  // namespace egi::sax

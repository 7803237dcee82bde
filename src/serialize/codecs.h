#pragma once

#include <span>
#include <vector>

#include "sax/token_table.h"
#include "sax/word_code.h"
#include "serialize/bytes.h"
#include "stream/rolling_stats.h"
#include "util/status.h"

namespace egi::serialize {

/// Composite codecs shared by the streaming snapshot writers/readers. Every
/// Read* validates structural invariants (supported codecs, duplicate-free
/// tables, in-range values) and returns Status instead of crashing; the
/// byte-level bounds checks live in ByteReader.

// --------------------------------------------------------------- WordCode

void WriteWordCode(ByteWriter& w, const sax::WordCode& code);
Status ReadWordCode(ByteReader& r, sax::WordCode* out);

// -------------------------------------------------------------- TokenTable

/// Layout: word_length varint | alphabet_size varint | count varint |
/// count x WordCode (id order, 16 bytes each whatever the table's code
/// width). Slots are not serialized — re-interning the codes in id order
/// into a table sized for `count` reproduces the identical probe layout and
/// the heap bytes of the writer's `Compacted()` table.
void WriteTokenTable(ByteWriter& w, const sax::TokenTable& table);

/// Rejects unsupported (w, a) layouts, codes with set bits outside the
/// layout, symbols outside the alphabet, and duplicate codes.
Status ReadTokenTable(ByteReader& r, sax::TokenTable* out);

// ------------------------------------------------------------ RollingStats

void WriteRollingStats(ByteWriter& w, const stream::RollingStats& stats);

/// Accumulators must be finite (they are sums of finite admitted values).
Status ReadRollingStats(ByteReader& r, stream::RollingStats* out);

// ----------------------------------------------------------------- Status

void WriteStatus(ByteWriter& w, const Status& status);
Status ReadStatus(ByteReader& r, Status* out);

// ----------------------------------------------------------- double arrays

/// Varint count followed by the IEEE bit patterns.
void WriteDoubles(ByteWriter& w, std::span<const double> values);

/// `allow_nan` admits quiet-NaN entries (the "never scored" marker in score
/// curves); +/-infinity is always rejected.
Status ReadDoubles(ByteReader& r, std::vector<double>* out, bool allow_nan);

}  // namespace egi::serialize

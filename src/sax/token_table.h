#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sax/word_code.h"
#include "util/check.h"

namespace egi::sax {

/// Interns packed SAX word codes into dense non-negative token ids. Sequitur
/// operates on integer tokens; this table keeps the id <-> code mapping so
/// grammar rules can be rendered back into readable strings (e.g. for the
/// examples) — rendering is lazy, the hot path stores and probes only
/// packed codes.
///
/// Layout: the codes are kept in id order, 8 bytes each when the codec's
/// words fit 64 bits (w * ceil(log2 a) <= 64, every draw of the default
/// wmax = amax = 10) and 16 bytes otherwise: `lo_` holds every code's low
/// half, `hi_` the high halves of a wide codec's codes only. `slots_` is an
/// open-addressing index over them (linear probing, insert-only,
/// power-of-two slot count, load at most 0.7) whose 4-byte slots hold just
/// the id; a probe compares `lo_[id]` (and `hi_[id]`) with the code. A
/// slot's place depends only on the slot count and the insertion order.
///
/// Sizing: a table is built for the number of distinct codes it expects:
/// its code arrays are reserved for that many and its slots never rehash up
/// to it; past it, the slots double by rehash. A table sized for its final
/// vocabulary ends with the slot count, hence the layout, of one grown from
/// empty. `EncodeAll` sizes each member's table for its run count (a bound
/// on its vocabulary known before the first intern), so no refit intern
/// reallocates; `Compacted()` copies and restored tables are sized for
/// exactly their vocabulary.
class TokenTable {
 public:
  /// A table with no layout; usable once assigned from a codec-bearing one.
  TokenTable() = default;

  /// An empty table for words of `codec`'s (w, a) layout, with room for
  /// `expected` distinct codes (0: grown from empty on first intern).
  explicit TokenTable(const WordCodec& codec, size_t expected = 0)
      : codec_(codec),
        wide_(codec.word_length() * codec.bits_per_symbol() > 64),
        slots_(SlotCountFor(expected), kEmpty) {
    lo_.reserve(expected);
    if (wide_) hi_.reserve(expected);
  }

  /// Returns the id for `code`, creating one if unseen.
  int32_t Intern(const WordCode& code) {
    EGI_DCHECK(wide_ || code.hi == 0) << "code wider than the table's codec";
    if (lo_.size() + 1 > (slots_.size() * 7) / 10) Grow();
    int32_t& slot = slots_[Probe(code)];
    if (slot != kEmpty) return slot;
    slot = static_cast<int32_t>(lo_.size());
    lo_.push_back(code.lo);
    if (wide_) hi_.push_back(code.hi);
    return slot;
  }

  /// Id for `code`, or -1 if unseen. Allocation-free.
  int32_t Find(const WordCode& code) const {
    if (slots_.empty() || (!wide_ && code.hi != 0)) return kEmpty;
    return slots_[Probe(code)];
  }

  /// Packed code for an existing id.
  WordCode CodeAt(int32_t id) const {
    EGI_CHECK(id >= 0 && static_cast<size_t>(id) < lo_.size())
        << "unknown token id " << id;
    return CodeOf(static_cast<size_t>(id));
  }

  /// Renders an existing id as its letter word. Display-only (allocates).
  std::string Word(int32_t id) const { return codec_.Render(CodeAt(id)); }

  /// The (w, a) layout this table's codes are packed with.
  const WordCodec& codec() const { return codec_; }

  size_t size() const { return lo_.size(); }

  /// Slots in the index: what growing from empty reaches for size() codes,
  /// unless the table was sized for more.
  size_t slot_count() const { return slots_.size(); }

  /// Bytes the code and slot arrays hold (their capacity): 8 or 16 per
  /// reserved code, by the codec's width, and 4 per slot.
  size_t heap_bytes() const {
    return (lo_.capacity() + hi_.capacity()) * sizeof(uint64_t) +
           slots_.capacity() * sizeof(int32_t);
  }

  /// This table re-interned in id order into one sized for exactly its
  /// codes: the same ids, the slot count of a table grown from empty, and
  /// no spare storage.
  TokenTable Compacted() const {
    TokenTable out(codec_, size());
    for (size_t id = 0; id < size(); ++id) out.Intern(CodeOf(id));
    return out;
  }

 private:
  static constexpr int32_t kEmpty = -1;

  // The slot count that holds `codes` distinct codes at load <= 0.7 (the
  // smallest power of two >= 16, or 0 for no codes): where growing from
  // empty ends.
  static size_t SlotCountFor(size_t codes) {
    if (codes == 0) return 0;
    size_t slots = 16;
    while (codes > (slots * 7) / 10) slots *= 2;
    return slots;
  }

  WordCode CodeOf(size_t id) const {
    return WordCode{wide_ ? hi_[id] : 0, lo_[id]};
  }

  // The slot holding `code`, else the empty slot that ends its probe run.
  // One loop per code width, so the narrow loop compares one word and
  // never tests the width.
  size_t Probe(const WordCode& code) const {
    const size_t mask = slots_.size() - 1;
    size_t i = WordCodeHash{}(code) & mask;
    const auto id = [&] { return static_cast<size_t>(slots_[i]); };
    if (!wide_) {
      while (slots_[i] != kEmpty && lo_[id()] != code.lo) i = (i + 1) & mask;
      return i;
    }
    while (slots_[i] != kEmpty &&
           (lo_[id()] != code.lo || hi_[id()] != code.hi)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  // Doubles the slot count and re-inserts every code in id order, which
  // gives the layout interning them into the larger table would.
  void Grow() {
    slots_.assign(slots_.empty() ? 16 : slots_.size() * 2, kEmpty);
    for (size_t id = 0; id < lo_.size(); ++id) {
      slots_[Probe(CodeOf(id))] = static_cast<int32_t>(id);
    }
  }

  WordCodec codec_;
  bool wide_ = false;           // codes need more than 64 bits
  std::vector<uint64_t> lo_;    // id -> low half of its code
  std::vector<uint64_t> hi_;    // id -> high half (wide codecs only)
  std::vector<int32_t> slots_;  // open-addressing index: ids, -1 = empty
};

}  // namespace egi::sax

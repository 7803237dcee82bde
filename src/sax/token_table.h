#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sax/word_code.h"
#include "util/check.h"

namespace egi::sax {

/// Interns packed SAX word codes into dense non-negative token ids. Sequitur
/// operates on integer tokens; this table keeps the id <-> code mapping so
/// grammar rules can be rendered back into readable strings (e.g. for the
/// examples) — rendering is lazy, the hot path stores and probes only
/// 128-bit codes.
///
/// Layout: `codes_` holds the codes in id order, and `slots_` is an
/// open-addressing index over it (linear probing, insert-only, power-of-two
/// slot count, load at most 0.7). A slot is 8 bytes: the id and a 32-bit tag
/// (the high half of the code's hash), so a probe reads `codes_[id]` only on
/// a tag hit. A slot's place depends only on the slot count and the
/// insertion order.
///
/// Sizing: a table is built for the number of distinct codes it expects and
/// never rehashes up to that many; past it, it doubles by rehash. A table
/// sized for its final vocabulary ends with the slot count, hence the
/// layout, of one grown from empty. `EncodeAll` sizes each member's table
/// for its run count (a bound on its vocabulary known before the first
/// intern), so no refit intern rehashes; the streaming models keep
/// `Compacted()` copies, sized for the vocabulary.
class TokenTable {
 public:
  /// A table with no layout; usable once assigned from a codec-bearing one.
  TokenTable() = default;

  /// An empty table for words of `codec`'s (w, a) layout, with slots for
  /// `expected` distinct codes (0: grown from empty on first intern).
  explicit TokenTable(const WordCodec& codec, size_t expected = 0)
      : codec_(codec), slots_(SlotCountFor(expected)) {}

  /// Returns the id for `code`, creating one if unseen.
  int32_t Intern(const WordCode& code) {
    if (codes_.size() + 1 > (slots_.size() * 7) / 10) Grow();
    const uint64_t hash = WordCodeHash{}(code);
    Slot& slot = slots_[Probe(code, hash)];
    if (slot.id >= 0) return slot.id;
    const auto id = static_cast<int32_t>(codes_.size());
    codes_.push_back(code);
    slot = Slot{id, TagOf(hash)};
    return id;
  }

  /// Id for `code`, or -1 if unseen. Allocation-free.
  int32_t Find(const WordCode& code) const {
    if (slots_.empty()) return -1;
    return slots_[Probe(code, WordCodeHash{}(code))].id;
  }

  /// Packed code for an existing id.
  const WordCode& CodeAt(int32_t id) const {
    EGI_CHECK(id >= 0 && static_cast<size_t>(id) < codes_.size())
        << "unknown token id " << id;
    return codes_[static_cast<size_t>(id)];
  }

  /// Renders an existing id as its letter word. Display-only (allocates).
  std::string Word(int32_t id) const { return codec_.Render(CodeAt(id)); }

  /// The (w, a) layout this table's codes are packed with.
  const WordCodec& codec() const { return codec_; }

  size_t size() const { return codes_.size(); }

  /// Slots in the index: what growing from empty reaches for size() codes,
  /// unless the table was sized for more.
  size_t slot_count() const { return slots_.size(); }

  /// All interned codes in id order (id i is codes()[i]). The snapshot
  /// codec serializes exactly this: re-interning the codes in order into a
  /// table grown from empty rebuilds every id, and the probe layout of a
  /// `Compacted()` table.
  std::span<const WordCode> codes() const { return codes_; }

  /// This table re-interned in id order into one sized for exactly its
  /// codes: the same ids, the slot count of a table grown from empty, and
  /// no spare storage.
  TokenTable Compacted() const {
    TokenTable out(codec_, codes_.size());
    out.codes_.reserve(codes_.size());
    for (const WordCode& code : codes_) out.Intern(code);
    return out;
  }

 private:
  struct Slot {
    int32_t id = -1;   // -1 marks an empty slot
    uint32_t tag = 0;  // TagOf(hash of codes_[id])
  };

  // The slot count that holds `codes` distinct codes at load <= 0.7 (the
  // smallest power of two >= 16, or 0 for no codes): where growing from
  // empty ends.
  static size_t SlotCountFor(size_t codes) {
    if (codes == 0) return 0;
    size_t slots = 16;
    while (codes > (slots * 7) / 10) slots *= 2;
    return slots;
  }

  static uint32_t TagOf(uint64_t hash) {
    return static_cast<uint32_t>(hash >> 32);
  }

  // The slot holding `code` (whose hash is `hash`), else the empty slot that
  // ends its probe run.
  size_t Probe(const WordCode& code, uint64_t hash) const {
    const uint32_t tag = TagOf(hash);
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].id >= 0 &&
           (slots_[i].tag != tag ||
            codes_[static_cast<size_t>(slots_[i].id)] != code)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  // Doubles the slot count and re-inserts every code in id order, which
  // gives the layout interning them into the larger table would.
  void Grow() {
    slots_.assign(slots_.empty() ? 16 : slots_.size() * 2, Slot{});
    for (size_t id = 0; id < codes_.size(); ++id) {
      const uint64_t hash = WordCodeHash{}(codes_[id]);
      slots_[Probe(codes_[id], hash)] =
          Slot{static_cast<int32_t>(id), TagOf(hash)};
    }
  }

  WordCodec codec_;
  std::vector<WordCode> codes_;  // id -> code, in interning order
  std::vector<Slot> slots_;      // open-addressing index over codes_
};

}  // namespace egi::sax

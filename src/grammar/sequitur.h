#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "exec/scratch_pool.h"
#include "grammar/grammar.h"

namespace egi::grammar {

/// Size of a grammar: Build()'s rules.size() and TotalRhsSymbols().
struct GrammarSize {
  size_t num_rules = 0;  ///< rules, R0 excluded
  size_t symbols = 0;    ///< |R0| + sum of |rhs|
};

/// Online Sequitur grammar induction (Nevill-Manning & Witten 1997; paper
/// Section 5.1). Tokens are appended one at a time; the builder maintains
/// the two Sequitur invariants incrementally in amortized O(1) per token:
///
///  * digram uniqueness — no pair of adjacent symbols appears more than once
///    in the grammar (a repeat triggers rule creation or reuse);
///  * rule utility — a rule referenced only once is inlined and removed.
///
/// This is a faithful port of the canonical linked-list + digram-index
/// implementation; the paper's worked example (Table 2) is reproduced
/// exactly in tests. Call Build() at any point to extract an immutable
/// Grammar artifact (the builder remains usable afterwards).
///
/// Internally the builder owns arena storage for symbol nodes and rules plus
/// a flat open-addressing digram index (grammar/digram_table.h). Reset()
/// rewinds all of it without deallocating, so hot loops that induce many
/// grammars (the ensemble's N members, streaming refits) reuse one builder
/// instead of paying allocation and page-fault cost per run; a
/// build–reset–build cycle is bitwise-identical to a fresh builder (tested).
class SequiturBuilder {
 public:
  SequiturBuilder();
  ~SequiturBuilder();

  SequiturBuilder(const SequiturBuilder&) = delete;
  SequiturBuilder& operator=(const SequiturBuilder&) = delete;
  SequiturBuilder(SequiturBuilder&&) noexcept;
  SequiturBuilder& operator=(SequiturBuilder&&) noexcept;

  /// Appends one terminal token (must be >= 0) and restores the invariants.
  void Append(int32_t token);

  /// Appends a whole sequence.
  void AppendAll(std::span<const int32_t> tokens);

  /// Returns the builder to the empty state while keeping the node/rule
  /// arenas and the digram table's capacity for reuse.
  void Reset();

  /// Number of tokens appended so far.
  size_t num_appended() const;

  /// Extracts the grammar artifact: compacted rules in creation order with
  /// usage counts, expansion lengths, and all dynamic occurrences.
  Grammar Build() const;

  /// Reads the live grammar in place, without building it: calls
  /// `visit(start, length)` once per dynamic occurrence of every rule (R0
  /// excluded), where `start` is the occurrence's first token index and
  /// `length` its expansion length, and returns the grammar's size. Build()
  /// fills its rules' occurrences and expansion lengths from this same
  /// derivation walk, so the pairs are exactly Build()'s
  /// (occurrences[i], expansion_length) pairs (tested).
  GrammarSize VisitRuleOccurrences(
      const std::function<void(size_t start, size_t length)>& visit) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience one-shot induction.
Grammar InduceGrammar(std::span<const int32_t> tokens);

/// RAII lease on a pooled SequiturBuilder (see AcquireScratchBuilder).
using SequiturBuilderLease = exec::ScratchPool<SequiturBuilder>::Lease;

/// Leases a builder from the process-wide scratch pool. The pool replaces
/// per-thread builders: leases move freely across threads and runs, so one
/// warm arena serves the ensemble's N members, every streaming refit, and
/// every stream of a StreamHub or the egid daemon — whichever worker
/// happens to need it next. The leased builder arrives in its previous holder's
/// end state; call Reset() before appending (RunGrammarInductionOnTokens
/// does). Returned to the pool when the lease dies; a leased-reset builder
/// is bitwise-output-equivalent to a fresh one (tested).
SequiturBuilderLease AcquireScratchBuilder();

/// Builders currently idle in the scratch pool (observability/tests).
size_t ScratchBuilderPoolIdleCount();

}  // namespace egi::grammar

#include "grammar/sequitur.h"

#include <deque>
#include <vector>

#include "grammar/digram_table.h"
#include "util/check.h"

namespace egi::grammar {

namespace {

struct RuleImpl;

// One symbol in the mutable grammar: a node in a circular doubly-linked list
// whose sentinel is the owning rule's guard node.
struct Node {
  Node* prev = nullptr;
  Node* next = nullptr;
  int32_t terminal = 0;        // valid when rule == nullptr && !guard
  RuleImpl* rule = nullptr;    // referenced rule (non-terminal) or owner (guard)
  bool guard = false;
};

struct RuleImpl {
  Node* guard_node = nullptr;
  int refcount = 0;
  bool alive = true;
  size_t uid = 0;  // creation index; unique per run, keys digram entries
};

}  // namespace

// Digram keys are the identity of two adjacent symbols: terminals map to
// their token id, non-terminals to -(uid+1). Uids are unique between
// Reset()s and the digram table is cleared on Reset, so dead rules can never
// alias live digram entries.
struct SequiturBuilder::Impl {
  // Arena storage with bump-pointer reuse: Reset() rewinds `nodes_used` /
  // `rules_used` instead of deallocating, so a reused builder appends into
  // memory that is already hot. Deque growth keeps node addresses stable.
  std::deque<Node> node_arena;
  size_t nodes_used = 0;
  std::vector<Node*> free_nodes;
  std::deque<RuleImpl> rule_arena;
  size_t rules_used = 0;
  DigramTable<Node*> digrams;
  RuleImpl* root = nullptr;
  size_t appended = 0;

  Impl() { root = NewRule(); }

  Node* NewNode() {
    if (!free_nodes.empty()) {
      Node* n = free_nodes.back();
      free_nodes.pop_back();
      *n = Node{};
      return n;
    }
    if (nodes_used < node_arena.size()) {
      Node* n = &node_arena[nodes_used++];
      *n = Node{};
      return n;
    }
    node_arena.emplace_back();
    ++nodes_used;
    return &node_arena.back();
  }

  void FreeNode(Node* n) { free_nodes.push_back(n); }

  RuleImpl* NewRule() {
    RuleImpl* r;
    if (rules_used < rule_arena.size()) {
      r = &rule_arena[rules_used];
      *r = RuleImpl{};
    } else {
      rule_arena.emplace_back();
      r = &rule_arena.back();
    }
    r->uid = rules_used++;
    Node* g = NewNode();
    g->guard = true;
    g->rule = r;
    g->prev = g;
    g->next = g;
    r->guard_node = g;
    return r;
  }

  void Reset() {
    free_nodes.clear();
    nodes_used = 0;
    rules_used = 0;
    digrams.Clear();
    appended = 0;
    root = NewRule();
  }

  static bool IsGuard(const Node* n) { return n->guard; }
  static bool IsNonTerminal(const Node* n) {
    return !n->guard && n->rule != nullptr;
  }

  static int64_t SymIdentity(const Node* n) {
    EGI_DCHECK(!n->guard);
    if (n->rule != nullptr)
      return -static_cast<int64_t>(n->rule->uid) - 1;
    return n->terminal;
  }

  // Removes the digram table entry for (first, first->next) if it points at
  // this exact occurrence.
  void DeleteDigram(Node* first) {
    if (IsGuard(first) || IsGuard(first->next)) return;
    digrams.EraseIfEquals(SymIdentity(first), SymIdentity(first->next), first);
  }

  // Links left -> right, unregistering left's old outgoing digram.
  void Join(Node* left, Node* right) {
    if (left->next != nullptr) DeleteDigram(left);
    left->next = right;
    right->prev = left;
  }

  void InsertAfter(Node* pos, Node* fresh) {
    Join(fresh, pos->next);
    Join(pos, fresh);
  }

  // Unlinks and frees one symbol node, maintaining digram entries and rule
  // reference counts (canonical Symbol destructor).
  void DeleteSymbol(Node* s) {
    EGI_DCHECK(!IsGuard(s));
    Join(s->prev, s->next);
    DeleteDigram(s);  // s->next still references the old neighbour here
    if (IsNonTerminal(s)) s->rule->refcount--;
    FreeNode(s);
  }

  // Canonical check(): examines digram (s, s->next); indexes it when new,
  // triggers Match when it repeats. Returns true when the digram was already
  // known (a structural change happened or the occurrences overlap).
  bool Check(Node* s) {
    if (IsGuard(s) || IsGuard(s->next)) return false;
    const auto [found, inserted] =
        digrams.Emplace(SymIdentity(s), SymIdentity(s->next), s);
    if (inserted) return false;
    if (found == s) return false;
    // Overlapping occurrences (e.g. "aaa") are left alone, as in canonical
    // Sequitur; non-overlapping repeats trigger rule creation/reuse.
    if (found->next != s) Match(s, found);
    return true;
  }

  // Copies the symbol payload of `src` into a fresh node (for rule bodies).
  Node* CopyPayload(const Node* src) {
    Node* n = NewNode();
    if (src->rule != nullptr) {
      n->rule = src->rule;
      n->rule->refcount++;
    } else {
      n->terminal = src->terminal;
    }
    return n;
  }

  // Replaces the digram starting at `first` with a reference to rule `r`
  // (canonical substitute), then re-checks the two new junctions.
  void Substitute(Node* first, RuleImpl* r) {
    Node* q = first->prev;
    DeleteSymbol(first->next);
    DeleteSymbol(first);
    Node* nn = NewNode();
    nn->rule = r;
    r->refcount++;
    InsertAfter(q, nn);
    if (!Check(q)) Check(nn);
  }

  // Handles a repeated digram: `ss` is the fresh occurrence, `m` the indexed
  // one. Either reuses the rule whose whole body is the digram, or creates a
  // new rule; then enforces rule utility (canonical match()).
  void Match(Node* ss, Node* m) {
    RuleImpl* r;
    if (IsGuard(m->prev) && IsGuard(m->next->next)) {
      // The indexed occurrence is the complete body of an existing rule.
      r = m->prev->rule;
      Substitute(ss, r);
    } else {
      r = NewRule();
      // Build the rule body from copies of the digram BEFORE substituting
      // (substitution frees ss and its neighbour).
      Node* c1 = CopyPayload(ss);
      Node* c2 = CopyPayload(ss->next);
      Node* g = r->guard_node;
      // Manual linking: body digram registration happens once, below.
      g->next = c1;
      c1->prev = g;
      c1->next = c2;
      c2->prev = c1;
      c2->next = g;
      g->prev = c2;
      Substitute(m, r);
      Substitute(ss, r);
      digrams.InsertOrAssign(SymIdentity(c1), SymIdentity(c1->next), c1);
    }
    // Rule utility: if the first body symbol references a rule now used only
    // once, inline it (canonical checks exactly this position — the only one
    // whose count can have dropped to 1 here).
    Node* f = r->guard_node->next;
    if (IsNonTerminal(f) && f->rule->refcount == 1) Expand(f);
  }

  // Inlines the single remaining usage `use` of its referenced rule
  // (canonical expand): splices the child body in place of the reference.
  void Expand(Node* use) {
    RuleImpl* child = use->rule;
    EGI_DCHECK(child->refcount == 1);
    Node* left = use->prev;
    Node* right = use->next;
    Node* first = child->guard_node->next;
    Node* last = child->guard_node->prev;
    EGI_DCHECK(!IsGuard(first)) << "expanding an empty rule";

    DeleteDigram(left);  // (left, use); no-op when left is the guard
    DeleteDigram(use);   // (use, right)

    left->next = first;
    first->prev = left;
    last->next = right;
    right->prev = last;

    FreeNode(use);
    child->alive = false;
    FreeNode(child->guard_node);
    child->guard_node = nullptr;

    // Index the new boundary digram (canonical behaviour: overwrite).
    if (!IsGuard(last) && !IsGuard(right))
      digrams.InsertOrAssign(SymIdentity(last), SymIdentity(last->next), last);
    if (!IsGuard(left) && !IsGuard(first))
      digrams.InsertOrAssign(SymIdentity(left), SymIdentity(left->next), left);
  }

  void Append(int32_t token) {
    EGI_CHECK(token >= 0) << "terminal tokens must be non-negative";
    Node* t = NewNode();
    t->terminal = token;
    InsertAfter(root->guard_node->prev, t);
    Check(t->prev);
    ++appended;
  }

  // The derivation walk behind Build() and VisitRuleOccurrences: calls
  // visit(rule, start, length) for every dynamic occurrence of every rule
  // (R0 excluded), in preorder from the root, and returns the grammar's
  // size. Expansion lengths come first, from one pass over the live rules,
  // memoized by uid (the rule's arena slot): 0 = not computed yet (a live
  // rule expands to >= 2 tokens), kVisiting = on the current path, i.e. a
  // cycle. Rule nesting depth is logarithmic for realistic inputs, so the
  // recursion is safe.
  template <typename Visit>
  GrammarSize WalkOccurrences(Visit&& visit) const {
    GrammarSize size;
    constexpr size_t kVisiting = static_cast<size_t>(-1);
    std::vector<size_t> length(rules_used, 0);
    auto expansion = [&](auto&& self, const RuleImpl& r) -> size_t {
      EGI_CHECK(length[r.uid] != kVisiting) << "cycle in grammar";
      if (length[r.uid] != 0) return length[r.uid];
      length[r.uid] = kVisiting;
      size_t len = 0;
      for (const Node* n = r.guard_node->next; !IsGuard(n); n = n->next) {
        ++size.symbols;
        if (n->rule != nullptr) {
          EGI_CHECK(n->rule->alive) << "reference to dead rule";
          len += self(self, *n->rule);
        } else {
          len += 1;
        }
      }
      length[r.uid] = len;
      return len;
    };
    for (size_t q = 0; q < rules_used; ++q) {
      const RuleImpl& r = rule_arena[q];
      if (!r.alive || &r == root) continue;
      ++size.num_rules;
      expansion(expansion, r);
    }
    for (const Node* n = root->guard_node->next; !IsGuard(n); n = n->next) {
      ++size.symbols;
      EGI_CHECK(n->rule == nullptr || n->rule->alive)
          << "reference to dead rule";
    }

    auto walk = [&](auto&& self, const RuleImpl& r, size_t pos) -> size_t {
      for (const Node* n = r.guard_node->next; !IsGuard(n); n = n->next) {
        if (n->rule == nullptr) {
          pos += 1;
          continue;
        }
        const size_t e = length[n->rule->uid];
        visit(*n->rule, pos, e);
        self(self, *n->rule, pos);
        pos += e;
      }
      return pos;
    };
    const size_t total = walk(walk, *root, 0);
    EGI_CHECK(total == appended)
        << "grammar expansion length " << total << " != input length "
        << appended;
    return size;
  }
};

SequiturBuilder::SequiturBuilder() : impl_(std::make_unique<Impl>()) {}
SequiturBuilder::~SequiturBuilder() = default;
SequiturBuilder::SequiturBuilder(SequiturBuilder&&) noexcept = default;
SequiturBuilder& SequiturBuilder::operator=(SequiturBuilder&&) noexcept =
    default;

void SequiturBuilder::Append(int32_t token) { impl_->Append(token); }

void SequiturBuilder::AppendAll(std::span<const int32_t> tokens) {
  for (int32_t t : tokens) impl_->Append(t);
}

void SequiturBuilder::Reset() { impl_->Reset(); }

size_t SequiturBuilder::num_appended() const { return impl_->appended; }

Grammar SequiturBuilder::Build() const {
  Grammar g;
  g.input_length = impl_->appended;

  // Compact alive rules (excluding the root) in creation order: R1, R2, ...
  // Only the first `rules_used` arena slots belong to the current run, and a
  // rule's uid is its arena slot, so a flat uid -> rule index table serves
  // as the index (-1: dead, or the root).
  std::vector<int32_t> index(impl_->rules_used, -1);
  for (size_t q = 0; q < impl_->rules_used; ++q) {
    const RuleImpl& r = impl_->rule_arena[q];
    if (!r.alive || &r == impl_->root) continue;
    index[q] = static_cast<int32_t>(g.rules.size());
    g.rules.emplace_back();
  }

  auto extract_rhs = [&](const RuleImpl& r) {
    std::vector<SymbolId> rhs;
    for (Node* n = r.guard_node->next; !Impl::IsGuard(n); n = n->next) {
      if (n->rule != nullptr) {
        const int32_t k = index[n->rule->uid];
        EGI_CHECK(k >= 0) << "reference to dead rule";
        rhs.push_back(MakeRuleSym(static_cast<size_t>(k)));
      } else {
        rhs.push_back(n->terminal);
      }
    }
    return rhs;
  };

  g.root = extract_rhs(*impl_->root);
  {
    size_t k = 0;
    for (size_t q = 0; q < impl_->rules_used; ++q) {
      const RuleImpl& r = impl_->rule_arena[q];
      if (!r.alive || &r == impl_->root) continue;
      g.rules[k].rhs = extract_rhs(r);
      g.rules[k].usage = r.refcount;
      ++k;
    }
  }

  // Expansion lengths and dynamic occurrences: the shared derivation walk.
  impl_->WalkOccurrences([&](const RuleImpl& r, size_t start, size_t length) {
    GrammarRule& rule = g.rules[static_cast<size_t>(index[r.uid])];
    rule.expansion_length = length;
    rule.occurrences.push_back(start);
  });
  return g;
}

GrammarSize SequiturBuilder::VisitRuleOccurrences(
    const std::function<void(size_t, size_t)>& visit) const {
  return impl_->WalkOccurrences(
      [&](const RuleImpl&, size_t start, size_t length) {
        visit(start, length);
      });
}

Grammar InduceGrammar(std::span<const int32_t> tokens) {
  SequiturBuilder builder;
  builder.AppendAll(tokens);
  return builder.Build();
}

namespace {

// Function-local so the pool is constructed on first use and never races
// static-initialization order; intentionally leaked at exit along with any
// idle builders (they hold only arena memory).
exec::ScratchPool<SequiturBuilder>& ScratchBuilderPool() {
  static auto* pool = new exec::ScratchPool<SequiturBuilder>();
  return *pool;
}

}  // namespace

SequiturBuilderLease AcquireScratchBuilder() {
  return ScratchBuilderPool().Acquire();
}

size_t ScratchBuilderPoolIdleCount() {
  return ScratchBuilderPool().IdleCount();
}

}  // namespace egi::grammar

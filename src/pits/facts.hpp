// banger/pits/facts.hpp
//
// Proven-safe sites handed from the abstract interpreter
// (src/analyze/absint.cpp) to the bytecode compiler
// (src/pits/compile.cpp). Both sides walk the same shared AST
// (pits::Program keeps its Block alive behind a shared_ptr), so facts
// are keyed by node address: a Stmt* or Expr* identifies the exact
// site the proof covers. Every fact must be context-free — sound for
// ANY entry environment, with free variables treated as possibly
// unbound values of any type — because a compiled chunk is shared
// across executions with arbitrary Envs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace banger::pits::bc {

/// A set of AST node addresses, filled by the abstract interpreter and
/// then sealed (sorted, deduplicated) for the compiler's lookups: one
/// allocation per set instead of one per node.
class NodeSet {
 public:
  void insert(const void* node) { nodes_.push_back(node); }
  /// Sorts and deduplicates; contains() and size() need a sealed set.
  void seal() {
    std::sort(nodes_.begin(), nodes_.end());
    nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  }
  [[nodiscard]] bool contains(const void* node) const {
    return std::binary_search(nodes_.begin(), nodes_.end(), node);
  }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }

 private:
  std::vector<const void*> nodes_;
};

struct AnalysisFacts {
  /// Stmt* of statements proven to consume exactly one step tick: no
  /// nested loop iterations, and no call that could resolve to a
  /// user formula (formula calls tick dynamically). Eligible for
  /// TickN batching. Statements that may raise errors still qualify:
  /// on the batched fast path neither engine hits the step limit
  /// inside the run, so the error surfaces identically.
  NodeSet single_tick;

  /// Expr* of Index nodes whose base is proven a bound vector and
  /// whose index is proven a non-NaN integer within [0, len) for
  /// every possible length. Elides CheckIndexable and the per-access
  /// integer/range checks in IndexLoad.
  NodeSet safe_index;

  /// AssignStmt* of indexed assignments where the target is proven a
  /// bound vector, the index proven in-bounds as above, and the
  /// assigned value proven scalar. Elides IndexedCheck and the
  /// IndexedStore checks.
  NodeSet safe_indexed_store;

  /// VarRef* of reads proven definitely-assigned on every path (by an
  /// actual assignment, not constant materialization). Elides
  /// CheckVar beyond the compiler's own straight-line tracking.
  NodeSet bound_reads;

  [[nodiscard]] bool empty() const {
    return single_tick.empty() && safe_index.empty() &&
           safe_indexed_store.empty() && bound_reads.empty();
  }

  void seal() {
    single_tick.seal();
    safe_index.seal();
    safe_indexed_store.seal();
    bound_reads.seal();
  }
};

}  // namespace banger::pits::bc

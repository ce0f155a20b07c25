// banger/graph/design.hpp
//
// A complete hierarchical PITL design: a set of dataflow graph levels in
// which bold (Super) nodes of one level expand into lower-level graphs,
// exactly as in the paper's Figure 1. The Design owns all levels; level 0
// is the root drawing.
//
// Flattening converts the hierarchy into the primitive TaskGraph that the
// schedulers consume:
//   1. every Super node is replaced by its child graph (names become
//      qualified: "solve.fan1"), and arcs incident to the Super node are
//      re-bound to the child nodes that consume/produce the arc variable;
//   2. every Storage node is eliminated: each writer-task/reader-task pair
//      through a store becomes a direct data dependence whose message size
//      is the store's size in bytes. Stores without writers are the
//      design's external inputs; stores without readers are its outputs.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/task_graph.hpp"

namespace banger::graph {

/// A named data store surviving flattening, with the leaf tasks that
/// write/read it. Input stores (no writers) receive their values from the
/// environment before a run; output stores hold the program's results.
struct FlatStore {
  /// Qualified name ("solve.x").
  std::string name;
  /// Variable identity: the unqualified store name ("x").
  std::string var;
  double bytes = 8.0;
  std::vector<TaskId> writers;
  std::vector<TaskId> readers;
  /// Declaration site of the storage node in the `.pitl` file ({0,0}
  /// for programmatic designs).
  SourcePos pos;
};

/// Result of Design::flatten().
struct FlattenResult {
  TaskGraph graph;
  std::vector<FlatStore> stores;

  /// Indices into `stores` partitioned by role.
  [[nodiscard]] std::vector<std::size_t> input_stores() const;
  [[nodiscard]] std::vector<std::size_t> output_stores() const;
  [[nodiscard]] const FlatStore* find_store(const std::string& var) const;
};

/// Deepest hierarchy Design::validate() accepts, in depth() levels.
/// Every level qualifies the names below it once more, so flattening a
/// chain of k levels costs memory quadratic in k.
inline constexpr int kMaxHierarchyDepth = 1000;

/// The hierarchical design. Construct, then populate the root graph and
/// any child graphs, then validate() and flatten().
class Design {
 public:
  explicit Design(std::string name = "design");

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Adds a child graph level and returns its id (root is id 0).
  /// References returned by graph()/root_graph() remain valid.
  GraphId add_graph(std::string name);

  [[nodiscard]] GraphId root() const noexcept { return 0; }
  [[nodiscard]] std::size_t num_graphs() const noexcept { return graphs_.size(); }

  [[nodiscard]] DataflowGraph& graph(GraphId id);
  [[nodiscard]] const DataflowGraph& graph(GraphId id) const;
  [[nodiscard]] DataflowGraph& root_graph() { return graph(0); }
  [[nodiscard]] const DataflowGraph& root_graph() const { return graph(0); }

  /// Whole-design validation:
  ///   - each level validates structurally;
  ///   - every Super node references an existing, non-root graph;
  ///   - the graph-reference relation is acyclic (no recursive designs);
  ///   - the hierarchy is at most kMaxHierarchyDepth levels deep
  ///     (Error{Limit} at the supernode that would nest deeper);
  ///   - flattening succeeds (all supernode boundary variables bind).
  /// Returns that flattening, so callers need not flatten again.
  FlattenResult validate() const;

  /// Depth of the hierarchy: 1 for a flat design, 2 for the paper's
  /// Figure 1, etc. Throws Error{Graph} on a recursive design.
  [[nodiscard]] int depth() const;

  /// Total primitive (leaf) tasks after full expansion.
  [[nodiscard]] std::size_t num_leaf_tasks() const;

  /// Expands the hierarchy and eliminates stores. Throws Error{Graph} on
  /// unbound supernode variables or cycles.
  [[nodiscard]] FlattenResult flatten() const;

 private:
  /// Per graph, its level on the longest chain of supernode references
  /// from the root (1 for the root, 0 when unreachable). Throws
  /// Error{Graph} on a reference cycle.
  [[nodiscard]] std::vector<int> levels() const;

  std::string name_;
  // deque: stable references across add_graph (builders hold level refs).
  std::deque<DataflowGraph> graphs_;
};

}  // namespace banger::graph

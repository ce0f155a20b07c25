// banger/graph/graph.hpp
//
// One level of a PITL (programming-in-the-large) hierarchical dataflow
// graph, as drawn in the Banger editor (paper Fig. 1):
//
//   - Task nodes   (ovals): primitive sequential routines, later given a
//                  PITS calculator program and a work estimate.
//   - Super nodes  (bold ovals): decomposable into a lower-level graph.
//   - Storage nodes(open rectangles): named data stores (A, b, L, U, x in
//                  the paper's LU example) with a size in bytes.
//
// Arcs establish precedence created by control flow or dataflow and are
// labelled with the variable whose data flows along them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace banger::graph {

/// Index of a node within its DataflowGraph.
using NodeId = std::uint32_t;
/// Index of an arc within its DataflowGraph.
using ArcId = std::uint32_t;
/// Index of a graph within a Design.
using GraphId = std::int32_t;

inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);
inline constexpr GraphId kNoGraph = -1;

enum class NodeKind : std::uint8_t {
  Task,     ///< Primitive sequential task (PITS routine).
  Super,    ///< Decomposable node that expands to a child graph.
  Storage,  ///< Named data store (open rectangle in the paper).
};

std::string_view to_string(NodeKind kind) noexcept;

/// A node of one graph level. `name` is unique within the graph.
struct Node {
  NodeKind kind = NodeKind::Task;
  std::string name;

  /// Work estimate in abstract units; a Machine converts units to seconds
  /// via its processor speed. Meaningful for Task nodes only.
  double work = 1.0;

  /// Data size in bytes held by a Storage node; used as the default
  /// message size when the store's value must move between processors.
  double bytes = 8.0;

  /// PITS calculator source defining the task body (may be empty while
  /// the design is still a skeleton — the paper's "leaving the coding
  /// details for later").
  std::string pits;

  /// Child graph index for Super nodes; kNoGraph otherwise.
  GraphId subgraph = kNoGraph;

  /// Where the node directive appears in the `.pitl` file ({0,0} when the
  /// design was built programmatically), the file line of the first PITS
  /// body line (0 when unknown), and the indentation stripped from the
  /// block. Diagnostics use these to point at real source locations.
  SourcePos pos;
  int pits_line = 0;
  int pits_indent = 0;

  /// Ordered variable names the node consumes / produces. For Storage
  /// nodes these are implicit (the store's own name) and stay empty.
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
};

/// A directed arc `from -> to` labelled with the variable it carries.
struct Arc {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::string var;
  /// Message size in bytes when the variable crosses processors.
  double bytes = 8.0;
};

/// One level of the hierarchy: a named directed graph of nodes and arcs.
/// The class owns its storage and exposes cheap indexed access; structural
/// validation lives in validate().
class DataflowGraph {
 public:
  DataflowGraph() = default;
  explicit DataflowGraph(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Adds a node; its name must be a valid identifier, unique in this
  /// graph. Returns the new node's id.
  NodeId add_node(Node node);

  /// Adds an arc between existing nodes. Self-loops are rejected.
  ArcId add_arc(Arc arc);

  /// Convenience: adds an arc from/to nodes looked up by name.
  ArcId connect(std::string_view from, std::string_view to,
                std::string var = {}, double bytes = 8.0);

  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t num_arcs() const noexcept { return arcs_.size(); }

  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] const Arc& arc(ArcId id) const;
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] const std::vector<Arc>& arcs() const noexcept { return arcs_; }

  /// Name lookup; returns std::nullopt if absent.
  [[nodiscard]] std::optional<NodeId> find(std::string_view name) const;
  /// Name lookup that throws ErrorCode::Name if absent.
  [[nodiscard]] NodeId require(std::string_view name) const;

  /// Arc ids entering / leaving a node.
  [[nodiscard]] const std::vector<ArcId>& in_arcs(NodeId id) const;
  [[nodiscard]] const std::vector<ArcId>& out_arcs(NodeId id) const;

  /// Counts nodes of a kind.
  [[nodiscard]] std::size_t count(NodeKind kind) const noexcept;

  /// Structural validation of this level in isolation:
  ///   - arcs reference valid, distinct endpoints;
  ///   - no Storage -> Storage arcs (stores exchange data via tasks);
  ///   - arcs into/out of a Task must carry a variable the task declares
  ///     (when the arc is labelled);
  ///   - the graph is acyclic (large-grain dataflow designs "not
  ///     involving loops or branches", per the paper).
  /// Throws Error{Graph} on the first violation.
  void validate() const;

  /// Topological order of this level's nodes. Throws if cyclic.
  [[nodiscard]] std::vector<NodeId> topo_order() const;

  /// True if the level contains no directed cycle.
  [[nodiscard]] bool is_acyclic() const;

 private:
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<Arc> arcs_;
  std::vector<std::vector<ArcId>> in_arcs_;
  std::vector<std::vector<ArcId>> out_arcs_;
  std::unordered_map<std::string, NodeId, util::StringHash, std::equal_to<>>
      by_name_;
};

}  // namespace banger::graph

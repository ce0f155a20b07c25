#include "graph/graph.hpp"

#include <algorithm>
#include <functional>
#include <queue>

#include "util/strings.hpp"

namespace banger::graph {

std::string_view to_string(NodeKind kind) noexcept {
  switch (kind) {
    case NodeKind::Task: return "task";
    case NodeKind::Super: return "super";
    case NodeKind::Storage: return "storage";
  }
  return "unknown";
}

NodeId DataflowGraph::add_node(Node node) {
  if (!util::is_identifier(node.name)) {
    fail(ErrorCode::Name,
         "node name `" + node.name + "` is not a valid identifier");
  }
  if (by_name_.contains(node.name)) {
    fail(ErrorCode::Name, "duplicate node name `" + node.name + "` in graph `" +
                              name_ + "`");
  }
  if (node.kind == NodeKind::Task && node.work < 0) {
    fail(ErrorCode::Graph, "task `" + node.name + "` has negative work");
  }
  if (node.kind == NodeKind::Storage && node.bytes < 0) {
    fail(ErrorCode::Graph, "store `" + node.name + "` has negative size");
  }
  const auto id = static_cast<NodeId>(nodes_.size());
  by_name_.emplace(node.name, id);
  nodes_.push_back(std::move(node));
  in_arcs_.emplace_back();
  out_arcs_.emplace_back();
  return id;
}

ArcId DataflowGraph::add_arc(Arc arc) {
  if (arc.from >= nodes_.size() || arc.to >= nodes_.size()) {
    fail(ErrorCode::Graph, "arc endpoint out of range in graph `" + name_ + "`");
  }
  if (arc.from == arc.to) {
    fail(ErrorCode::Graph, "self-loop on node `" + nodes_[arc.from].name +
                               "` (dataflow designs are acyclic)");
  }
  if (arc.bytes < 0) {
    fail(ErrorCode::Graph, "arc with negative byte count");
  }
  const auto id = static_cast<ArcId>(arcs_.size());
  out_arcs_[arc.from].push_back(id);
  in_arcs_[arc.to].push_back(id);
  arcs_.push_back(std::move(arc));
  return id;
}

ArcId DataflowGraph::connect(std::string_view from, std::string_view to,
                             std::string var, double bytes) {
  return add_arc({require(from), require(to), std::move(var), bytes});
}

const Node& DataflowGraph::node(NodeId id) const {
  BANGER_ASSERT(id < nodes_.size(), "node id out of range");
  return nodes_[id];
}

Node& DataflowGraph::node(NodeId id) {
  BANGER_ASSERT(id < nodes_.size(), "node id out of range");
  return nodes_[id];
}

const Arc& DataflowGraph::arc(ArcId id) const {
  BANGER_ASSERT(id < arcs_.size(), "arc id out of range");
  return arcs_[id];
}

std::optional<NodeId> DataflowGraph::find(std::string_view name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

NodeId DataflowGraph::require(std::string_view name) const {
  auto id = find(name);
  if (!id) {
    fail(ErrorCode::Name, "no node named `" + std::string(name) +
                              "` in graph `" + name_ + "`");
  }
  return *id;
}

const std::vector<ArcId>& DataflowGraph::in_arcs(NodeId id) const {
  BANGER_ASSERT(id < in_arcs_.size(), "node id out of range");
  return in_arcs_[id];
}

const std::vector<ArcId>& DataflowGraph::out_arcs(NodeId id) const {
  BANGER_ASSERT(id < out_arcs_.size(), "node id out of range");
  return out_arcs_[id];
}

std::size_t DataflowGraph::count(NodeKind kind) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [kind](const Node& n) { return n.kind == kind; }));
}

void DataflowGraph::validate() const {
  for (const Arc& a : arcs_) {
    const Node& src = nodes_[a.from];
    const Node& dst = nodes_[a.to];
    if (src.kind == NodeKind::Storage && dst.kind == NodeKind::Storage) {
      fail(ErrorCode::Graph, "arc between stores `" + src.name + "` and `" +
                                 dst.name + "`; route data through a task");
    }
    if (!a.var.empty()) {
      auto declares = [](const std::vector<std::string>& vars,
                         const std::string& v) {
        return std::find(vars.begin(), vars.end(), v) != vars.end();
      };
      if (src.kind != NodeKind::Storage && !src.outputs.empty() &&
          !declares(src.outputs, a.var)) {
        fail(ErrorCode::Graph, "arc carries `" + a.var + "` but node `" +
                                   src.name + "` does not output it");
      }
      if (dst.kind != NodeKind::Storage && !dst.inputs.empty() &&
          !declares(dst.inputs, a.var)) {
        fail(ErrorCode::Graph, "arc carries `" + a.var + "` but node `" +
                                   dst.name + "` does not input it");
      }
    }
  }
  if (!is_acyclic()) {
    fail(ErrorCode::Graph, "graph `" + name_ + "` contains a cycle");
  }
}

std::vector<NodeId> DataflowGraph::topo_order() const {
  std::vector<std::size_t> indegree(nodes_.size(), 0);
  for (const Arc& a : arcs_) ++indegree[a.to];

  // Kahn's algorithm with a deterministic (smallest-id-first) frontier so
  // downstream heuristics tie-break reproducibly. A min-heap releases the
  // same order a linear min scan does, in O(E log V).
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> frontier;
  for (NodeId v = 0; v < nodes_.size(); ++v)
    if (indegree[v] == 0) frontier.push(v);

  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  while (!frontier.empty()) {
    const NodeId v = frontier.top();
    frontier.pop();
    order.push_back(v);
    for (ArcId e : out_arcs_[v]) {
      if (--indegree[arcs_[e].to] == 0) frontier.push(arcs_[e].to);
    }
  }
  if (order.size() != nodes_.size()) {
    fail(ErrorCode::Graph, "graph `" + name_ + "` contains a cycle");
  }
  return order;
}

bool DataflowGraph::is_acyclic() const {
  try {
    (void)topo_order();
    return true;
  } catch (const Error&) {
    return false;
  }
}

}  // namespace banger::graph

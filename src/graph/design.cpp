#include "graph/design.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "util/error.hpp"

namespace banger::graph {

namespace {

/// Working representation during expansion: a flat soup of Task/Storage/
/// Super nodes. Super nodes are replaced one by one until none remain.
struct WorkNode {
  Node node;          // node.name holds the *qualified* name
  bool dead = false;  // tombstone after replacement
};

struct WorkArc {
  std::size_t from = 0;
  std::size_t to = 0;
  std::string var;
  double bytes = 8.0;
  bool dead = false;
};

std::string unqualified(const std::string& name) {
  auto pos = name.rfind('.');
  return pos == std::string::npos ? name : name.substr(pos + 1);
}

}  // namespace

std::vector<std::size_t> FlattenResult::input_stores() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < stores.size(); ++i)
    if (stores[i].writers.empty()) out.push_back(i);
  return out;
}

std::vector<std::size_t> FlattenResult::output_stores() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < stores.size(); ++i)
    if (stores[i].readers.empty() && !stores[i].writers.empty())
      out.push_back(i);
  return out;
}

const FlatStore* FlattenResult::find_store(const std::string& var) const {
  for (const auto& s : stores)
    if (s.var == var || s.name == var) return &s;
  return nullptr;
}

Design::Design(std::string name) : name_(std::move(name)) {
  graphs_.emplace_back(name_);
}

GraphId Design::add_graph(std::string name) {
  graphs_.emplace_back(std::move(name));
  return static_cast<GraphId>(graphs_.size() - 1);
}

DataflowGraph& Design::graph(GraphId id) {
  BANGER_ASSERT(id >= 0 && static_cast<std::size_t>(id) < graphs_.size(),
                "graph id out of range");
  return graphs_[static_cast<std::size_t>(id)];
}

const DataflowGraph& Design::graph(GraphId id) const {
  BANGER_ASSERT(id >= 0 && static_cast<std::size_t>(id) < graphs_.size(),
                "graph id out of range");
  return graphs_[static_cast<std::size_t>(id)];
}

FlattenResult Design::validate() const {
  for (const auto& g : graphs_) g.validate();

  // Supernode references: existing, non-root, acyclic, not too deep.
  for (const auto& g : graphs_) {
    for (const Node& node : g.nodes()) {
      if (node.kind != NodeKind::Super) continue;
      if (node.subgraph < 0 ||
          static_cast<std::size_t>(node.subgraph) >= graphs_.size()) {
        fail(ErrorCode::Graph, "supernode `" + node.name +
                                   "` references a missing child graph");
      }
      if (node.subgraph == 0) {
        fail(ErrorCode::Graph, "supernode `" + node.name +
                                   "` references the root graph");
      }
    }
  }
  const std::vector<int> level = levels();
  for (std::size_t g = 0; g < graphs_.size(); ++g) {
    if (level[g] < kMaxHierarchyDepth) continue;
    for (const Node& node : graphs_[g].nodes()) {
      if (node.kind == NodeKind::Super) {
        fail(ErrorCode::Limit,
             "supernode `" + node.name + "` nests the hierarchy deeper than " +
                 std::to_string(kMaxHierarchyDepth) + " levels",
             node.pos);
      }
    }
  }
  return flatten();  // binding errors surface here
}

int Design::depth() const {
  const std::vector<int> level = levels();
  return *std::max_element(level.begin(), level.end());
}

std::vector<int> Design::levels() const {
  const std::size_t n = graphs_.size();
  // The level a node expands into; n for none.
  auto child_of = [n](const Node& node) {
    return node.kind == NodeKind::Super && node.subgraph > 0 &&
                   static_cast<std::size_t>(node.subgraph) < n
               ? static_cast<std::size_t>(node.subgraph)
               : n;
  };
  // Three-colour DFS from every level in id order, on an explicit stack
  // so that chains of any depth stay off the call stack. Postorder puts
  // each level after every level it references.
  std::vector<int> color(n, 0);
  std::vector<std::size_t> postorder;
  postorder.reserve(n);
  std::vector<std::pair<std::size_t, std::size_t>> stack;  // level, next node
  for (std::size_t start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    color[start] = 1;
    stack.emplace_back(start, 0);
    while (!stack.empty()) {
      const auto [g, next] = stack.back();
      const std::vector<Node>& nodes = graphs_[g].nodes();
      if (next == nodes.size()) {
        color[g] = 2;
        postorder.push_back(g);
        stack.pop_back();
        continue;
      }
      ++stack.back().second;
      const std::size_t child = child_of(nodes[next]);
      if (child == n) continue;
      if (color[child] == 1) {
        fail(ErrorCode::Graph, "recursive hierarchy through graph `" +
                                   graphs_[child].name() + "`");
      }
      if (color[child] == 0) {
        color[child] = 1;
        stack.emplace_back(child, 0);
      }
    }
  }
  // Longest chain from the root, each level after all its parents.
  std::vector<int> level(n, 0);
  level[0] = 1;
  for (auto it = postorder.rbegin(); it != postorder.rend(); ++it) {
    if (level[*it] == 0) continue;  // not reachable from the root
    for (const Node& node : graphs_[*it].nodes()) {
      if (const std::size_t child = child_of(node); child < n) {
        level[child] = std::max(level[child], level[*it] + 1);
      }
    }
  }
  return level;
}

std::size_t Design::num_leaf_tasks() const {
  return flatten().graph.num_tasks();
}

FlattenResult Design::flatten() const {
  // ---- Phase 1: load the root level into the working soup. ----
  std::vector<WorkNode> wnodes;
  std::vector<WorkArc> warcs;
  std::deque<std::size_t> super_queue;  // indices of pending Super nodes

  auto load_level = [&](const DataflowGraph& g, const std::string& prefix)
      -> std::vector<std::size_t> {
    std::vector<std::size_t> local_to_work(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      WorkNode wn;
      wn.node = g.node(v);
      wn.node.name = prefix + wn.node.name;
      local_to_work[v] = wnodes.size();
      if (wn.node.kind == NodeKind::Super) super_queue.push_back(wnodes.size());
      wnodes.push_back(std::move(wn));
    }
    for (const Arc& a : g.arcs()) {
      warcs.push_back(
          {local_to_work[a.from], local_to_work[a.to], a.var, a.bytes, false});
    }
    return local_to_work;
  };

  load_level(graphs_[0], "");

  // ---- Phase 2: expand Super nodes until none remain. ----
  // `consumes`/`produces` decide how arcs incident to a Super node re-bind
  // inside its freshly spliced child level.
  auto consumes = [&](std::size_t wi, const std::string& var) {
    const Node& n = wnodes[wi].node;
    switch (n.kind) {
      case NodeKind::Storage:
        return unqualified(n.name) == var;
      case NodeKind::Task:
      case NodeKind::Super: {
        if (std::find(n.inputs.begin(), n.inputs.end(), var) ==
            n.inputs.end())
          return false;
        // Already fed internally? then it is not a free input.
        for (const WorkArc& a : warcs) {
          if (!a.dead && a.to == wi && a.var == var) return false;
        }
        return true;
      }
    }
    return false;
  };
  auto produces = [&](std::size_t wi, const std::string& var) {
    const Node& n = wnodes[wi].node;
    if (n.kind == NodeKind::Storage) return unqualified(n.name) == var;
    return std::find(n.outputs.begin(), n.outputs.end(), var) !=
           n.outputs.end();
  };

  std::size_t expansions = 0;
  while (!super_queue.empty()) {
    if (++expansions > 100000) {
      fail(ErrorCode::Limit, "hierarchy expansion exceeded 100000 supernodes");
    }
    const std::size_t si = super_queue.front();
    super_queue.pop_front();
    const Node super = wnodes[si].node;  // copy: we tombstone below
    BANGER_ASSERT(super.kind == NodeKind::Super, "queue holds supernodes");
    if (super.subgraph <= 0 ||
        static_cast<std::size_t>(super.subgraph) >= graphs_.size()) {
      fail(ErrorCode::Graph, "supernode `" + super.name +
                                 "` references a missing child graph");
    }
    if (graphs_.size() > 1 && expansions > graphs_.size() * 10000) {
      fail(ErrorCode::Limit, "runaway hierarchy expansion (recursive design?)");
    }

    const DataflowGraph& child =
        graphs_[static_cast<std::size_t>(super.subgraph)];
    const auto child_map = load_level(child, super.name + ".");

    // Re-bind arcs that touched the Super node.
    const std::size_t arc_count = warcs.size();
    for (std::size_t ai = 0; ai < arc_count; ++ai) {
      WorkArc arc = warcs[ai];
      if (arc.dead) continue;
      const bool from_super = arc.from == si;
      const bool to_super = arc.to == si;
      if (!from_super && !to_super) continue;
      warcs[ai].dead = true;

      const std::string& var = arc.var;
      std::vector<std::size_t> froms, tos;
      if (from_super) {
        for (std::size_t wi : child_map)
          if (produces(wi, var)) froms.push_back(wi);
        if (froms.empty()) {
          fail(ErrorCode::Graph, "output `" + var + "` of supernode `" +
                                     super.name +
                                     "` is produced by nothing in graph `" +
                                     child.name() + "`");
        }
      } else {
        froms.push_back(arc.from);
      }
      if (to_super) {
        for (std::size_t wi : child_map)
          if (consumes(wi, var)) tos.push_back(wi);
        if (tos.empty()) {
          fail(ErrorCode::Graph, "input `" + var + "` of supernode `" +
                                     super.name +
                                     "` is consumed by nothing in graph `" +
                                     child.name() + "`");
        }
      } else {
        tos.push_back(arc.to);
      }
      for (std::size_t f : froms)
        for (std::size_t t : tos)
          if (f != t) warcs.push_back({f, t, var, arc.bytes, false});
    }
    wnodes[si].dead = true;
  }

  // ---- Phase 3: storage elimination into the TaskGraph. ----
  FlattenResult result;
  result.graph.reserve(wnodes.size(), warcs.size());
  std::unordered_map<std::size_t, TaskId> task_of;
  for (std::size_t wi = 0; wi < wnodes.size(); ++wi) {
    const WorkNode& wn = wnodes[wi];
    if (wn.dead || wn.node.kind != NodeKind::Task) continue;
    Task t;
    t.name = wn.node.name;
    t.work = wn.node.work;
    t.pits = wn.node.pits;
    t.inputs = wn.node.inputs;
    t.outputs = wn.node.outputs;
    t.pos = wn.node.pos;
    t.pits_line = wn.node.pits_line;
    t.pits_indent = wn.node.pits_indent;
    task_of.emplace(wi, result.graph.add_task(std::move(t)));
  }

  // Direct task->task arcs.
  for (const WorkArc& a : warcs) {
    if (a.dead) continue;
    const WorkNode& src = wnodes[a.from];
    const WorkNode& dst = wnodes[a.to];
    if (src.node.kind == NodeKind::Task && dst.node.kind == NodeKind::Task) {
      result.graph.add_edge(task_of.at(a.from), task_of.at(a.to), a.bytes,
                            a.var);
    }
  }

  // Stores: writer x reader dependences sized by the store.
  for (std::size_t wi = 0; wi < wnodes.size(); ++wi) {
    const WorkNode& wn = wnodes[wi];
    if (wn.dead || wn.node.kind != NodeKind::Storage) continue;
    FlatStore store;
    store.name = wn.node.name;
    store.var = unqualified(wn.node.name);
    store.bytes = wn.node.bytes;
    store.pos = wn.node.pos;
    for (const WorkArc& a : warcs) {
      if (a.dead) continue;
      if (a.to == wi && wnodes[a.from].node.kind == NodeKind::Task)
        store.writers.push_back(task_of.at(a.from));
      if (a.from == wi && wnodes[a.to].node.kind == NodeKind::Task)
        store.readers.push_back(task_of.at(a.to));
    }
    std::sort(store.writers.begin(), store.writers.end());
    store.writers.erase(
        std::unique(store.writers.begin(), store.writers.end()),
        store.writers.end());
    std::sort(store.readers.begin(), store.readers.end());
    store.readers.erase(
        std::unique(store.readers.begin(), store.readers.end()),
        store.readers.end());
    for (TaskId w : store.writers)
      for (TaskId r : store.readers)
        if (w != r) result.graph.add_edge(w, r, store.bytes, store.var);
    result.stores.push_back(std::move(store));
  }

  if (!result.graph.is_acyclic()) {
    fail(ErrorCode::Graph,
         "flattened design `" + name_ + "` contains a dependence cycle");
  }
  return result;
}

}  // namespace banger::graph

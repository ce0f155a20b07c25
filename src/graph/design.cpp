#include "graph/design.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "util/error.hpp"

namespace banger::graph {

namespace {

constexpr std::size_t kNil = static_cast<std::size_t>(-1);

/// The part of a node name after its last '.': a store's variable.
std::string_view unqualified(std::string_view name) {
  const auto pos = name.rfind('.');
  return pos == std::string_view::npos ? name : name.substr(pos + 1);
}

/// A node of the expansion soup: a design node and the qualified prefix
/// its name takes ("" at the root, "solve." inside supernode `solve`),
/// with the soup arcs entering and leaving it as lists in creation order.
struct SoupNode {
  const Node* node;
  std::size_t prefix;  // index into Soup::prefixes
  std::size_t first_in = kNil, last_in = kNil;
  std::size_t first_out = kNil, last_out = kNil;
};

/// An arc of the soup; `var` is the design arc's own string.
struct SoupArc {
  std::size_t from;
  std::size_t to;
  const std::string* var;
  double bytes;
  std::size_t next_in = kNil;
  std::size_t next_out = kNil;
  bool dead = false;  // re-bound into a supernode's child level
};

/// How the arcs of a supernode bind inside its child graph, built once
/// per child graph. For each variable: the child nodes (local ids,
/// ascending) that produce it, and those that take it as an input no
/// arc of the child graph already feeds (stores take their own name).
struct Binding {
  struct Var {
    std::vector<NodeId> producers;
    std::vector<NodeId> consumers;
    /// The expansion that last bound an arc carrying the variable into
    /// the supernode. That arc fed every task and supernode consumer, so
    /// a later arc of the same expansion binds to stores only.
    std::size_t delivered = 0;
  };
  std::unordered_map<std::string_view, Var> vars;

  explicit Binding(const DataflowGraph& g) {
    std::vector<std::string_view> fed;  // variables on one node's in-arcs
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const Node& n = g.node(v);
      if (n.kind == NodeKind::Storage) {
        Var& var = vars[unqualified(n.name)];
        var.producers.push_back(v);
        var.consumers.push_back(v);
        continue;
      }
      for (const std::string& out : n.outputs) add(vars[out].producers, v);
      fed.clear();
      for (const ArcId a : g.in_arcs(v)) fed.emplace_back(g.arc(a).var);
      std::sort(fed.begin(), fed.end());
      for (const std::string& in : n.inputs) {
        if (!std::binary_search(fed.begin(), fed.end(), std::string_view(in))) {
          add(vars[in].consumers, v);
        }
      }
    }
  }

 private:
  static void add(std::vector<NodeId>& nodes, NodeId v) {
    if (nodes.empty() || nodes.back() != v) nodes.push_back(v);
  }
};

/// The flat soup supernodes expand into: nodes in creation order (the
/// root level, then each supernode's child level in expansion order),
/// arcs likewise.
class Soup {
 public:
  explicit Soup(const std::deque<DataflowGraph>& graphs)
      : graphs_(graphs), bindings_(graphs.size()) {
    prefixes_.emplace_back();
    load(graphs_[0], 0);
  }

  /// Replaces every supernode by its child level, breadth first.
  void expand() {
    std::size_t expansions = 0;
    for (std::size_t si = 0; si < nodes_.size(); ++si) {
      if (nodes_[si].node->kind != NodeKind::Super) continue;
      if (++expansions > 100000) {
        fail(ErrorCode::Limit,
             "hierarchy expansion exceeded 100000 supernodes");
      }
      expand_one(si, expansions);
    }
  }

  /// Storage elimination into the TaskGraph: tasks in soup order, then
  /// the task->task arcs in creation order, then per store every
  /// writer x reader pair, each sized by the store.
  FlattenResult result() const {
    FlattenResult result;
    std::vector<TaskId> task_of(nodes_.size(), kNoTask);
    std::size_t tasks = 0;
    for (const SoupNode& n : nodes_) tasks += n.node->kind == NodeKind::Task;
    result.graph.reserve(tasks, arcs_.size());
    for (std::size_t wi = 0; wi < nodes_.size(); ++wi) {
      const Node& node = *nodes_[wi].node;
      if (node.kind != NodeKind::Task) continue;
      Task t;
      t.name = qualified(wi);
      t.work = node.work;
      t.pits = node.pits;
      t.inputs = node.inputs;
      t.outputs = node.outputs;
      t.pos = node.pos;
      t.pits_line = node.pits_line;
      t.pits_indent = node.pits_indent;
      task_of[wi] = result.graph.add_task(std::move(t));
    }

    for (const SoupArc& a : arcs_) {
      if (!a.dead && task_of[a.from] != kNoTask && task_of[a.to] != kNoTask) {
        result.graph.add_edge(task_of[a.from], task_of[a.to], a.bytes, *a.var);
      }
    }

    std::vector<TaskId> writers;
    std::vector<TaskId> readers;
    for (std::size_t wi = 0; wi < nodes_.size(); ++wi) {
      const SoupNode& n = nodes_[wi];
      if (n.node->kind != NodeKind::Storage) continue;
      writers.clear();
      readers.clear();
      for (std::size_t ai = n.first_in; ai != kNil; ai = arcs_[ai].next_in) {
        const SoupArc& a = arcs_[ai];
        if (!a.dead && task_of[a.from] != kNoTask) {
          writers.push_back(task_of[a.from]);
        }
      }
      for (std::size_t ai = n.first_out; ai != kNil; ai = arcs_[ai].next_out) {
        const SoupArc& a = arcs_[ai];
        if (!a.dead && task_of[a.to] != kNoTask) {
          readers.push_back(task_of[a.to]);
        }
      }
      FlatStore store;
      store.name = qualified(wi);
      store.var = unqualified(n.node->name);
      store.bytes = n.node->bytes;
      store.pos = n.node->pos;
      store.writers = sorted_unique(writers);
      store.readers = sorted_unique(readers);
      for (TaskId w : store.writers)
        for (TaskId r : store.readers)
          if (w != r) result.graph.add_edge(w, r, store.bytes, store.var);
      result.stores.push_back(std::move(store));
    }
    return result;
  }

 private:
  static std::vector<TaskId> sorted_unique(std::vector<TaskId>& ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  }

  std::string qualified(std::size_t wi) const {
    const std::string& prefix = prefixes_[nodes_[wi].prefix];
    const std::string& name = nodes_[wi].node->name;
    std::string out;
    out.reserve(prefix.size() + name.size());
    out += prefix;
    out += name;
    return out;
  }

  /// Appends level `g`'s nodes and arcs, its names under `prefix`.
  void load(const DataflowGraph& g, std::size_t prefix) {
    const std::size_t base = nodes_.size();
    for (const Node& n : g.nodes()) nodes_.push_back({&n, prefix});
    for (const Arc& a : g.arcs()) {
      add_arc(base + a.from, base + a.to, &a.var, a.bytes);
    }
  }

  void add_arc(std::size_t from, std::size_t to, const std::string* var,
               double bytes) {
    const std::size_t id = arcs_.size();
    arcs_.push_back({from, to, var, bytes});
    SoupNode& src = nodes_[from];
    (src.last_out == kNil ? src.first_out : arcs_[src.last_out].next_out) = id;
    src.last_out = id;
    SoupNode& dst = nodes_[to];
    (dst.last_in == kNil ? dst.first_in : arcs_[dst.last_in].next_in) = id;
    dst.last_in = id;
  }

  /// Splices supernode `si`'s child level into the soup and re-binds the
  /// arcs that touched `si`, in creation order: an arc out of `si` now
  /// leaves every child node producing its variable, an arc into `si`
  /// enters every child node consuming it.
  void expand_one(std::size_t si, std::size_t expansion) {
    const Node& super = *nodes_[si].node;
    const std::string name = qualified(si);
    if (super.subgraph <= 0 ||
        static_cast<std::size_t>(super.subgraph) >= graphs_.size()) {
      fail(ErrorCode::Graph,
           "supernode `" + name + "` references a missing child graph");
    }
    const auto gid = static_cast<std::size_t>(super.subgraph);
    const DataflowGraph& child = graphs_[gid];
    const std::size_t base = nodes_.size();
    prefixes_.push_back(name + ".");
    load(child, prefixes_.size() - 1);
    if (!bindings_[gid]) bindings_[gid].emplace(child);
    Binding& binding = *bindings_[gid];

    std::size_t in = nodes_[si].first_in;
    std::size_t out = nodes_[si].first_out;
    while (in != kNil || out != kNil) {
      const bool take_in = out == kNil || (in != kNil && in < out);
      const std::size_t ai = take_in ? in : out;
      (take_in ? in : out) = take_in ? arcs_[ai].next_in : arcs_[ai].next_out;
      if (arcs_[ai].dead) continue;
      arcs_[ai].dead = true;
      const SoupArc arc = arcs_[ai];
      const auto found = binding.vars.find(*arc.var);
      Binding::Var* var =
          found == binding.vars.end() ? nullptr : &found->second;
      if (!take_in) {
        if (var == nullptr || var->producers.empty()) {
          fail(ErrorCode::Graph,
               "output `" + *arc.var + "` of supernode `" + name +
                   "` is produced by nothing in graph `" + child.name() + "`");
        }
        for (NodeId p : var->producers) {
          add_arc(base + p, arc.to, arc.var, arc.bytes);
        }
        continue;
      }
      const bool stores_only = var != nullptr && var->delivered == expansion;
      bool bound = false;
      if (var != nullptr) {
        for (NodeId c : var->consumers) {
          if (stores_only && child.node(c).kind != NodeKind::Storage) continue;
          add_arc(arc.from, base + c, arc.var, arc.bytes);
          bound = true;
        }
        var->delivered = expansion;
      }
      if (!bound) {
        fail(ErrorCode::Graph,
             "input `" + *arc.var + "` of supernode `" + name +
                 "` is consumed by nothing in graph `" + child.name() + "`");
      }
    }
  }

  const std::deque<DataflowGraph>& graphs_;
  std::vector<SoupNode> nodes_;
  std::vector<SoupArc> arcs_;
  std::vector<std::string> prefixes_;
  std::vector<std::optional<Binding>> bindings_;  // per child graph, lazily
};

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
  (void)levels();  // a recursive hierarchy would expand without end
  Soup soup(graphs_);
  soup.expand();
  FlattenResult result = soup.result();
  if (!result.graph.is_acyclic()) {
    fail(ErrorCode::Graph,
         "flattened design `" + name_ + "` contains a dependence cycle");
  }
  return result;
}

}  // namespace banger::graph

// tests/reference_pitl.hpp
//
// The earlier `.pitl` front end, kept as the differential oracle for
// src/graph — the same role tests/reference_walker.hpp plays for the
// PITS VM. parse_design splits the text into a vector of lines and each
// directive into a vector of tokens; flatten copies every design node
// into a work soup, scans every arc once per supernode expansion and
// once per store, and copies each leaf task twice. Its meaning is easy
// to check by eye; the product front end must match it field for field
// (designs, flattenings, edge order and merged `var` strings) and error
// for error (code, message, position). Compiled only into test targets;
// never link it into the product libraries.
//
// Two behaviours of the old code are not reproduced by the product on
// purpose, and the differential suite steps around them:
//   - a `design` directive after a `graph` directive replaced the whole
//     design mid-file (and aborted on a stale supernode reference); the
//     product rejects it as a parse error;
//   - flatten() on a recursive hierarchy expanded until an expansion cap
//     ("runaway hierarchy expansion"); the product rejects the recursion
//     up front, as validate() always did.
#pragma once

#include <algorithm>
#include <charconv>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/design.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace banger::graph::reference {

namespace detail {

using util::split;
using util::split_ws;
using util::trim;

/// A directive line's trailing `key=value` tokens, viewed in place. The
/// first of repeated keys wins.
struct KeyValues {
  std::vector<std::pair<std::string_view, std::string_view>> pairs;

  [[nodiscard]] const std::string_view* find(std::string_view key) const {
    for (const auto& [k, v] : pairs) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] bool has(std::string_view key) const {
    return find(key) != nullptr;
  }
  [[nodiscard]] std::string str(std::string_view key) const {
    const std::string_view* v = find(key);
    return v == nullptr ? std::string() : std::string(*v);
  }
  [[nodiscard]] double num(const std::string& key, double fallback,
                           int line) const {
    const std::string_view* s = find(key);
    if (s == nullptr) return fallback;
    double value = 0;
    auto [ptr, ec] = std::from_chars(s->data(), s->data() + s->size(), value);
    if (ec != std::errc{} || ptr != s->data() + s->size()) {
      fail(ErrorCode::Parse,
           "bad numeric value `" + std::string(*s) + "` for " + key,
           {line, 1});
    }
    return value;
  }
  [[nodiscard]] std::vector<std::string> list(std::string_view key) const {
    std::vector<std::string> out;
    const std::string_view* v = find(key);
    if (v == nullptr) return out;
    for (auto part : split(*v, ',')) {
      auto t = trim(part);
      if (!t.empty()) out.emplace_back(t);
    }
    return out;
  }
};

/// Parses trailing `key=value` tokens of a directive line.
inline KeyValues parse_kv(const std::vector<std::string_view>& tokens,
                          std::size_t first, int line) {
  KeyValues kv;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    auto eq = tokens[i].find('=');
    if (eq == std::string_view::npos) {
      fail(ErrorCode::Parse,
           "expected key=value, got `" + std::string(tokens[i]) + "`",
           {line, 1});
    }
    kv.pairs.emplace_back(tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
  }
  return kv;
}

inline std::string_view strip_comment(std::string_view raw) {
  // '#' outside of a pits block starts a comment.
  auto pos = raw.find('#');
  if (pos != std::string_view::npos) raw = raw.substr(0, pos);
  return trim(raw);
}

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

inline std::string unqualified(const std::string& name) {
  auto pos = name.rfind('.');
  return pos == std::string::npos ? name : name.substr(pos + 1);
}

/// Per graph, its level on the longest chain of supernode references
/// from the root (1 for the root, 0 when unreachable). Throws
/// Error{Graph} on a reference cycle.
inline std::vector<int> levels(const Design& design) {
  const std::size_t n = design.num_graphs();
  // The level a node expands into; n for none.
  auto child_of = [n](const Node& node) {
    return node.kind == NodeKind::Super && node.subgraph > 0 &&
                   static_cast<std::size_t>(node.subgraph) < n
               ? static_cast<std::size_t>(node.subgraph)
               : n;
  };
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
      const std::vector<Node>& nodes =
          design.graph(static_cast<GraphId>(g)).nodes();
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
        fail(ErrorCode::Graph,
             "recursive hierarchy through graph `" +
                 design.graph(static_cast<GraphId>(child)).name() + "`");
      }
      if (color[child] == 0) {
        color[child] = 1;
        stack.emplace_back(child, 0);
      }
    }
  }
  std::vector<int> level(n, 0);
  level[0] = 1;
  for (auto it = postorder.rbegin(); it != postorder.rend(); ++it) {
    if (level[*it] == 0) continue;  // not reachable from the root
    for (const Node& node : design.graph(static_cast<GraphId>(*it)).nodes()) {
      if (const std::size_t child = child_of(node); child < n) {
        level[child] = std::max(level[child], level[*it] + 1);
      }
    }
  }
  return level;
}

}  // namespace detail

/// Parses a `.pitl` document.
inline Design parse_design(std::string_view text) {
  using detail::parse_kv;
  using detail::split;
  using detail::split_ws;
  using detail::strip_comment;
  using detail::trim;
  const std::vector<std::string_view> lines = split(text, '\n');

  Design design;
  bool named = false;
  DataflowGraph* current = nullptr;
  NodeId last_task = kNoNode;  // pits target within `current`
  std::unordered_map<std::string, GraphId> graph_ids;
  // Supernode child references resolved after the whole file is read:
  // (graph id, node id, child name, line).
  struct PendingSuper {
    GraphId gid;
    NodeId nid;
    std::string child;
    int line;
  };
  std::vector<PendingSuper> pending;
  GraphId current_gid = kNoGraph;

  for (std::size_t li = 0; li < lines.size(); ++li) {
    const int lineno = static_cast<int>(li + 1);
    const std::string_view line = strip_comment(lines[li]);
    if (line.empty()) continue;

    auto tokens = split_ws(line);
    const std::string head(tokens[0]);

    if (head == "pits") {
      if (current == nullptr || last_task == kNoNode) {
        fail(ErrorCode::Parse, "pits block without a preceding task",
             {lineno, 1});
      }
      if (tokens.size() < 2 || tokens[1] != "{") {
        fail(ErrorCode::Parse, "expected `pits {`", {lineno, 1});
      }
      const int body_first_line = lineno + 1;
      std::vector<std::string_view> body_lines;
      bool closed = false;
      while (++li < lines.size()) {
        // Inside the block lines are raw PITS source ('#' is not a
        // comment delimiter here; PITS has its own `--` comments).
        if (trim(lines[li]) == "}") {
          closed = true;
          break;
        }
        body_lines.push_back(lines[li]);
      }
      if (!closed) {
        fail(ErrorCode::Parse, "unterminated pits block", {lineno, 1});
      }
      // Strip the common leading indentation so serialisation round-trips
      // to a fixpoint while nested PITS indentation survives.
      std::size_t common = std::string::npos;
      for (const std::string_view l : body_lines) {
        if (trim(l).empty()) continue;
        common = std::min(common, l.find_first_not_of(" \t"));
      }
      if (common == std::string::npos) common = 0;
      std::string body;
      for (const std::string_view l : body_lines) {
        body += l.size() > common ? l.substr(common) : trim(l);
        body += '\n';
      }
      current->node(last_task).pits = body;
      current->node(last_task).pits_line = body_first_line;
      current->node(last_task).pits_indent = static_cast<int>(common);
      continue;
    }

    if (head == "design") {
      if (tokens.size() != 2) {
        fail(ErrorCode::Parse, "expected `design <name>`", {lineno, 1});
      }
      if (named) {
        fail(ErrorCode::Parse, "duplicate design directive", {lineno, 1});
      }
      design = Design(std::string(tokens[1]));
      named = true;
      current = nullptr;
      continue;
    }

    if (head == "graph") {
      if (tokens.size() != 2) {
        fail(ErrorCode::Parse, "expected `graph <name>`", {lineno, 1});
      }
      const auto [slot, fresh] =
          graph_ids.try_emplace(std::string(tokens[1]), kNoGraph);
      const std::string& gname = slot->first;
      if (!fresh) {
        fail(ErrorCode::Parse, "duplicate graph `" + gname + "`", {lineno, 1});
      }
      if (graph_ids.size() == 1) {
        current_gid = design.root();
        design.graph(current_gid).set_name(gname);
      } else {
        current_gid = design.add_graph(gname);
      }
      slot->second = current_gid;
      current = &design.graph(current_gid);
      last_task = kNoNode;
      continue;
    }

    if (current == nullptr) {
      fail(ErrorCode::Parse, "directive `" + head + "` before any graph",
           {lineno, 1});
    }

    if (head == "task" || head == "store" || head == "super") {
      if (tokens.size() < 2) {
        fail(ErrorCode::Parse, "expected `" + head + " <name> ...`",
             {lineno, 1});
      }
      auto kv = parse_kv(tokens, 2, lineno);
      Node node;
      node.name = std::string(tokens[1]);
      node.pos = {lineno, 1};
      if (head == "task") {
        node.kind = NodeKind::Task;
        node.work = kv.num("work", 1.0, lineno);
      } else if (head == "store") {
        node.kind = NodeKind::Storage;
        node.bytes = kv.num("bytes", 8.0, lineno);
      } else {
        node.kind = NodeKind::Super;
        if (!kv.has("graph")) {
          fail(ErrorCode::Parse, "super requires graph=<name>", {lineno, 1});
        }
      }
      node.inputs = kv.list("in");
      node.outputs = kv.list("out");
      NodeId nid;
      try {
        nid = current->add_node(std::move(node));
      } catch (const Error& e) {
        fail(e.code(), e.message(), {lineno, 1});
      }
      if (head == "super") {
        pending.push_back({current_gid, nid, kv.str("graph"), lineno});
        last_task = kNoNode;
      } else if (head == "task") {
        last_task = nid;
      } else {
        last_task = kNoNode;
      }
      continue;
    }

    if (head == "arc") {
      // arc <from> -> <to> [var=..] [bytes=..]
      if (tokens.size() < 4 || tokens[2] != "->") {
        fail(ErrorCode::Parse, "expected `arc <from> -> <to> ...`",
             {lineno, 1});
      }
      auto kv = parse_kv(tokens, 4, lineno);
      try {
        current->connect(std::string(tokens[1]), std::string(tokens[3]),
                         kv.str("var"), kv.num("bytes", 8.0, lineno));
      } catch (const Error& e) {
        fail(e.code(), e.message(), {lineno, 1});
      }
      last_task = kNoNode;
      continue;
    }

    fail(ErrorCode::Parse, "unknown directive `" + head + "`", {lineno, 1});
  }

  for (const auto& p : pending) {
    auto it = graph_ids.find(p.child);
    if (it == graph_ids.end()) {
      fail(ErrorCode::Parse,
           "supernode references undefined graph `" + p.child + "`",
           {p.line, 1});
    }
    design.graph(p.gid).node(p.nid).subgraph = it->second;
  }
  return design;
}

/// Expands the hierarchy and eliminates stores.
inline FlattenResult flatten(const Design& design) {
  using detail::unqualified;
  using detail::WorkArc;
  using detail::WorkNode;
  const std::size_t num_graphs = design.num_graphs();
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

  load_level(design.graph(0), "");

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
        static_cast<std::size_t>(super.subgraph) >= num_graphs) {
      fail(ErrorCode::Graph, "supernode `" + super.name +
                                 "` references a missing child graph");
    }
    if (num_graphs > 1 && expansions > num_graphs * 10000) {
      fail(ErrorCode::Limit, "runaway hierarchy expansion (recursive design?)");
    }

    const DataflowGraph& child = design.graph(super.subgraph);
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
         "flattened design `" + design.name() + "` contains a dependence cycle");
  }
  return result;
}

/// Whole-design validation, returning the flattening.
inline FlattenResult validate(const Design& design) {
  const std::size_t num_graphs = design.num_graphs();
  for (std::size_t g = 0; g < num_graphs; ++g) {
    design.graph(static_cast<GraphId>(g)).validate();
  }

  // Supernode references: existing, non-root, acyclic, not too deep.
  for (std::size_t g = 0; g < num_graphs; ++g) {
    for (const Node& node : design.graph(static_cast<GraphId>(g)).nodes()) {
      if (node.kind != NodeKind::Super) continue;
      if (node.subgraph < 0 ||
          static_cast<std::size_t>(node.subgraph) >= num_graphs) {
        fail(ErrorCode::Graph, "supernode `" + node.name +
                                   "` references a missing child graph");
      }
      if (node.subgraph == 0) {
        fail(ErrorCode::Graph, "supernode `" + node.name +
                                   "` references the root graph");
      }
    }
  }
  const std::vector<int> level = detail::levels(design);
  for (std::size_t g = 0; g < num_graphs; ++g) {
    if (level[g] < kMaxHierarchyDepth) continue;
    for (const Node& node : design.graph(static_cast<GraphId>(g)).nodes()) {
      if (node.kind == NodeKind::Super) {
        fail(ErrorCode::Limit,
             "supernode `" + node.name + "` nests the hierarchy deeper than " +
                 std::to_string(kMaxHierarchyDepth) + " levels",
             node.pos);
      }
    }
  }
  return flatten(design);  // binding errors surface here
}

}  // namespace banger::graph::reference

#include "graph/serialize.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace banger::graph {

namespace {

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
KeyValues parse_kv(const std::vector<std::string_view>& tokens,
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

std::string_view strip_comment(std::string_view raw) {
  // '#' outside of a pits block starts a comment.
  auto pos = raw.find('#');
  if (pos != std::string_view::npos) raw = raw.substr(0, pos);
  return trim(raw);
}

}  // namespace

Design parse_design(std::string_view text) {
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

Design load_design(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail(ErrorCode::Io, "cannot open `" + path + "` for reading");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_design(buf.str());
}

std::string to_pitl(const Design& design) {
  std::ostringstream out;
  out << "design " << design.name() << "\n";
  for (GraphId gid = 0; gid < static_cast<GraphId>(design.num_graphs());
       ++gid) {
    const DataflowGraph& g = design.graph(gid);
    out << "graph " << g.name() << "\n";
    auto emit_vars = [&](const char* key, const std::vector<std::string>& v) {
      if (v.empty()) return;
      out << ' ' << key << '=' << util::join(v, ",");
    };
    for (const Node& n : g.nodes()) {
      switch (n.kind) {
        case NodeKind::Task:
          out << "  task " << n.name << " work=" << util::format_double(n.work, 12);
          emit_vars("in", n.inputs);
          emit_vars("out", n.outputs);
          out << "\n";
          if (!n.pits.empty()) {
            out << "  pits {\n";
            for (auto line : split(n.pits, '\n')) {
              if (!trim(line).empty()) out << "    " << line << "\n";
            }
            out << "  }\n";
          }
          break;
        case NodeKind::Storage:
          out << "  store " << n.name
              << " bytes=" << util::format_double(n.bytes, 12) << "\n";
          break;
        case NodeKind::Super:
          out << "  super " << n.name << " graph="
              << design.graph(n.subgraph).name();
          emit_vars("in", n.inputs);
          emit_vars("out", n.outputs);
          out << "\n";
          break;
      }
    }
    for (const Arc& a : g.arcs()) {
      out << "  arc " << g.node(a.from).name << " -> " << g.node(a.to).name;
      if (!a.var.empty()) out << " var=" << a.var;
      out << " bytes=" << util::format_double(a.bytes, 12) << "\n";
    }
  }
  return out.str();
}

void save_design(const Design& design, const std::string& path) {
  std::ofstream out(path);
  if (!out) fail(ErrorCode::Io, "cannot open `" + path + "` for writing");
  out << to_pitl(design);
  if (!out) fail(ErrorCode::Io, "error writing `" + path + "`");
}

}  // namespace banger::graph

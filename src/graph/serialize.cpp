#include "graph/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "util/error.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace banger::graph {

namespace {

using util::split;
using util::trim;

/// Reads a `.pitl` text in one pass. Lines and tokens are views into the
/// text: the only strings built are the ones the Design keeps.
class PitlParser {
 public:
  explicit PitlParser(std::string_view text) : text_(text) {}

  Design parse() {
    std::string_view raw;
    while (next_line(raw)) {
      // '#' outside of a pits block starts a comment.
      const std::string_view line = trim(raw.substr(0, raw.find('#')));
      if (line.empty()) continue;
      util::split_ws(line, tokens_);
      directive(tokens_[0]);
    }
    for (const PendingSuper& p : pending_) {
      const auto it = graph_ids_.find(p.child);
      if (it == graph_ids_.end()) {
        fail(ErrorCode::Parse,
             "supernode references undefined graph `" + std::string(p.child) +
                 "`",
             {p.line, 1});
      }
      design_.graph(p.gid).node(p.nid).subgraph = it->second;
    }
    return std::move(design_);
  }

 private:
  /// A supernode's child graph, resolved once the whole file is read.
  struct PendingSuper {
    GraphId gid;
    NodeId nid;
    std::string_view child;
    int line;
  };

  /// The next raw line (without its '\n'); false past the last one. A
  /// text of k newlines has k + 1 lines.
  bool next_line(std::string_view& line) {
    if (pos_ > text_.size()) return false;
    std::size_t end = text_.find('\n', pos_);
    if (end == std::string_view::npos) end = text_.size();
    line = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    ++lineno_;
    return true;
  }

  [[noreturn]] void error(std::string message) const {
    fail(ErrorCode::Parse, std::move(message), {lineno_, 1});
  }

  /// Checks that every token from `first` on is `key=value`; value()
  /// then finds them in place.
  void check_key_values(std::size_t first) const {
    for (std::size_t i = first; i < tokens_.size(); ++i) {
      if (tokens_[i].find('=') == std::string_view::npos) {
        error("expected key=value, got `" + std::string(tokens_[i]) + "`");
      }
    }
  }

  /// The value of the first `key=` token from `first` on, or nullopt.
  std::optional<std::string_view> value(std::size_t first,
                                        std::string_view key) const {
    for (std::size_t i = first; i < tokens_.size(); ++i) {
      const std::string_view t = tokens_[i];
      const std::size_t eq = t.find('=');
      if (t.substr(0, eq) == key) return t.substr(eq + 1);
    }
    return std::nullopt;
  }

  double number(std::size_t first, std::string_view key,
                double fallback) const {
    const auto s = value(first, key);
    if (!s) return fallback;
    double out = 0;
    const auto [ptr, ec] =
        std::from_chars(s->data(), s->data() + s->size(), out);
    if (ec != std::errc{} || ptr != s->data() + s->size()) {
      error("bad numeric value `" + std::string(*s) + "` for " +
            std::string(key));
    }
    return out;
  }

  std::vector<std::string> list(std::size_t first, std::string_view key) const {
    std::vector<std::string> out;
    const auto v = value(first, key);
    if (!v) return out;
    out.reserve(
        static_cast<std::size_t>(std::count(v->begin(), v->end(), ',')) + 1);
    // Tokens hold no whitespace, so the parts need no trimming.
    for (std::size_t at = 0; at <= v->size();) {
      std::size_t comma = v->find(',', at);
      if (comma == std::string_view::npos) comma = v->size();
      if (comma > at) out.emplace_back(v->substr(at, comma - at));
      at = comma + 1;
    }
    return out;
  }

  void directive(std::string_view head) {
    if (head == "pits") return pits_block();
    if (head == "design") return design_line();
    if (head == "graph") return graph_line();
    if (current_ == nullptr) {
      error("directive `" + std::string(head) + "` before any graph");
    }
    if (head == "task" || head == "store" || head == "super") {
      return node_line(head);
    }
    if (head == "arc") return arc_line();
    error("unknown directive `" + std::string(head) + "`");
  }

  void pits_block() {
    if (current_ == nullptr || last_task_ == kNoNode) {
      error("pits block without a preceding task");
    }
    if (tokens_.size() < 2 || tokens_[1] != "{") error("expected `pits {`");
    const int open_line = lineno_;
    // Inside the block lines are raw PITS source ('#' is not a comment
    // delimiter here; PITS has its own `--` comments). First pass: find
    // the closing line and the indentation common to the non-blank lines.
    const std::size_t body_begin = pos_;
    std::size_t body_end = body_begin;
    std::size_t common = std::string::npos;
    bool closed = false;
    std::string_view raw;
    while (next_line(raw)) {
      const std::string_view trimmed = trim(raw);
      if (trimmed == "}") {
        closed = true;
        break;
      }
      body_end = pos_;
      if (!trimmed.empty()) {
        common = std::min(common, raw.find_first_not_of(" \t"));
      }
    }
    if (!closed) {
      fail(ErrorCode::Parse, "unterminated pits block", {open_line, 1});
    }
    if (common == std::string::npos) common = 0;
    // Second pass: strip that indentation so serialisation round-trips
    // to a fixpoint while nested PITS indentation survives.
    const std::string_view lines =
        text_.substr(body_begin, body_end - body_begin);
    std::string body;
    body.reserve(lines.size() + 1);
    for (std::size_t at = 0; at < lines.size();) {
      std::size_t end = lines.find('\n', at);
      if (end == std::string_view::npos) end = lines.size();
      const std::string_view l = lines.substr(at, end - at);
      body += l.size() > common ? l.substr(common) : trim(l);
      body += '\n';
      at = end + 1;
    }
    Node& task = current_->node(last_task_);
    task.pits = std::move(body);
    task.pits_line = open_line + 1;
    task.pits_indent = static_cast<int>(common);
  }

  void design_line() {
    if (tokens_.size() != 2) error("expected `design <name>`");
    if (named_) error("duplicate design directive");
    // A design directive names the design before its first graph; later
    // it would discard the graphs read so far.
    if (!graph_ids_.empty()) error("design directive after a graph");
    design_ = Design(std::string(tokens_[1]));
    named_ = true;
  }

  void graph_line() {
    if (tokens_.size() != 2) error("expected `graph <name>`");
    const auto [slot, fresh] =
        graph_ids_.try_emplace(std::string(tokens_[1]), kNoGraph);
    const std::string& gname = slot->first;
    if (!fresh) error("duplicate graph `" + gname + "`");
    if (graph_ids_.size() == 1) {
      current_gid_ = design_.root();
      design_.graph(current_gid_).set_name(gname);
    } else {
      current_gid_ = design_.add_graph(gname);
    }
    slot->second = current_gid_;
    current_ = &design_.graph(current_gid_);
    last_task_ = kNoNode;
  }

  void node_line(std::string_view head) {
    if (tokens_.size() < 2) {
      error("expected `" + std::string(head) + " <name> ...`");
    }
    check_key_values(2);
    Node node;
    node.name = std::string(tokens_[1]);
    node.pos = {lineno_, 1};
    if (head == "task") {
      node.kind = NodeKind::Task;
      node.work = number(2, "work", 1.0);
    } else if (head == "store") {
      node.kind = NodeKind::Storage;
      node.bytes = number(2, "bytes", 8.0);
    } else {
      node.kind = NodeKind::Super;
      if (!value(2, "graph")) error("super requires graph=<name>");
    }
    node.inputs = list(2, "in");
    node.outputs = list(2, "out");
    NodeId nid;
    try {
      nid = current_->add_node(std::move(node));
    } catch (const Error& e) {
      fail(e.code(), e.message(), {lineno_, 1});
    }
    last_task_ = kNoNode;
    if (head == "super") {
      pending_.push_back({current_gid_, nid, *value(2, "graph"), lineno_});
    } else if (head == "task") {
      last_task_ = nid;
    }
  }

  void arc_line() {
    // arc <from> -> <to> [var=..] [bytes=..]
    if (tokens_.size() < 4 || tokens_[2] != "->") {
      error("expected `arc <from> -> <to> ...`");
    }
    check_key_values(4);
    const double bytes = number(4, "bytes", 8.0);
    try {
      current_->connect(tokens_[1], tokens_[3],
                        std::string(value(4, "var").value_or("")), bytes);
    } catch (const Error& e) {
      fail(e.code(), e.message(), {lineno_, 1});
    }
    last_task_ = kNoNode;
  }

  std::string_view text_;
  std::size_t pos_ = 0;  // start of the next line
  int lineno_ = 0;       // number of the line last read
  std::vector<std::string_view> tokens_;  // of the current directive

  Design design_;
  bool named_ = false;
  DataflowGraph* current_ = nullptr;
  GraphId current_gid_ = kNoGraph;
  NodeId last_task_ = kNoNode;  // pits target within `current_`
  std::unordered_map<std::string, GraphId, util::StringHash, std::equal_to<>>
      graph_ids_;
  std::vector<PendingSuper> pending_;
};

}  // namespace

Design parse_design(std::string_view text) {
  return PitlParser(text).parse();
}

Design load_design(const std::string& path) {
  return parse_design(util::read_file(path));
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

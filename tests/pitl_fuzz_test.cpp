// Differential `.pitl` front end. Seed designs — the samples, the
// analysis corpus, the workloads' heat, LU 3x3 and friends, random
// layered designs and random hierarchies — are mutated line by line
// (deletions, duplicates, swaps, truncations; comments, tabs, `\r`,
// blank and all-space lines; bad numbers, repeated keys, long names,
// unknown directives, unterminated pits blocks; undefined and forward
// child graphs, store->store arcs, cycles, recursion). Each text goes
// through the product's parse_design, validate() and flatten() and
// through the earlier front end kept in reference_pitl.hpp: both must
// build the same design and flattening (every field, edge order, merged
// `var` strings, stores) or raise the same error (code, message,
// position).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/serialize.hpp"
#include "reference_pitl.hpp"
#include "util/file.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads/designs.hpp"
#include "workloads/graphs.hpp"
#include "workloads/lu.hpp"

namespace banger::graph {
namespace {

// ------------------------------------------------------------ rendering

std::string bits(double x) {
  return std::to_string(std::bit_cast<std::uint64_t>(x));
}

std::string pos(SourcePos p) {
  return std::to_string(p.line) + ":" + std::to_string(p.column);
}

std::string list(const std::vector<std::string>& v) {
  return "[" + util::join(v, "|") + "]";
}

template <class Ids>
std::string ids(const Ids& v) {
  std::string out = "[";
  for (const auto id : v) out += std::to_string(id) + ",";
  return out + "]";
}

/// Every field of a design, one line per node and arc.
std::string dump(const Design& d) {
  std::string out = "design " + d.name() + "\n";
  for (GraphId g = 0; g < static_cast<GraphId>(d.num_graphs()); ++g) {
    const DataflowGraph& graph = d.graph(g);
    out += "graph " + graph.name() + "\n";
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      const Node& n = graph.node(v);
      out += std::string(to_string(n.kind)) + " " + n.name + " w" +
             bits(n.work) + " b" + bits(n.bytes) + " sub" +
             std::to_string(n.subgraph) + " @" + pos(n.pos) + " pits@" +
             std::to_string(n.pits_line) + "+" +
             std::to_string(n.pits_indent) + " in" + list(n.inputs) +
             " out" + list(n.outputs) + " arcs" + ids(graph.in_arcs(v)) +
             ids(graph.out_arcs(v)) + " {" + n.pits + "}\n";
    }
    for (const Arc& a : graph.arcs()) {
      out += "arc " + std::to_string(a.from) + "->" + std::to_string(a.to) +
             " var=" + a.var + " b" + bits(a.bytes) + "\n";
    }
  }
  return out;
}

/// Every field of a flattening: tasks, edges in id order, stores.
std::string dump(const FlattenResult& f) {
  std::string out;
  for (const Task& t : f.graph.tasks()) {
    out += "task " + t.name + " w" + bits(t.work) + " @" + pos(t.pos) +
           " pits@" + std::to_string(t.pits_line) + "+" +
           std::to_string(t.pits_indent) + " in" + list(t.inputs) + " out" +
           list(t.outputs) + " {" + t.pits + "}\n";
  }
  for (const Edge& e : f.graph.edges()) {
    out += "edge " + std::to_string(e.from) + "->" + std::to_string(e.to) +
           " b" + bits(e.bytes) + " var=" + e.var + "\n";
  }
  for (const FlatStore& s : f.stores) {
    out += "store " + s.name + " var=" + s.var + " b" + bits(s.bytes) +
           " @" + pos(s.pos) + " w" + ids(s.writers) + " r" +
           ids(s.readers) + "\n";
  }
  return out;
}

/// The rendering of what `f` returns, or its error.
template <class F>
std::string outcome(F&& f) {
  try {
    return dump(f());
  } catch (const Error& e) {
    return "error " + std::string(to_string(e.code())) + " @" +
           pos(e.pos()) + " " + e.message();
  }
}

// ---------------------------------------------------------- comparison

/// How many texts ended where, so a seed that stops exercising one side
/// of the comparison shows.
struct Tally {
  int parse_errors = 0;
  int validate_errors = 0;
  int flattened = 0;
  int design_after_graph = 0;
};

/// validate() and flatten() of the product against the oracle.
void check_design(const Design& d, const std::string& context,
                  Tally& tally) {
  const std::string mine = outcome([&] { return d.validate(); });
  EXPECT_EQ(mine, outcome([&] { return reference::validate(d); }))
      << context;
  (mine.rfind("error", 0) == 0 ? tally.validate_errors : tally.flattened)++;

  bool recursive = false;
  try {
    (void)d.depth();
  } catch (const Error&) {
    recursive = true;
  }
  const std::string flat = outcome([&] { return d.flatten(); });
  if (recursive) {
    // The oracle's flatten expanded a recursive hierarchy up to a cap;
    // flatten now rejects it up front, as validate() always did.
    EXPECT_EQ(flat.rfind("error graph @0:0 recursive hierarchy through", 0),
              0u)
        << flat << "\n" << context;
    return;
  }
  EXPECT_EQ(flat, outcome([&] { return reference::flatten(d); })) << context;
}

/// parse_design of the product against the oracle, then the design.
void check_text(const std::string& text, Tally& tally) {
  Design mine;
  const std::string parsed = outcome([&] {
    mine = parse_design(text);
    return mine;
  });
  const std::string kAfterGraph = "design directive after a graph";
  if (parsed.size() >= kAfterGraph.size() &&
      parsed.compare(parsed.size() - kAfterGraph.size(), kAfterGraph.size(),
                     kAfterGraph) == 0) {
    // The oracle replaced the whole design mid-file here (and aborted on
    // a stale supernode); the product refuses. The line it names must be
    // a design directive.
    const int line = std::stoi(parsed.substr(parsed.find('@') + 1));
    const std::string_view at = util::split(text, '\n')[line - 1];
    EXPECT_EQ(util::split_ws(at.substr(0, at.find('#'))).at(0), "design")
        << parsed << "\n" << text;
    ++tally.design_after_graph;
    return;
  }
  ASSERT_EQ(parsed, outcome([&] { return reference::parse_design(text); }))
      << text;
  if (parsed.rfind("error", 0) == 0) {
    ++tally.parse_errors;
    return;
  }
  check_design(mine, text, tally);
}

// --------------------------------------------------------------- seeds

std::size_t pick(util::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.next_below(n));
}

/// A flat design over a random layered task graph: one input store
/// feeding the sources, one output store the sinks write, a variable
/// per edge.
Design layered_design(std::uint64_t seed) {
  workloads::RandomGraphSpec spec;
  spec.layers = 4;
  spec.width = 4;
  spec.seed = seed;
  const TaskGraph tg = workloads::random_layered(spec);
  Design d("layered");
  DataflowGraph& g = d.root_graph();
  Node src;
  src.kind = NodeKind::Storage;
  src.name = "src";
  src.bytes = 64;
  g.add_node(src);
  Node dst = src;
  dst.name = "dst";
  g.add_node(dst);
  auto var = [](EdgeId e) { return "e" + std::to_string(e); };
  for (TaskId t = 0; t < tg.num_tasks(); ++t) {
    Node n;
    n.name = "t" + std::to_string(t);
    n.work = tg.task(t).work;
    for (EdgeId e : tg.in_edges(t)) n.inputs.push_back(var(e));
    for (EdgeId e : tg.out_edges(t)) n.outputs.push_back(var(e));
    if (n.inputs.empty()) n.inputs.push_back("src");
    if (n.outputs.empty()) n.outputs.push_back("dst");
    n.pits = n.outputs[0] + " := 1\n";
    g.add_node(std::move(n));
  }
  for (TaskId t = 0; t < tg.num_tasks(); ++t) {
    const std::string name = "t" + std::to_string(t);
    if (tg.in_edges(t).empty()) g.connect("src", name, "src", 64);
    if (tg.out_edges(t).empty()) g.connect(name, "dst", "dst", 64);
  }
  for (EdgeId e = 0; e < tg.num_edges(); ++e) {
    const Edge& edge = tg.edge(e);
    g.connect("t" + std::to_string(edge.from), "t" + std::to_string(edge.to),
              var(e), edge.bytes);
  }
  return d;
}

/// A random hierarchy of 2-4 graph levels over variables a-d. Graph k
/// holds stores, tasks and supernodes expanding into later graphs, so
/// it never recurses; most arcs carry a variable both ends declare.
/// Nodes and arcs come in random order, so a supernode's arcs in and out
/// interleave.
Design random_hierarchy(util::Rng& rng) {
  auto shuffle = [&](auto& items) {
    for (std::size_t k = items.size(); k > 1; --k) {
      std::swap(items[k - 1], items[pick(rng, k)]);
    }
  };
  const std::vector<std::string> pool = {"a", "b", "c", "d"};
  auto subset = [&] {
    std::vector<std::string> out;
    for (const std::string& v : pool)
      if (rng.chance(0.4)) out.push_back(v);
    return out;
  };
  Design d("hier");
  const int graphs = static_cast<int>(rng.uniform_int(2, 4));
  for (int g = 1; g < graphs; ++g) d.add_graph("g" + std::to_string(g));
  for (int g = 0; g < graphs; ++g) {
    DataflowGraph& graph = d.graph(g);
    std::vector<Node> nodes;
    for (const std::string& v : pool) {
      if (!rng.chance(g == 0 ? 0.4 : 0.85)) continue;
      Node s;
      s.kind = NodeKind::Storage;
      s.name = v;
      s.bytes = static_cast<double>(rng.uniform_int(1, 64));
      nodes.push_back(std::move(s));
    }
    const int tasks = static_cast<int>(rng.uniform_int(1, 4));
    for (int t = 0; t < tasks; ++t) {
      Node n;
      n.name = "t" + std::to_string(t);
      n.work = static_cast<double>(rng.uniform_int(0, 9));
      n.inputs = subset();
      n.outputs = subset();
      if (rng.chance(0.5)) n.pits = "x := 1\n";
      nodes.push_back(std::move(n));
    }
    if (g + 1 < graphs) {
      const int supers = static_cast<int>(rng.uniform_int(0, 2));
      for (int s = 0; s < supers; ++s) {
        Node n;
        n.kind = NodeKind::Super;
        n.name = "s" + std::to_string(s);
        n.subgraph = static_cast<GraphId>(rng.uniform_int(g + 1, graphs - 1));
        n.inputs = subset();
        n.outputs = subset();
        nodes.push_back(std::move(n));
      }
    }
    shuffle(nodes);
    for (const Node& n : nodes) graph.add_node(n);
    // Arcs go forward in node order, so no level has a cycle.
    std::vector<Arc> arcs;
    for (NodeId i = 0; i < nodes.size(); ++i) {
      for (NodeId j = i + 1; j < nodes.size(); ++j) {
        if (!rng.chance(0.35)) continue;
        const Node& from = nodes[i];
        const Node& to = nodes[j];
        if (from.kind == NodeKind::Storage && to.kind == NodeKind::Storage) {
          continue;
        }
        auto has = [](const std::vector<std::string>& vs,
                      const std::string& v) {
          return std::find(vs.begin(), vs.end(), v) != vs.end();
        };
        std::vector<std::string> fits;
        for (const std::string& v : pool) {
          const bool out = from.kind == NodeKind::Storage ? from.name == v
                                                          : has(from.outputs, v);
          const bool in = to.kind == NodeKind::Storage ? to.name == v
                                                       : has(to.inputs, v);
          if (out && in) fits.push_back(v);
        }
        // Now and then a variable an end does not declare.
        if (fits.empty() && !rng.chance(0.1)) continue;
        std::string var =
            fits.empty() || rng.chance(0.05)
                ? pool[static_cast<std::size_t>(rng.uniform_int(0, 3))]
                : fits[static_cast<std::size_t>(
                      rng.uniform_int(0, static_cast<std::int64_t>(fits.size()) - 1))];
        arcs.push_back({i, j, std::move(var),
                        static_cast<double>(rng.uniform_int(1, 32))});
      }
    }
    shuffle(arcs);
    for (Arc& a : arcs) graph.add_arc(std::move(a));
  }
  return d;
}

std::vector<std::string> seed_texts() {
  const std::string root = BANGER_SOURCE_DIR;
  std::vector<std::string> texts;
  for (const char* path :
       {"/samples/sqrt_fanout.pitl", "/samples/analysis/absint_showcase.pitl",
        "/samples/analysis/shape_mismatch.pitl",
        "/samples/analysis/clean_loops.pitl"}) {
    texts.push_back(util::read_file(root + path));
  }
  texts.push_back(to_pitl(workloads::heat_design(4, 3, 4)));
  texts.push_back(to_pitl(workloads::lu3x3_design()));
  texts.push_back(to_pitl(workloads::montecarlo_design(3, 8)));
  texts.push_back(to_pitl(workloads::signal_pipeline_design(2)));
  texts.push_back(to_pitl(workloads::polyeval_design(3)));
  for (std::uint64_t s = 1; s <= 2; ++s) {
    texts.push_back(to_pitl(layered_design(s)));
  }
  util::Rng rng(0x91e5);
  for (int i = 0; i < 3; ++i) texts.push_back(to_pitl(random_hierarchy(rng)));
  return texts;
}

// ----------------------------------------------------------- mutations

template <class T>
const T& pick(util::Rng& rng, const std::vector<T>& v) {
  return v[pick(rng, v.size())];
}

/// Indices of the lines whose first token is `head`.
std::vector<std::size_t> lines_with(const std::vector<std::string>& lines,
                                    std::string_view head) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto tokens = util::split_ws(lines[i]);
    if (!tokens.empty() && tokens[0] == head) out.push_back(i);
  }
  return out;
}

/// The second token of each line whose first is `head`.
std::vector<std::string> names_of(const std::vector<std::string>& lines,
                                  std::string_view head) {
  std::vector<std::string> out;
  for (std::size_t i : lines_with(lines, head)) {
    const auto tokens = util::split_ws(lines[i]);
    if (tokens.size() > 1) out.emplace_back(tokens[1]);
  }
  return out;
}

void mutate(std::vector<std::string>& lines, util::Rng& rng) {
  if (lines.empty()) lines.emplace_back();
  const std::size_t i = pick(rng, lines.size());
  std::string& line = lines[i];
  switch (rng.next_below(22)) {
    case 0:  // delete
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    case 1:  // duplicate
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), line);
      break;
    case 2:  // swap
      std::swap(line, lines[pick(rng, lines.size())]);
      break;
    case 3:  // truncate mid-line
      line.resize(pick(rng, line.size() + 1));
      break;
    case 4:  // trailing or mid-line comment
      line.insert(pick(rng, line.size() + 1), " # note -> x=1");
      break;
    case 5:  // tabs for spaces
      for (char& c : line)
        if (c == ' ' && rng.chance(0.5)) c = '\t';
      break;
    case 6:  // CRLF line end
      line += '\r';
      break;
    case 7:  // blank, all-space or whitespace-soup line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                   pick(rng, std::vector<std::string>{
                                 "", "      ", "\t \t", " \r", "  \f "}));
      break;
    case 8: {  // bad or odd value for some key
      const auto eq = line.find('=');
      if (eq == std::string::npos) break;
      const auto end = line.find_first_of(" \t", eq);
      line.replace(eq + 1,
                   end == std::string::npos ? std::string::npos : end - eq - 1,
                   pick(rng, std::vector<std::string>{
                                 "", "x", "1x", "nan", "-3", "1e999", "0x10",
                                 "+2", "inf", ".5", "5.", "a,,b", ",", "-0"}));
      break;
    }
    case 9:  // repeated key
      line += " " +
              pick(rng, std::vector<std::string>{"work", "bytes", "in", "out",
                                                 "var", "graph"}) +
              "=" + pick(rng, std::vector<std::string>{"2", "q", "a,b", "", "-1"});
      break;
    case 10: {  // long or malformed name
      auto tokens = util::split_ws(line);
      if (tokens.size() < 2) break;
      const std::string name = pick(
          rng, std::vector<std::string>{std::string(300, 'n'), "9abc", "a-b",
                                        "a.b", "->", "_ok"});
      const auto at = line.find(tokens[1]);
      line.replace(at, tokens[1].size(), name);
      break;
    }
    case 11:  // unknown, stray or misplaced directive
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                   pick(rng, std::vector<std::string>{
                                 "  frob x y", "node a", "pits", "pits {",
                                 "  pits {x", "}", "design d2", "graph g9",
                                 "arc", "task", "super k", "store"}));
      break;
    case 12: {  // unterminated pits block
      for (std::size_t k = i; k < lines.size(); ++k) {
        if (util::trim(lines[k]) == "}") {
          lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(k));
          break;
        }
      }
      break;
    }
    case 13: {  // undefined, forward, root or own child graph
      const auto at = line.find("graph=");
      if (at == std::string::npos) break;
      std::vector<std::string> graphs = names_of(lines, "graph");
      graphs.push_back("nowhere");
      const auto end = line.find_first_of(" \t", at);
      line.replace(at + 6,
                   end == std::string::npos ? std::string::npos : end - at - 6,
                   pick(rng, graphs));
      break;
    }
    case 14: {  // store -> store arc
      const auto stores = names_of(lines, "store");
      if (stores.empty()) break;
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                   "  arc " + pick(rng, stores) + " -> " + pick(rng, stores) +
                       " var=" + pick(rng, stores));
      break;
    }
    case 15: {  // a reversed arc: a cycle
      const auto arcs = lines_with(lines, "arc");
      if (arcs.empty()) break;
      const std::size_t a = pick(rng, arcs);
      const auto tokens = util::split_ws(lines[a]);
      if (tokens.size() < 4) break;
      std::string reversed = "  arc " + std::string(tokens[3]) + " -> " +
                             std::string(tokens[1]);
      for (std::size_t k = 4; k < tokens.size(); ++k)
        reversed += " " + std::string(tokens[k]);
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(a + 1),
                   reversed);
      break;
    }
    case 16: {  // empty or blank pits body after a task
      const auto tasks = lines_with(lines, "task");
      if (tasks.empty()) break;
      const std::size_t t = pick(rng, tasks);
      const std::vector<std::string> body =
          rng.chance(0.5) ? std::vector<std::string>{"  pits {", "  }"}
                          : std::vector<std::string>{"  pits {", "      ",
                                                     "", "  }"};
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(t + 1),
                   body.begin(), body.end());
      break;
    }
    case 17: {  // re-indent one pits body line
      line.insert(0, pick(rng, std::vector<std::string>{" ", "\t", "        "}));
      break;
    }
    case 18: {  // an arc between random names of the file
      auto names = names_of(lines, "task");
      for (auto& n : names_of(lines, "store")) names.push_back(n);
      for (auto& n : names_of(lines, "super")) names.push_back(n);
      if (names.empty()) break;
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                   "  arc " + pick(rng, names) + " -> " + pick(rng, names) +
                       " var=" +
                       pick(rng, std::vector<std::string>{"a", "x", "xs", "b"}));
      break;
    }
    case 19:  // a supernode onto an existing graph
    {
      const auto graphs = names_of(lines, "graph");
      if (graphs.empty()) break;
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                   "  super q graph=" + pick(rng, graphs) + " in=a out=b");
      break;
    }
    case 20:  // drop the final newline or add a trailing one
      if (rng.chance(0.5)) {
        lines.emplace_back();
      } else if (lines.size() > 1 && lines.back().empty()) {
        lines.pop_back();
      }
      break;
    default:  // a long run of spaces inside a directive
      if (const auto sp = line.find(' '); sp != std::string::npos) {
        line.insert(sp, std::string(40, ' '));
      }
      break;
  }
}

std::string mutated(const std::string& text, util::Rng& rng) {
  std::vector<std::string> lines;
  for (const std::string_view l : util::split(text, '\n')) {
    lines.emplace_back(l);
  }
  const auto rounds = rng.uniform_int(1, 3);
  for (std::int64_t r = 0; r < rounds; ++r) mutate(lines, rng);
  return util::join(lines, "\n");
}

// --------------------------------------------------------------- suite

class PitlFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PitlFuzz, MutatedTextsAgree) {
  static const std::vector<std::string> seeds = seed_texts();
  util::Rng rng(GetParam() * 0x9e3779b97f4a7c15ull);
  Tally tally;
  for (const std::string& seed : seeds) {
    for (int k = 0; k < 6; ++k) check_text(mutated(seed, rng), tally);
  }
  // Across the seeds both ends of the pipeline are reached.
  EXPECT_GT(tally.parse_errors, 0);
  EXPECT_GT(tally.flattened, 0);
}

TEST_P(PitlFuzz, RandomHierarchiesAgree) {
  util::Rng rng(GetParam() ^ 0x41e7a7c4ull);
  Tally tally;
  for (int k = 0; k < 8; ++k) {
    const Design d = random_hierarchy(rng);
    check_design(d, dump(d), tally);
    const std::string text = to_pitl(d);
    check_text(text, tally);
    for (int m = 0; m < 4; ++m) check_text(mutated(text, rng), tally);
  }
  EXPECT_GT(tally.flattened + tally.validate_errors, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PitlFuzz,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(PitlFuzz, SeedsParseValidateAndFlattenAlike) {
  Tally tally;
  for (const std::string& seed : seed_texts()) check_text(seed, tally);
  EXPECT_EQ(tally.parse_errors, 0);
  // All but the random hierarchies are valid designs.
  EXPECT_GE(tally.flattened, 11);
}

TEST(PitlFuzz, DesignDirectiveAfterAGraphIsAParseError) {
  try {
    (void)parse_design("graph a\n  task t\ndesign late\n");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Parse);
    EXPECT_EQ(e.message(), "design directive after a graph");
    EXPECT_EQ(e.pos(), (SourcePos{3, 1}));
  }
}

}  // namespace
}  // namespace banger::graph

// Tests of the hierarchical Design: supernode expansion, storage
// elimination, boundary binding, validation.
#include <gtest/gtest.h>

#include <chrono>

#include "graph/design.hpp"
#include "graph/serialize.hpp"
#include "util/error.hpp"
#include "workloads/lu.hpp"

namespace banger::graph {
namespace {

Node task_node(std::string name, double work = 1.0,
               std::vector<std::string> in = {},
               std::vector<std::string> out = {}) {
  Node n;
  n.kind = NodeKind::Task;
  n.name = std::move(name);
  n.work = work;
  n.inputs = std::move(in);
  n.outputs = std::move(out);
  return n;
}

Node store_node(std::string name, double bytes = 8.0) {
  Node n;
  n.kind = NodeKind::Storage;
  n.name = std::move(name);
  n.bytes = bytes;
  return n;
}

/// producer -> store d -> consumer, plus an input store a feeding the
/// producer and an output store r written by the consumer.
Design flat_design() {
  Design d("flat");
  auto& g = d.root_graph();
  g.add_node(store_node("a", 16));
  g.add_node(store_node("dd", 32));
  g.add_node(store_node("r", 8));
  g.add_node(task_node("produce", 2, {"a"}, {"dd"}));
  g.add_node(task_node("consume", 3, {"dd"}, {"r"}));
  g.connect("a", "produce", "a", 16);
  g.connect("produce", "dd", "dd", 32);
  g.connect("dd", "consume", "dd", 32);
  g.connect("consume", "r", "r", 8);
  return d;
}

TEST(Design, FlattenEliminatesStores) {
  auto flat = flat_design().flatten();
  EXPECT_EQ(flat.graph.num_tasks(), 2u);
  ASSERT_EQ(flat.graph.num_edges(), 1u);
  const Edge& e = flat.graph.edge(0);
  EXPECT_EQ(flat.graph.task(e.from).name, "produce");
  EXPECT_EQ(flat.graph.task(e.to).name, "consume");
  EXPECT_DOUBLE_EQ(e.bytes, 32.0);  // the store's size
  EXPECT_EQ(e.var, "dd");
}

TEST(Design, FlattenClassifiesStores) {
  auto flat = flat_design().flatten();
  ASSERT_EQ(flat.stores.size(), 3u);
  const auto ins = flat.input_stores();
  const auto outs = flat.output_stores();
  ASSERT_EQ(ins.size(), 1u);
  EXPECT_EQ(flat.stores[ins[0]].var, "a");
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(flat.stores[outs[0]].var, "r");
  EXPECT_NE(flat.find_store("dd"), nullptr);
  EXPECT_EQ(flat.find_store("nosuch"), nullptr);
}

Design hierarchical_design() {
  Design d("hier");
  const GraphId child = d.add_graph("inner");
  auto& sub = d.graph(child);
  sub.add_node(task_node("first", 1, {"in"}, {"mid"}));
  sub.add_node(task_node("second", 1, {"mid"}, {"out"}));
  sub.connect("first", "second", "mid", 4);

  auto& root = d.root_graph();
  root.add_node(task_node("pre", 1, {}, {"in"}));
  Node super;
  super.kind = NodeKind::Super;
  super.name = "stage";
  super.subgraph = child;
  super.inputs = {"in"};
  super.outputs = {"out"};
  root.add_node(std::move(super));
  root.add_node(task_node("post", 1, {"out"}, {}));
  root.connect("pre", "stage", "in", 8);
  root.connect("stage", "post", "out", 8);
  return d;
}

TEST(Design, SupernodeExpansionQualifiesNames) {
  auto flat = hierarchical_design().flatten();
  EXPECT_EQ(flat.graph.num_tasks(), 4u);
  EXPECT_TRUE(flat.graph.find("stage.first").has_value());
  EXPECT_TRUE(flat.graph.find("stage.second").has_value());
  EXPECT_TRUE(flat.graph.find("pre").has_value());
  EXPECT_TRUE(flat.graph.find("post").has_value());
}

TEST(Design, SupernodeExpansionRebindsArcs) {
  auto flat = hierarchical_design().flatten();
  const TaskId pre = flat.graph.require("pre");
  const TaskId first = flat.graph.require("stage.first");
  const TaskId second = flat.graph.require("stage.second");
  const TaskId post = flat.graph.require("post");
  EXPECT_EQ(flat.graph.succs(pre), std::vector<TaskId>{first});
  EXPECT_EQ(flat.graph.succs(first), std::vector<TaskId>{second});
  EXPECT_EQ(flat.graph.succs(second), std::vector<TaskId>{post});
}

TEST(Design, DepthOfHierarchy) {
  EXPECT_EQ(flat_design().depth(), 1);
  EXPECT_EQ(hierarchical_design().depth(), 2);
}

TEST(Design, UnboundSupernodeInputFails) {
  Design d("bad");
  const GraphId child = d.add_graph("inner");
  d.graph(child).add_node(task_node("t", 1, {"other"}, {"out"}));
  auto& root = d.root_graph();
  root.add_node(task_node("pre", 1, {}, {"in"}));
  Node super;
  super.kind = NodeKind::Super;
  super.name = "stage";
  super.subgraph = child;
  super.inputs = {"in"};
  super.outputs = {"out"};
  root.add_node(std::move(super));
  root.connect("pre", "stage", "in", 8);
  EXPECT_THROW((void)d.flatten(), Error);
}

TEST(Design, UnboundSupernodeOutputFails) {
  Design d("bad");
  const GraphId child = d.add_graph("inner");
  d.graph(child).add_node(task_node("t", 1, {}, {"other"}));
  auto& root = d.root_graph();
  Node super;
  super.kind = NodeKind::Super;
  super.name = "stage";
  super.subgraph = child;
  super.outputs = {"out"};
  root.add_node(std::move(super));
  root.add_node(task_node("post", 1, {"out"}, {}));
  root.connect("stage", "post", "out", 8);
  EXPECT_THROW((void)d.flatten(), Error);
}

TEST(Design, RecursiveHierarchyRejected) {
  Design d("rec");
  const GraphId a = d.add_graph("a");
  const GraphId b = d.add_graph("b");
  Node sa;
  sa.kind = NodeKind::Super;
  sa.name = "to_b";
  sa.subgraph = b;
  d.graph(a).add_node(std::move(sa));
  Node sb;
  sb.kind = NodeKind::Super;
  sb.name = "to_a";
  sb.subgraph = a;
  d.graph(b).add_node(std::move(sb));
  Node sr;
  sr.kind = NodeKind::Super;
  sr.name = "start";
  sr.subgraph = a;
  d.root_graph().add_node(std::move(sr));
  EXPECT_THROW(d.validate(), Error);
}

TEST(Design, SupernodeReferencingRootRejected) {
  Design d("selfroot");
  Node s;
  s.kind = NodeKind::Super;
  s.name = "loop";
  s.subgraph = 0;
  d.root_graph().add_node(std::move(s));
  EXPECT_THROW(d.validate(), Error);
}

/// `.pitl` text of a chain `levels` deep: each level but the last holds
/// one supernode `s` expanding into the next, the last one task `t`.
/// The supernode of level L sits on line 2L + 1.
std::string chain_pitl(int levels) {
  std::string text = "design chain\n";
  for (int i = 0; i + 1 < levels; ++i) {
    text += "graph g" + std::to_string(i) + "\n  super s graph=g" +
            std::to_string(i + 1) + "\n";
  }
  text += "graph g" + std::to_string(levels - 1) + "\n  task t work=1\n";
  return text;
}

TEST(Design, HierarchyAtTheDepthLimitValidatesAndFlattens) {
  const Design d = parse_design(chain_pitl(kMaxHierarchyDepth));
  EXPECT_EQ(d.depth(), kMaxHierarchyDepth);
  const FlattenResult flat = d.validate();
  ASSERT_EQ(flat.graph.num_tasks(), 1u);
  std::string qualified;
  for (int i = 1; i < kMaxHierarchyDepth; ++i) qualified += "s.";
  EXPECT_EQ(flat.graph.task(0).name, qualified + "t");
}

TEST(Design, HierarchyPastTheDepthLimitIsAPositionedLimitError) {
  const Design d = parse_design(chain_pitl(kMaxHierarchyDepth + 1));
  EXPECT_EQ(d.depth(), kMaxHierarchyDepth + 1);
  try {
    (void)d.validate();
    FAIL() << "expected a depth limit error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Limit);
    // The supernode of the deepest level allowed: it would open one more.
    EXPECT_EQ(e.pos(), (SourcePos{2 * kMaxHierarchyDepth + 1, 1}));
  }
}

TEST(Design, VeryDeepHierarchyIsRejectedWithoutRecursing) {
  // A chain of 200k supernode levels once overflowed the stack of the
  // recursive depth() and reference-cycle checks.
  constexpr int kLevels = 200000;
  Design d("chain");
  GraphId parent = d.root();
  for (int i = 1; i < kLevels; ++i) {
    const GraphId child = d.add_graph("g" + std::to_string(i));
    Node s;
    s.kind = NodeKind::Super;
    s.name = "s";
    s.subgraph = child;
    d.graph(parent).add_node(std::move(s));
    parent = child;
  }
  d.graph(parent).add_node(task_node("t"));
  EXPECT_EQ(d.depth(), kLevels);
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)d.validate();
    FAIL() << "expected a depth limit error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Limit);
  }
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), 1.0);
}

TEST(Design, SharedChildGraphExpandsTwice) {
  Design d("shared");
  const GraphId child = d.add_graph("inner");
  d.graph(child).add_node(task_node("work", 1, {"in"}, {"out"}));
  auto& root = d.root_graph();
  root.add_node(task_node("pre", 1, {}, {"in"}));
  for (int i = 0; i < 2; ++i) {
    Node super;
    super.kind = NodeKind::Super;
    super.name = "stage" + std::to_string(i);
    super.subgraph = child;
    super.inputs = {"in"};
    super.outputs = {"out"};
    root.add_node(std::move(super));
    root.connect("pre", "stage" + std::to_string(i), "in", 8);
  }
  auto flat = d.flatten();
  EXPECT_EQ(flat.graph.num_tasks(), 3u);
  EXPECT_TRUE(flat.graph.find("stage0.work").has_value());
  EXPECT_TRUE(flat.graph.find("stage1.work").has_value());
}

TEST(Design, MultiWriterMultiReaderStore) {
  Design d("multi");
  auto& g = d.root_graph();
  g.add_node(store_node("s", 64));
  g.add_node(task_node("w1", 1, {}, {"s"}));
  g.add_node(task_node("w2", 1, {}, {"s"}));
  g.add_node(task_node("r1", 1, {"s"}, {}));
  g.add_node(task_node("r2", 1, {"s"}, {}));
  g.connect("w1", "s", "s", 64);
  g.connect("w2", "s", "s", 64);
  g.connect("s", "r1", "s", 64);
  g.connect("s", "r2", "s", 64);
  auto flat = d.flatten();
  // 2 writers x 2 readers = 4 dependences.
  EXPECT_EQ(flat.graph.num_edges(), 4u);
}

TEST(Design, LuFigure1Shape) {
  // The paper's Fig. 1 design: 9 leaf tasks (7 elimination + fwd + back),
  // depth 2, stores A b L U x y.
  auto design = workloads::lu3x3_design();
  EXPECT_EQ(design.depth(), 2);
  auto flat = design.flatten();
  EXPECT_EQ(flat.graph.num_tasks(), 9u);
  EXPECT_EQ(flat.stores.size(), 6u);
  const auto ins = flat.input_stores();
  ASSERT_EQ(ins.size(), 2u);  // A and b
  EXPECT_TRUE(flat.graph.find("solve.fwd").has_value());
  EXPECT_TRUE(flat.graph.find("solve.back").has_value());
  EXPECT_TRUE(flat.graph.is_acyclic());
}

TEST(Design, ThreeLevelNestingFlattens) {
  Design d("deep");
  const GraphId mid = d.add_graph("mid");
  const GraphId leaf = d.add_graph("leaf");

  // Leaf level: one real task.
  d.graph(leaf).add_node(task_node("work", 2, {"in"}, {"out"}));

  // Mid level: a store sandwiched between the boundary and a supernode.
  {
    Node inner;
    inner.kind = NodeKind::Super;
    inner.name = "inner";
    inner.subgraph = leaf;
    inner.inputs = {"in"};
    inner.outputs = {"out"};
    d.graph(mid).add_node(std::move(inner));
  }

  // Root: pre -> super(mid) -> post.
  auto& root = d.root_graph();
  root.add_node(task_node("pre", 1, {}, {"in"}));
  Node outer;
  outer.kind = NodeKind::Super;
  outer.name = "outer";
  outer.subgraph = mid;
  outer.inputs = {"in"};
  outer.outputs = {"out"};
  root.add_node(std::move(outer));
  root.add_node(task_node("post", 1, {"out"}, {}));
  root.connect("pre", "outer", "in", 8);
  root.connect("outer", "post", "out", 8);

  EXPECT_EQ(d.depth(), 3);
  const auto flat = d.flatten();
  EXPECT_EQ(flat.graph.num_tasks(), 3u);
  // Names nest: outer.inner.work.
  const TaskId deep = flat.graph.require("outer.inner.work");
  EXPECT_EQ(flat.graph.preds(deep),
            std::vector<TaskId>{flat.graph.require("pre")});
  EXPECT_EQ(flat.graph.succs(deep),
            std::vector<TaskId>{flat.graph.require("post")});
}

/// `n` supernodes over one child graph `cell` (task f: x -> y), each
/// fed by its own producer task and read by its own consumer task.
Design many_supernodes(int n) {
  Design d("supers");
  const GraphId cell = d.add_graph("cell");
  d.graph(cell).add_node(task_node("f", 1, {"x"}, {"y"}));
  auto& root = d.root_graph();
  for (int i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    root.add_node(task_node("p" + k, 1, {}, {"x"}));
    Node super;
    super.kind = NodeKind::Super;
    super.name = "s" + k;
    super.subgraph = cell;
    super.inputs = {"x"};
    super.outputs = {"y"};
    root.add_node(std::move(super));
    root.add_node(task_node("c" + k, 1, {"y"}, {}));
    root.connect("p" + k, "s" + k, "x", 8);
    root.connect("s" + k, "c" + k, "y", 8);
  }
  return d;
}

/// `n` stores, each between its own writer and reader task.
Design many_stores(int n) {
  Design d("stores");
  auto& root = d.root_graph();
  for (int i = 0; i < n; ++i) {
    const std::string v = "v" + std::to_string(i);
    root.add_node(task_node("w" + std::to_string(i), 1, {}, {v}));
    root.add_node(store_node(v));
    root.add_node(task_node("r" + std::to_string(i), 1, {v}, {}));
    root.connect("w" + std::to_string(i), v, v, 8);
    root.connect(v, "r" + std::to_string(i), v, 8);
  }
  return d;
}

/// Seconds `d.validate()` takes; its flattening goes to `flat`.
double seconds_to_validate(const Design& d, FlattenResult& flat) {
  const auto start = std::chrono::steady_clock::now();
  flat = d.validate();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The two bounds below hold with room in sanitizer and debug builds. An
// expansion that scans every arc of the soup per supernode took 6.4 s
// (supernodes) and one that scans them per store 22.8 s (stores) in a
// Release build.
TEST(Design, FlattenIsLinearInSupernodes) {
  FlattenResult flat;
  const double took = seconds_to_validate(many_supernodes(16000), flat);
  EXPECT_EQ(flat.graph.num_tasks(), 48000u);
  EXPECT_EQ(flat.graph.num_edges(), 32000u);
  EXPECT_EQ(flat.graph.task(32000).name, "s0.f");
  EXPECT_EQ(flat.graph.edge(0).var, "x");
  EXPECT_LT(took, 4.0);
}

TEST(Design, FlattenIsLinearInStores) {
  FlattenResult flat;
  const double took = seconds_to_validate(many_stores(64000), flat);
  EXPECT_EQ(flat.graph.num_tasks(), 128000u);
  EXPECT_EQ(flat.graph.num_edges(), 64000u);
  ASSERT_EQ(flat.stores.size(), 64000u);
  EXPECT_EQ(flat.stores[5].writers, std::vector<TaskId>{10});
  EXPECT_EQ(flat.stores[5].readers, std::vector<TaskId>{11});
  EXPECT_LT(took, 4.0);
}

TEST(Design, ManyExpansionsOfOneChildGraphAreNotARunaway) {
  // A cap of 10000 expansions per graph once stopped this legitimate
  // two-graph design; flatten now checks recursion the way validate()
  // does and keeps only the cap on expansions in all.
  FlattenResult flat;
  (void)seconds_to_validate(many_supernodes(32000), flat);
  EXPECT_EQ(flat.graph.num_tasks(), 96000u);
}

TEST(Design, FlattenRejectsARecursiveHierarchyLikeValidate) {
  Design d("rec");
  const GraphId a = d.add_graph("a");
  Node loop;
  loop.kind = NodeKind::Super;
  loop.name = "again";
  loop.subgraph = a;
  d.graph(a).add_node(loop);
  loop.name = "start";
  d.root_graph().add_node(loop);
  for (const bool through_validate : {false, true}) {
    try {
      (void)(through_validate ? d.validate() : d.flatten());
      FAIL() << "expected a recursion error";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Graph);
      EXPECT_EQ(e.message(), "recursive hierarchy through graph `a`");
    }
  }
}

TEST(Design, ExpansionCapStopsAnExponentialHierarchy) {
  // Each of 17 levels holds two supernodes expanding into the next:
  // 2^17 - 2 expansions, past the cap of 100000.
  Design d("wide");
  GraphId parent = d.root();
  for (int level = 1; level <= 17; ++level) {
    const GraphId child = d.add_graph("g" + std::to_string(level));
    for (const char* name : {"l", "r"}) {
      Node s;
      s.kind = NodeKind::Super;
      s.name = name;
      s.subgraph = child;
      d.graph(parent).add_node(std::move(s));
    }
    parent = child;
  }
  d.graph(parent).add_node(task_node("t"));
  try {
    (void)d.validate();
    FAIL() << "expected the expansion cap";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Limit);
    EXPECT_EQ(e.message(), "hierarchy expansion exceeded 100000 supernodes");
  }
}

TEST(Design, NumLeafTasksMatchesFlatten) {
  auto design = workloads::lu3x3_design();
  EXPECT_EQ(design.num_leaf_tasks(), design.flatten().graph.num_tasks());
}

}  // namespace
}  // namespace banger::graph

// Unit tests for DataflowGraph, TaskGraph, and the DAG analyses.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <random>

#include "graph/analysis.hpp"
#include "graph/graph.hpp"
#include "graph/task_graph.hpp"
#include "util/error.hpp"

namespace banger::graph {
namespace {

Node task_node(std::string name, double work = 1.0) {
  Node n;
  n.kind = NodeKind::Task;
  n.name = std::move(name);
  n.work = work;
  return n;
}

Node store_node(std::string name, double bytes = 8.0) {
  Node n;
  n.kind = NodeKind::Storage;
  n.name = std::move(name);
  n.bytes = bytes;
  return n;
}

TEST(DataflowGraph, AddAndLookup) {
  DataflowGraph g("g");
  const NodeId a = g.add_node(task_node("a"));
  const NodeId b = g.add_node(task_node("b"));
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.find("a"), a);
  EXPECT_EQ(g.find("b"), b);
  EXPECT_EQ(g.find("c"), std::nullopt);
  EXPECT_THROW((void)g.require("c"), Error);
}

TEST(DataflowGraph, RejectsDuplicateNames) {
  DataflowGraph g("g");
  g.add_node(task_node("a"));
  EXPECT_THROW(g.add_node(task_node("a")), Error);
}

TEST(DataflowGraph, RejectsInvalidIdentifiers) {
  DataflowGraph g("g");
  EXPECT_THROW(g.add_node(task_node("1bad")), Error);
  EXPECT_THROW(g.add_node(task_node("has space")), Error);
  EXPECT_THROW(g.add_node(task_node("")), Error);
}

TEST(DataflowGraph, RejectsNegativeWork) {
  DataflowGraph g("g");
  EXPECT_THROW(g.add_node(task_node("a", -1.0)), Error);
}

TEST(DataflowGraph, RejectsSelfLoop) {
  DataflowGraph g("g");
  g.add_node(task_node("a"));
  EXPECT_THROW(g.connect("a", "a"), Error);
}

TEST(DataflowGraph, RejectsStoreToStoreArc) {
  DataflowGraph g("g");
  g.add_node(store_node("s"));
  g.add_node(store_node("t"));
  g.connect("s", "t");
  EXPECT_THROW(g.validate(), Error);
}

TEST(DataflowGraph, ValidatesArcVariableDeclarations) {
  DataflowGraph g("g");
  Node a = task_node("a");
  a.outputs = {"x"};
  Node b = task_node("b");
  b.inputs = {"x"};
  g.add_node(std::move(a));
  g.add_node(std::move(b));
  g.connect("a", "b", "x");
  EXPECT_NO_THROW(g.validate());

  DataflowGraph bad("bad");
  Node c = task_node("c");
  c.outputs = {"y"};
  bad.add_node(std::move(c));
  bad.add_node(task_node("d"));
  bad.connect("c", "d", "z");  // c does not output z
  EXPECT_THROW(bad.validate(), Error);
}

TEST(DataflowGraph, DetectsCycle) {
  DataflowGraph g("g");
  g.add_node(task_node("a"));
  g.add_node(task_node("b"));
  g.add_node(task_node("c"));
  g.connect("a", "b");
  g.connect("b", "c");
  g.connect("c", "a");
  EXPECT_FALSE(g.is_acyclic());
  EXPECT_THROW(g.validate(), Error);
  EXPECT_THROW((void)g.topo_order(), Error);
}

TEST(DataflowGraph, TopoOrderDeterministicSmallestFirst) {
  DataflowGraph g("g");
  g.add_node(task_node("a"));  // 0
  g.add_node(task_node("b"));  // 1
  g.add_node(task_node("c"));  // 2
  g.connect("b", "c");
  const auto order = g.topo_order();
  // Both a (0) and b (1) are sources; smallest id comes first.
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 2u);
}

/// Kahn's algorithm releasing the smallest ready id by a linear scan:
/// the order topo_order promises, computed the slow way.
std::vector<NodeId> min_scan_order(const DataflowGraph& g) {
  std::vector<std::size_t> indegree(g.num_nodes(), 0);
  for (const Arc& a : g.arcs()) ++indegree[a.to];
  std::vector<NodeId> frontier;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (indegree[v] == 0) frontier.push_back(v);
  std::vector<NodeId> order;
  while (!frontier.empty()) {
    const auto it = std::min_element(frontier.begin(), frontier.end());
    const NodeId v = *it;
    frontier.erase(it);
    order.push_back(v);
    for (ArcId e : g.out_arcs(v)) {
      if (--indegree[g.arc(e).to] == 0) frontier.push_back(g.arc(e).to);
    }
  }
  return order;
}

TEST(DataflowGraph, TopoOrderMatchesMinScanOnRandomDags) {
  std::mt19937 rng(20240607);
  for (int round = 0; round < 200; ++round) {
    const int n = 1 + static_cast<int>(rng() % 40);
    DataflowGraph g("g");
    for (int i = 0; i < n; ++i) g.add_node(task_node("t" + std::to_string(i)));
    // Arcs follow a random permutation, so ids are not a topological
    // order and the frontier holds ids in no particular order.
    std::vector<NodeId> rank(static_cast<std::size_t>(n));
    std::iota(rank.begin(), rank.end(), NodeId{0});
    std::shuffle(rank.begin(), rank.end(), rng);
    const int arcs = static_cast<int>(rng() % static_cast<unsigned>(2 * n + 1));
    for (int k = 0; k < arcs; ++k) {
      auto i = static_cast<std::size_t>(rng() % static_cast<unsigned>(n));
      auto j = static_cast<std::size_t>(rng() % static_cast<unsigned>(n));
      if (i == j) continue;
      if (i > j) std::swap(i, j);
      g.add_arc({rank[i], rank[j], {}, 8.0});
    }
    EXPECT_EQ(g.topo_order(), min_scan_order(g)) << "round " << round;
  }
}

TEST(DataflowGraph, WideLevelValidatesQuickly) {
  // 200k independent tasks: one frontier holding every node. A linear
  // min scan over it takes tens of seconds; the heap takes milliseconds,
  // so the bound also holds in sanitizer builds.
  constexpr std::size_t kTasks = 200000;
  DataflowGraph g("wide");
  for (std::size_t i = 0; i < kTasks; ++i) {
    g.add_node(task_node("t" + std::to_string(i)));
  }
  const auto t0 = std::chrono::steady_clock::now();
  g.validate();
  const std::vector<NodeId> order = g.topo_order();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_EQ(order.size(), kTasks);
  EXPECT_EQ(order.front(), 0u);
  EXPECT_EQ(order.back(), kTasks - 1);
  EXPECT_LT(seconds, 3.0);
}

TEST(DataflowGraph, CountByKind) {
  DataflowGraph g("g");
  g.add_node(task_node("a"));
  g.add_node(store_node("s"));
  g.add_node(store_node("t"));
  EXPECT_EQ(g.count(NodeKind::Task), 1u);
  EXPECT_EQ(g.count(NodeKind::Storage), 2u);
  EXPECT_EQ(g.count(NodeKind::Super), 0u);
}

// ---- TaskGraph ----

TaskGraph chain3() {
  TaskGraph g;
  for (int i = 0; i < 3; ++i) {
    Task t;
    t.name = "t" + std::to_string(i);
    t.work = i + 1.0;
    g.add_task(std::move(t));
  }
  g.add_edge(0, 1, 10);
  g.add_edge(1, 2, 20);
  return g;
}

TEST(TaskGraph, BasicAccounting) {
  auto g = chain3();
  EXPECT_EQ(g.num_tasks(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g.total_work(), 6.0);
  EXPECT_DOUBLE_EQ(g.total_bytes(), 30.0);
  EXPECT_EQ(g.sources(), std::vector<TaskId>{0});
  EXPECT_EQ(g.sinks(), std::vector<TaskId>{2});
  EXPECT_EQ(g.preds(2), std::vector<TaskId>{1});
  EXPECT_EQ(g.succs(0), std::vector<TaskId>{1});
}

TEST(TaskGraph, ParallelEdgesMergeAndSumBytes) {
  TaskGraph g;
  g.add_task({"a", 1, "", {}, {}});
  g.add_task({"b", 1, "", {}, {}});
  const EdgeId e1 = g.add_edge(0, 1, 8, "x");
  const EdgeId e2 = g.add_edge(0, 1, 24, "y");
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.edge(e1).bytes, 32.0);
  EXPECT_EQ(g.edge(e1).var, "x,y");
}

TEST(TaskGraph, RejectsDuplicateTaskNames) {
  TaskGraph g;
  g.add_task({"a", 1, "", {}, {}});
  EXPECT_THROW(g.add_task({"a", 1, "", {}, {}}), Error);
}

TEST(TaskGraph, RejectsSelfEdge) {
  TaskGraph g;
  g.add_task({"a", 1, "", {}, {}});
  EXPECT_THROW(g.add_edge(0, 0, 1), Error);
}

TEST(TaskGraph, TopoDetectsCycle) {
  TaskGraph g;
  g.add_task({"a", 1, "", {}, {}});
  g.add_task({"b", 1, "", {}, {}});
  g.add_edge(0, 1, 1);
  g.add_edge(1, 0, 1);
  EXPECT_FALSE(g.is_acyclic());
}

// ---- analyses ----

TEST(Analysis, TLevelsAndBLevelsOnChain) {
  auto g = chain3();  // works 1,2,3; edges 10,20 bytes
  graph::CostModel cost = CostModel::from_work(g);  // comm free
  const auto tl = t_levels(g, cost);
  EXPECT_DOUBLE_EQ(tl[0], 0.0);
  EXPECT_DOUBLE_EQ(tl[1], 1.0);
  EXPECT_DOUBLE_EQ(tl[2], 3.0);
  const auto bl = b_levels(g, cost);
  EXPECT_DOUBLE_EQ(bl[0], 6.0);
  EXPECT_DOUBLE_EQ(bl[1], 5.0);
  EXPECT_DOUBLE_EQ(bl[2], 3.0);
  EXPECT_DOUBLE_EQ(critical_path_length(g, cost), 6.0);
}

TEST(Analysis, CommAwareCostModel) {
  auto g = chain3();
  // speed 2 units/s, startup 1s per message, 10 bytes/s
  const auto cost = CostModel::uniform(g, 2.0, 1.0, 10.0);
  EXPECT_DOUBLE_EQ(cost.task_time[0], 0.5);
  EXPECT_DOUBLE_EQ(cost.edge_time[0], 1.0 + 1.0);  // 10 bytes / 10 Bps
  const auto tl = t_levels(g, cost);
  EXPECT_DOUBLE_EQ(tl[1], 0.5 + 2.0);
}

TEST(Analysis, CriticalPathTasksOnDiamond) {
  TaskGraph g;
  g.add_task({"s", 1, "", {}, {}});
  g.add_task({"heavy", 10, "", {}, {}});
  g.add_task({"light", 1, "", {}, {}});
  g.add_task({"t", 1, "", {}, {}});
  g.add_edge(0, 1, 0);
  g.add_edge(0, 2, 0);
  g.add_edge(1, 3, 0);
  g.add_edge(2, 3, 0);
  const auto cost = CostModel::from_work(g);
  const auto path = critical_path(g, cost);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], 0u);
  EXPECT_EQ(path[1], 1u);  // through the heavy branch
  EXPECT_EQ(path[2], 3u);
  EXPECT_DOUBLE_EQ(critical_path_length(g, cost), 12.0);
}

TEST(Analysis, LevelProfileWidths) {
  TaskGraph g;
  g.add_task({"s", 1, "", {}, {}});
  g.add_task({"a", 1, "", {}, {}});
  g.add_task({"b", 1, "", {}, {}});
  g.add_task({"t", 1, "", {}, {}});
  g.add_edge(0, 1, 0);
  g.add_edge(0, 2, 0);
  g.add_edge(1, 3, 0);
  g.add_edge(2, 3, 0);
  const auto profile = level_profile(g);
  ASSERT_EQ(profile.depth(), 3u);
  EXPECT_EQ(profile.levels[0].size(), 1u);
  EXPECT_EQ(profile.levels[1].size(), 2u);
  EXPECT_EQ(profile.levels[2].size(), 1u);
  EXPECT_EQ(profile.max_width(), 2u);
}

TEST(Analysis, AverageParallelism) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    g.add_task({"t" + std::to_string(i), 1, "", {}, {}});
  }
  // Four independent unit tasks: parallelism 4.
  EXPECT_DOUBLE_EQ(average_parallelism(g), 4.0);
}

TEST(Analysis, EmptyGraphEdgeCases) {
  TaskGraph g;
  const auto cost = CostModel::from_work(g);
  EXPECT_DOUBLE_EQ(critical_path_length(g, cost), 0.0);
  EXPECT_TRUE(critical_path(g, cost).empty());
  EXPECT_DOUBLE_EQ(average_parallelism(g), 0.0);
}

}  // namespace
}  // namespace banger::graph

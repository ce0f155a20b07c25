// Tests for topologies and the machine cost model, including the
// textbook invariants of every topology family (TEST_P sweeps).
#include <gtest/gtest.h>

#include "machine/machine.hpp"
#include "machine/serialize.hpp"
#include "util/error.hpp"

namespace banger::machine {
namespace {

TEST(Topology, HypercubeStructure) {
  const auto t = Topology::hypercube(3);
  EXPECT_EQ(t.num_procs(), 8);
  EXPECT_EQ(t.num_links(), 12);  // n*d/2 = 8*3/2
  EXPECT_EQ(t.diameter(), 3);
  EXPECT_EQ(t.max_degree(), 3);
  // Hop distance equals popcount of xor.
  for (ProcId a = 0; a < 8; ++a) {
    for (ProcId b = 0; b < 8; ++b) {
      EXPECT_EQ(t.hops(a, b), __builtin_popcount(static_cast<unsigned>(a ^ b)));
    }
  }
}

/// The ErrorCode `fn` throws as an Error, or Generic when it returns.
template <class Fn>
ErrorCode code_of(Fn&& fn) {
  try {
    (void)fn();
  } catch (const Error& e) {
    return e.code();
  }
  return ErrorCode::Generic;
}

// One processor past kMaxProcs is refused before anything is built, for
// every kind, whether the machine comes from code or from text. No
// 4096-processor machine is built here: its hop matrix alone is 64 MiB.
TEST(Topology, EveryKindRefusesMoreThanMaxProcs) {
  ASSERT_EQ(kMaxProcs, 4096);
  const int over = kMaxProcs + 1;
  EXPECT_EQ(code_of([&] { return Topology::fully_connected(over); }),
            ErrorCode::Limit);
  EXPECT_EQ(code_of([] { return Topology::hypercube(13); }), ErrorCode::Limit);
  EXPECT_EQ(code_of([&] { return Topology::mesh(1, over); }), ErrorCode::Limit);
  EXPECT_EQ(code_of([&] { return Topology::mesh(over, 1); }), ErrorCode::Limit);
  EXPECT_EQ(code_of([&] { return Topology::torus(1, over); }),
            ErrorCode::Limit);
  EXPECT_EQ(code_of([] { return Topology::torus(64, 65); }),
            ErrorCode::Limit);  // each side fits, the product does not
  EXPECT_EQ(code_of([&] { return Topology::tree(2, over); }), ErrorCode::Limit);
  EXPECT_EQ(code_of([&] { return Topology::star(over); }), ErrorCode::Limit);
  EXPECT_EQ(code_of([&] { return Topology::ring(over); }), ErrorCode::Limit);
  EXPECT_EQ(code_of([&] { return Topology::chain(over); }), ErrorCode::Limit);
  EXPECT_EQ(code_of([&] { return Topology::custom("c", over, {}); }),
            ErrorCode::Limit);

  const char* texts[] = {
      "topology full procs=4097",       "topology fully-connected procs=4097",
      "topology hypercube dim=13",      "topology hypercube dim=1e300",
      "topology mesh rows=1 cols=4097",
      "topology torus rows=65536 cols=65536",  // product past int
      "topology tree arity=2 procs=4097", "topology star procs=4097",
      "topology ring procs=4097",       "topology chain procs=4097",
      "topology custom procs=4097 links=0-1",
  };
  for (const char* text : texts) {
    try {
      (void)parse_machine(std::string("machine big\n") + text + "\n");
      ADD_FAILURE() << text << " was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Limit) << text << ": " << e.what();
      EXPECT_EQ(e.pos().line, 2) << text;
    }
  }
}

TEST(Topology, HypercubeDim0IsSingleNode) {
  const auto t = Topology::hypercube(0);
  EXPECT_EQ(t.num_procs(), 1);
  EXPECT_EQ(t.diameter(), 0);
}

TEST(Topology, MeshStructure) {
  const auto t = Topology::mesh(3, 4);
  EXPECT_EQ(t.num_procs(), 12);
  EXPECT_EQ(t.num_links(), 3 * 3 + 2 * 4);  // rows*(cols-1) + (rows-1)*cols
  EXPECT_EQ(t.diameter(), 2 + 3);           // manhattan corners
  EXPECT_EQ(t.hops(0, 11), 5);
}

TEST(Topology, TorusWrapsAround) {
  const auto t = Topology::torus(4, 4);
  EXPECT_EQ(t.num_procs(), 16);
  EXPECT_EQ(t.diameter(), 4);  // 2 + 2
  EXPECT_TRUE(t.linked(0, 3));  // row wraparound
  EXPECT_TRUE(t.linked(0, 12)); // column wraparound
}

TEST(Topology, StarStructure) {
  const auto t = Topology::star(6);
  EXPECT_EQ(t.num_links(), 5);
  EXPECT_EQ(t.diameter(), 2);
  EXPECT_EQ(t.degree(0), 5);
  EXPECT_EQ(t.degree(1), 1);
  EXPECT_EQ(t.hops(1, 2), 2);
  EXPECT_EQ(t.hops(0, 3), 1);
}

TEST(Topology, TreeStructure) {
  const auto t = Topology::tree(2, 7);  // complete binary tree
  EXPECT_EQ(t.num_links(), 6);
  EXPECT_EQ(t.diameter(), 4);  // leaf -> root -> leaf
  EXPECT_EQ(t.hops(3, 6), 4);
  EXPECT_EQ(t.hops(0, 6), 2);
}

TEST(Topology, RingAndChain) {
  const auto ring = Topology::ring(6);
  EXPECT_EQ(ring.diameter(), 3);
  EXPECT_EQ(ring.num_links(), 6);
  const auto chain = Topology::chain(6);
  EXPECT_EQ(chain.diameter(), 5);
  EXPECT_EQ(chain.num_links(), 5);
  EXPECT_THROW((void)Topology::ring(2), Error);
}

TEST(Topology, FullyConnected) {
  const auto t = Topology::fully_connected(5);
  EXPECT_EQ(t.num_links(), 10);
  EXPECT_EQ(t.diameter(), 1);
  EXPECT_DOUBLE_EQ(t.average_distance(), 1.0);
}

TEST(Topology, CustomValidatesConnectivity) {
  EXPECT_THROW(
      (void)Topology::custom("broken", 4, {{0, 1}, {2, 3}}), Error);
  const auto t = Topology::custom("ok", 3, {{0, 1}, {1, 2}});
  EXPECT_EQ(t.diameter(), 2);
}

TEST(Topology, CustomRejectsBadLinks) {
  EXPECT_THROW((void)Topology::custom("bad", 2, {{0, 5}}), Error);
  EXPECT_THROW((void)Topology::custom("bad", 2, {{0, 0}}), Error);
}

TEST(Topology, RouteFollowsShortestPath) {
  const auto t = Topology::mesh(3, 3);
  const auto path = t.route(0, 8);
  ASSERT_EQ(path.size(), 5u);  // 4 hops
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 8);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(t.linked(path[i], path[i + 1]));
  }
}

TEST(Topology, RouteToSelfIsSingleton) {
  const auto t = Topology::ring(5);
  EXPECT_EQ(t.route(2, 2), std::vector<ProcId>{2});
}

// Property sweep: every factory topology is connected, symmetric in hop
// distance, and satisfies the triangle inequality.
class TopologyInvariants : public ::testing::TestWithParam<Topology> {};

TEST_P(TopologyInvariants, HopMatrixIsAMetric) {
  const Topology& t = GetParam();
  const int n = t.num_procs();
  for (ProcId a = 0; a < n; ++a) {
    EXPECT_EQ(t.hops(a, a), 0);
    for (ProcId b = 0; b < n; ++b) {
      EXPECT_EQ(t.hops(a, b), t.hops(b, a));
      EXPECT_GE(t.hops(a, b), a == b ? 0 : 1);
      for (ProcId c = 0; c < n; ++c) {
        EXPECT_LE(t.hops(a, c), t.hops(a, b) + t.hops(b, c));
      }
    }
  }
}

TEST_P(TopologyInvariants, RoutesMatchHopCounts) {
  const Topology& t = GetParam();
  for (ProcId a = 0; a < t.num_procs(); ++a) {
    for (ProcId b = 0; b < t.num_procs(); ++b) {
      const auto path = t.route(a, b);
      EXPECT_EQ(static_cast<int>(path.size()) - 1, t.hops(a, b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, TopologyInvariants,
    ::testing::Values(Topology::hypercube(2), Topology::hypercube(4),
                      Topology::mesh(2, 5), Topology::torus(3, 3),
                      Topology::tree(3, 10), Topology::star(7),
                      Topology::ring(5), Topology::chain(4),
                      Topology::fully_connected(6),
                      Topology::custom("c", 4, {{0, 1}, {1, 2}, {2, 3},
                                                {3, 0}, {0, 2}})),
    [](const auto& info) { return info.param.name(); });

TEST(Topology, BisectionWidthFormulas) {
  EXPECT_EQ(Topology::hypercube(3).bisection_width(), 4);
  EXPECT_EQ(Topology::hypercube(4).bisection_width(), 8);
  EXPECT_EQ(Topology::fully_connected(6).bisection_width(), 9);
  EXPECT_EQ(Topology::fully_connected(5).bisection_width(), 6);
  EXPECT_EQ(Topology::star(8).bisection_width(), 4);
  EXPECT_EQ(Topology::tree(2, 7).bisection_width(), 1);
  EXPECT_EQ(Topology::chain(9).bisection_width(), 1);
  EXPECT_EQ(Topology::ring(8).bisection_width(), 2);
}

TEST(Topology, BisectionWidthExhaustive) {
  // Mesh 4x4 bisects along the middle: 4 links.
  EXPECT_EQ(Topology::mesh(4, 4).bisection_width(), 4);
  EXPECT_EQ(Topology::mesh(2, 3).bisection_width(), 3);  // odd cols: no clean column cut
  // A custom 4-cycle bisects with 2 links.
  EXPECT_EQ(
      Topology::custom("c4", 4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}})
          .bisection_width(),
      2);
  // Single node: zero.
  EXPECT_EQ(Topology::chain(1).bisection_width(), 0);
}

TEST(Topology, BisectionWidthLimitOnBigCustoms) {
  std::vector<std::pair<int, int>> links;
  for (int i = 0; i + 1 < 24; ++i) links.emplace_back(i, i + 1);
  const auto t = Topology::custom("big", 24, links);
  EXPECT_THROW((void)t.bisection_width(), Error);
}

// ---- machine cost model ----

TEST(Machine, TaskTimeUsesSpeedAndStartup) {
  MachineParams p;
  p.processor_speed = 4.0;
  p.process_startup = 0.5;
  Machine m(Topology::fully_connected(2), p);
  EXPECT_DOUBLE_EQ(m.task_time(8.0, 0), 0.5 + 2.0);
}

TEST(Machine, HeterogeneousSpeedFactors) {
  MachineParams p;
  p.processor_speed = 1.0;
  Machine m(Topology::fully_connected(2), p);
  m.set_speed_factor(1, 2.0);
  EXPECT_FALSE(m.homogeneous());
  EXPECT_DOUBLE_EQ(m.task_time(4.0, 0), 4.0);
  EXPECT_DOUBLE_EQ(m.task_time(4.0, 1), 2.0);
  EXPECT_THROW(m.set_speed_factor(0, 0.0), Error);
}

TEST(Machine, StoreAndForwardCommScalesWithHops) {
  MachineParams p;
  p.message_startup = 1.0;
  p.bytes_per_second = 100.0;
  Machine m(Topology::chain(4), p);
  // 0 -> 3 is 3 hops; each hop costs 1 + 50/100.
  EXPECT_DOUBLE_EQ(m.comm_time(50, 0, 3), 3 * 1.5);
  EXPECT_DOUBLE_EQ(m.comm_time(50, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.comm_time(50, 1, 2), 1.5);
}

TEST(Machine, InfiniteBandwidthMeansStartupOnly) {
  MachineParams p;
  p.message_startup = 0.25;
  p.bytes_per_second = 0.0;  // infinite
  Machine m(Topology::chain(3), p);
  EXPECT_DOUBLE_EQ(m.comm_time(1e9, 0, 2), 0.5);
}

TEST(Machine, CcrDiagnostic) {
  MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = 0.25;
  p.bytes_per_second = 32.0;
  Machine m(Topology::fully_connected(2), p);
  EXPECT_DOUBLE_EQ(m.ccr(8.0), 0.5);  // (0.25 + 0.25) / 1.0
}

TEST(Machine, ValidatesParameters) {
  MachineParams p;
  p.processor_speed = 0.0;
  EXPECT_THROW(Machine(Topology::star(2), p), Error);
  p.processor_speed = 1.0;
  p.message_startup = -1.0;
  EXPECT_THROW(Machine(Topology::star(2), p), Error);
}

TEST(MachinePresets, ShapesAreSane) {
  const auto cube = presets::hypercube(3, 0.5);
  EXPECT_EQ(cube.num_procs(), 8);
  EXPECT_NEAR(cube.ccr(8.0), 0.5, 1e-12);
  const auto shm = presets::shared_memory(4);
  EXPECT_EQ(shm.topology().kind(), TopologyKind::FullyConnected);
  const auto lan = presets::lan(5);
  EXPECT_EQ(lan.topology().kind(), TopologyKind::Star);
  EXPECT_GT(lan.params().message_startup, shm.params().message_startup);
}

}  // namespace
}  // namespace banger::machine

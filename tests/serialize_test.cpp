// Round-trip and error tests for the .pitl and .machine text formats.
#include <gtest/gtest.h>

#include "graph/serialize.hpp"
#include "machine/serialize.hpp"
#include "util/error.hpp"
#include "workloads/designs.hpp"
#include "workloads/lu.hpp"

namespace banger {
namespace {

constexpr const char* kSample = R"(# a two-level design
design demo
graph demo
  store A bytes=64
  task load work=2 in=A out=v
  pits {
    v := [A[0], A[1]]
  }
  super crunch graph=inner in=v out=w
  store result bytes=8
  task finish work=1 in=w out=result
  pits {
    result := sum(w)
  }
  arc A -> load var=A bytes=64
  arc load -> crunch var=v bytes=16
  arc crunch -> finish var=w bytes=16
  arc finish -> result var=result bytes=8
graph inner
  task square work=3 in=v out=w
  pits {
    w := v * v
  }
)";

TEST(PitlParse, ParsesSampleDesign) {
  auto design = graph::parse_design(kSample);
  EXPECT_EQ(design.name(), "demo");
  EXPECT_EQ(design.num_graphs(), 2u);
  const auto& root = design.root_graph();
  EXPECT_EQ(root.num_nodes(), 5u);
  EXPECT_EQ(root.num_arcs(), 4u);
  const auto super_id = root.require("crunch");
  EXPECT_EQ(root.node(super_id).kind, graph::NodeKind::Super);
  EXPECT_EQ(root.node(super_id).subgraph, 1);
  design.validate();
}

TEST(PitlParse, PitsBlockAttachedToTask) {
  auto design = graph::parse_design(kSample);
  const auto& root = design.root_graph();
  const auto& load = root.node(root.require("load"));
  EXPECT_NE(load.pits.find("v := [A[0], A[1]]"), std::string::npos);
}

TEST(PitlParse, RoundTripPreservesStructure) {
  auto design = graph::parse_design(kSample);
  const std::string text = graph::to_pitl(design);
  auto again = graph::parse_design(text);
  EXPECT_EQ(again.num_graphs(), design.num_graphs());
  EXPECT_EQ(graph::to_pitl(again), text);  // fixpoint after one round
  again.validate();
  auto flat1 = design.flatten();
  auto flat2 = again.flatten();
  EXPECT_EQ(flat1.graph.num_tasks(), flat2.graph.num_tasks());
  EXPECT_EQ(flat1.graph.num_edges(), flat2.graph.num_edges());
}

TEST(PitlParse, LuDesignRoundTrips) {
  auto design = workloads::lu3x3_design();
  auto again = graph::parse_design(graph::to_pitl(design));
  again.validate();
  EXPECT_EQ(again.flatten().graph.num_tasks(), 9u);
  EXPECT_EQ(graph::to_pitl(again), graph::to_pitl(design));
}

TEST(PitlParse, NumbersRoundTripBitForBit) {
  // 1.0 / 3 needs 17 digits; 12 would read back as 0.33333333333300003.
  graph::Design design("exact");
  graph::Node task;
  task.name = "t";
  task.work = 1.0 / 3;
  task.outputs = {"r"};
  task.pits = "r := 1\n";
  design.graph(design.root()).add_node(task);
  graph::Node store;
  store.kind = graph::NodeKind::Storage;
  store.name = "r";
  store.bytes = 0.1 + 0.2;
  design.graph(design.root()).add_node(store);
  design.graph(design.root()).connect("t", "r", "r", 2.0 / 3);

  const auto again = graph::parse_design(graph::to_pitl(design));
  const auto& g = again.graph(again.root());
  EXPECT_EQ(g.node(0).work, 1.0 / 3);
  EXPECT_EQ(g.node(1).bytes, 0.1 + 0.2);
  EXPECT_EQ(g.arcs().at(0).bytes, 2.0 / 3);
  // 17 digits only where 12 would not read back.
  const std::string text = graph::to_pitl(design);
  EXPECT_NE(text.find("work=0.33333333333333331 "), std::string::npos);
  EXPECT_NE(text.find("bytes=0.30000000000000004\n"), std::string::npos);
  EXPECT_NE(graph::to_pitl(graph::parse_design(kSample)).find("bytes=64\n"),
            std::string::npos);
}

TEST(PitlParse, RoutineLinesKeepTheirNumbers) {
  const std::string body = "\nx := a\n\n  \nr := x / (a - a)\n";
  auto design = graph::parse_design(
      "design d\ngraph d\n  task t in=a out=r\n  pits {\n" + body +
      "  }\n");
  const auto again = graph::parse_design(graph::to_pitl(design));
  EXPECT_EQ(again.graph(again.root()).node(0).pits,
            "\nx := a\n\n\nr := x / (a - a)\n");
}

TEST(PitlParse, ErrorsCarryLineNumbers) {
  try {
    (void)graph::parse_design("design d\ngraph g\n  bogus x\n");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Parse);
    EXPECT_EQ(e.pos().line, 3);
  }
}

TEST(PitlParse, RejectsUnknownChildGraph) {
  EXPECT_THROW(
      (void)graph::parse_design("graph g\n  super s graph=missing\n"), Error);
}

TEST(PitlParse, RejectsUnterminatedPits) {
  EXPECT_THROW(
      (void)graph::parse_design("graph g\n  task t\n  pits {\n  x := 1\n"),
      Error);
}

TEST(PitlParse, RejectsDuplicateGraphNames) {
  EXPECT_THROW((void)graph::parse_design("graph g\ngraph g\n"), Error);
}

TEST(PitlParse, RejectsNodeBeforeGraph) {
  EXPECT_THROW((void)graph::parse_design("task t\n"), Error);
}

TEST(PitlParse, RejectsBadNumbers) {
  EXPECT_THROW((void)graph::parse_design("graph g\n  task t work=abc\n"),
               Error);
}

TEST(PitlParse, CommentsAndBlankLinesIgnored)
{
  auto design = graph::parse_design(
      "# leading comment\n\ngraph g  # trailing\n  task t work=2\n\n");
  EXPECT_EQ(design.root_graph().num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(design.root_graph().node(0).work, 2.0);
}

TEST(PitlFiles, SaveAndLoad) {
  auto design = workloads::montecarlo_design(3, 100);
  const std::string path = testing::TempDir() + "/mc.pitl";
  graph::save_design(design, path);
  auto loaded = graph::load_design(path);
  loaded.validate();
  EXPECT_EQ(loaded.flatten().graph.num_tasks(),
            design.flatten().graph.num_tasks());
}

TEST(PitlFiles, LoadMissingFileFails) {
  EXPECT_THROW((void)graph::load_design("/nonexistent/x.pitl"), Error);
}

// ---- .machine ----

constexpr const char* kMachine = R"(machine testbox
topology hypercube dim=3
speed 2
process_startup 0.125
message_startup 0.5
bandwidth 1000
routing store-and-forward
speed_factor 2 1.5
)";

TEST(MachineParse, ParsesSample) {
  auto m = machine::parse_machine(kMachine);
  EXPECT_EQ(m.name(), "testbox");
  EXPECT_EQ(m.num_procs(), 8);
  EXPECT_EQ(m.topology().kind(), machine::TopologyKind::Hypercube);
  EXPECT_DOUBLE_EQ(m.params().processor_speed, 2.0);
  EXPECT_DOUBLE_EQ(m.params().process_startup, 0.125);
  EXPECT_DOUBLE_EQ(m.speed_factor(2), 1.5);
  EXPECT_DOUBLE_EQ(m.speed_factor(0), 1.0);
}

TEST(MachineParse, RoundTrip) {
  auto m = machine::parse_machine(kMachine);
  auto again = machine::parse_machine(machine::to_text(m));
  EXPECT_EQ(again.num_procs(), m.num_procs());
  EXPECT_EQ(machine::to_text(again), machine::to_text(m));
  EXPECT_DOUBLE_EQ(again.comm_time(100, 0, 7), m.comm_time(100, 0, 7));
}

TEST(MachineParse, ParametersRoundTripBitForBit) {
  machine::MachineParams p;
  p.processor_speed = 1.0 / 3;
  p.process_startup = 0.125;
  p.message_startup = 0.1 + 0.2;  // 0.29999999999999999 at 12 digits
  p.bytes_per_second = 1e6 / 7;
  p.per_hop_latency = 2.0 / 3;
  machine::Machine m(machine::Topology::ring(4), p);
  m.set_speed_factor(1, 1.0 / 7);
  const auto again = machine::parse_machine(machine::to_text(m));
  EXPECT_EQ(again.params().processor_speed, p.processor_speed);
  EXPECT_EQ(again.params().process_startup, p.process_startup);
  EXPECT_EQ(again.params().message_startup, p.message_startup);
  EXPECT_EQ(again.params().bytes_per_second, p.bytes_per_second);
  EXPECT_EQ(again.params().per_hop_latency, p.per_hop_latency);
  EXPECT_EQ(again.speed_factor(1), 1.0 / 7);
  EXPECT_NE(machine::to_text(m).find("process_startup 0.125\n"),
            std::string::npos);
}

TEST(MachineParse, MeshRoundTripsThroughCustomLinks) {
  machine::MachineParams p;
  p.processor_speed = 1;
  auto m = machine::Machine(machine::Topology::mesh(2, 3), p);
  auto again = machine::parse_machine(machine::to_text(m));
  EXPECT_EQ(again.num_procs(), 6);
  for (machine::ProcId a = 0; a < 6; ++a)
    for (machine::ProcId b = 0; b < 6; ++b)
      EXPECT_EQ(again.topology().hops(a, b), m.topology().hops(a, b));
}

TEST(MachineParse, AllTopologyKeywords) {
  EXPECT_EQ(machine::parse_machine("topology star procs=5\n").num_procs(), 5);
  EXPECT_EQ(machine::parse_machine("topology ring procs=6\n").num_procs(), 6);
  EXPECT_EQ(machine::parse_machine("topology chain procs=4\n").num_procs(), 4);
  EXPECT_EQ(machine::parse_machine("topology full procs=3\n").num_procs(), 3);
  EXPECT_EQ(
      machine::parse_machine("topology mesh rows=2 cols=2\n").num_procs(), 4);
  EXPECT_EQ(
      machine::parse_machine("topology tree arity=2 procs=7\n").num_procs(),
      7);
  EXPECT_EQ(machine::parse_machine(
                "topology custom procs=3 links=0-1,1-2\n")
                .num_procs(),
            3);
}

TEST(MachineParse, RejectsMissingTopology) {
  EXPECT_THROW((void)machine::parse_machine("speed 2\n"), Error);
}

TEST(MachineParse, RejectsUnknownDirective) {
  EXPECT_THROW((void)machine::parse_machine("topology star procs=3\nbogus 1\n"),
               Error);
}

TEST(MachineParse, RejectsOutOfRangeSpeedFactor) {
  EXPECT_THROW((void)machine::parse_machine(
                   "topology star procs=3\nspeed_factor 9 2\n"),
               Error);
}

TEST(MachineParse, CutThroughRouting) {
  auto m = machine::parse_machine(
      "topology chain procs=4\nrouting cut-through\nmessage_startup 1\n"
      "per_hop_latency 0.25\nbandwidth 0\n");
  // 3 hops: startup + 2 extra hops * 0.25
  EXPECT_DOUBLE_EQ(m.comm_time(100, 0, 3), 1.0 + 2 * 0.25);
}

}  // namespace
}  // namespace banger

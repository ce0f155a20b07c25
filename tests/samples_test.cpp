// Keeps the shipped samples/ files working forever: every sample design
// validates, lints clean, and runs end to end on every sample machine.
#include <gtest/gtest.h>

#include "core/lint.hpp"
#include "core/project.hpp"
#include "fault/fault.hpp"
#include "graph/serialize.hpp"
#include "machine/serialize.hpp"

namespace banger {
namespace {

std::string samples_dir() {
  return std::string(BANGER_SOURCE_DIR) + "/samples";
}

class Samples : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = samples_dir();
  }
  std::string dir_;
};

TEST_F(Samples, AllMachinesParse) {
  for (const char* name :
       {"ipsc_hypercube8.machine", "lan_star5.machine",
        "mixed_mesh6.machine"}) {
    const auto m = machine::load_machine(dir_ + "/" + name);
    EXPECT_GE(m.num_procs(), 5) << name;
    // Round trip.
    const auto again = machine::parse_machine(machine::to_text(m));
    EXPECT_EQ(again.num_procs(), m.num_procs()) << name;
  }
}

TEST_F(Samples, MixedMeshIsHeterogeneous) {
  const auto m = machine::load_machine(dir_ + "/mixed_mesh6.machine");
  EXPECT_FALSE(m.homogeneous());
  EXPECT_DOUBLE_EQ(m.speed_factor(0), 2.0);
  EXPECT_DOUBLE_EQ(m.speed_factor(5), 1.0);
}

TEST_F(Samples, SqrtFanoutValidatesAndLintsClean) {
  Project project = Project::load(dir_ + "/sqrt_fanout.pitl");
  EXPECT_EQ(project.summary().leaf_tasks, 6u);
  EXPECT_TRUE(lint_design(project.flattened()).empty());
}

TEST_F(Samples, SqrtFanoutRunsOnEveryMachine) {
  Project project = Project::load(dir_ + "/sqrt_fanout.pitl");
  pits::Vector xs{4, 9, 16, 25, 36, 49, 64, 81};
  const pits::Vector expect{2, 3, 4, 5, 6, 7, 8, 9};
  for (const char* name :
       {"ipsc_hypercube8.machine", "lan_star5.machine",
        "mixed_mesh6.machine"}) {
    project.set_machine(machine::load_machine(dir_ + "/" + name));
    const auto result = project.run({{"xs", pits::Value(xs)}});
    EXPECT_EQ(result.outputs.at("roots").as_vector(), expect) << name;
  }
}

TEST_F(Samples, DemoFaultPlanLoadsAndRoundTrips) {
  const auto plan = fault::FaultPlan::load(dir_ + "/demo.fault");
  EXPECT_EQ(plan.name(), "demo");
  EXPECT_EQ(plan.seed(), 7u);
  ASSERT_EQ(plan.crashes().size(), 1u);
  EXPECT_EQ(plan.crashes()[0].proc, 1);
  ASSERT_EQ(plan.slowdowns().size(), 1u);
  EXPECT_DOUBLE_EQ(plan.msg_loss().prob, 0.2);
  EXPECT_DOUBLE_EQ(plan.msg_delay().jitter, 0.25);
  const auto again = fault::FaultPlan::parse(plan.to_text());
  EXPECT_EQ(again.to_text(), plan.to_text());
  // Valid for every shipped sample machine (all have >= 5 processors).
  plan.validate(5);
}

TEST_F(Samples, LanCommunicationCostsBite) {
  Project project = Project::load(dir_ + "/sqrt_fanout.pitl");
  // Cheap network first.
  project.set_machine(
      machine::load_machine(dir_ + "/ipsc_hypercube8.machine"));
  const double fast_net = project.metrics("mh").speedup;
  // Expensive LAN: the same design parallelises, but the 2 s message
  // startups eat a visible share of the win — and MH must still never
  // lose to serial placement.
  project.set_machine(machine::load_machine(dir_ + "/lan_star5.machine"));
  const auto lan = project.metrics("mh");
  EXPECT_LT(lan.speedup, fast_net);
  EXPECT_LE(lan.makespan, project.metrics("serial").makespan + 1e-9);
}

TEST(Tutorial, StatsProgramFromDocsWorks) {
  // Mirrors docs/tutorial.md; if this breaks, update the tutorial.
  const char* pitl = R"(design stats
graph stats
  store samples bytes=512
  store summary bytes=16
  task sum_task work=4 in=samples out=s
  pits {
    s := sum(samples)
  }
  task sumsq_task work=4 in=samples out=q
  pits {
    q := dot(samples, samples)
  }
  task finish work=1 in=samples,s,q out=summary
  pits {
    n := len(samples)
    mean := s / n
    summary := [mean, q / n - mean * mean]
  }
  arc samples -> sum_task var=samples bytes=512
  arc samples -> sumsq_task var=samples bytes=512
  arc samples -> finish var=samples bytes=512
  arc sum_task -> finish var=s bytes=8
  arc sumsq_task -> finish var=q bytes=8
  arc finish -> summary var=summary bytes=16
)";
  Project project(graph::parse_design(pitl));
  EXPECT_TRUE(lint_design(project.flattened()).empty());
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = 0.1;
  p.bytes_per_second = 4096;
  project.set_machine(
      machine::Machine(machine::Topology::fully_connected(4), p));
  const auto result = project.run(
      {{"samples", pits::Value(pits::Vector{2, 4, 4, 4, 5, 5, 7, 9})}});
  EXPECT_EQ(result.outputs.at("summary").as_vector(), (pits::Vector{5, 4}));
  // The two reduction tasks overlap: speedup above 1.
  EXPECT_GT(project.metrics("mh").speedup, 1.0);
}

}  // namespace
}  // namespace banger

// End-to-end tests of the Project facade: the full four-step Banger
// workflow on the paper's LU example and the other designs.
#include <gtest/gtest.h>

#include "core/project.hpp"
#include "graph/serialize.hpp"
#include "workloads/designs.hpp"
#include "workloads/lu.hpp"

namespace banger {
namespace {

using pits::Value;
using pits::Vector;

machine::Machine cube(int dim, double startup = 0.05,
                      double bandwidth = 1e4) {
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = startup;
  p.bytes_per_second = bandwidth;
  return machine::Machine(machine::Topology::hypercube(dim), p);
}

std::map<std::string, Value> lu_inputs() {
  return {{"A", Value(Vector{4, 3, 2, 8, 8, 5, 4, 7, 9})},
          {"b", Value(Vector{16, 39, 45})}};
}

TEST(Project, SummaryOfLuDesign) {
  Project project(workloads::lu3x3_design());
  const auto s = project.summary();
  EXPECT_EQ(s.leaf_tasks, 9u);
  EXPECT_EQ(s.depth, 2);
  EXPECT_EQ(s.stores, 6u);
  EXPECT_GT(s.average_parallelism, 1.0);
  EXPECT_LT(s.average_parallelism, 4.0);
  EXPECT_DOUBLE_EQ(s.total_work, 34.0);
}

TEST(Project, RequiresMachineForScheduling) {
  Project project(workloads::lu3x3_design());
  EXPECT_FALSE(project.has_machine());
  EXPECT_THROW((void)project.schedule(), Error);
  project.set_machine(cube(2));
  EXPECT_TRUE(project.has_machine());
  EXPECT_NO_THROW((void)project.schedule());
}

TEST(Project, SchedulesAreCachedPerHeuristic) {
  Project project(workloads::lu3x3_design());
  project.set_machine(cube(2));
  const auto& s1 = project.schedule("mh");
  const auto& s2 = project.schedule("mh");
  EXPECT_EQ(&s1, &s2);
  const auto& etf = project.schedule("etf");
  EXPECT_NE(&s1, &etf);
  // Changing the machine invalidates the cache.
  project.set_machine(cube(3));
  const auto& s3 = project.schedule("mh");
  EXPECT_EQ(s3.num_procs(), 8);
}

TEST(Project, MetricsAndSpeedup) {
  Project project(workloads::lu3x3_design());
  project.set_machine(cube(3));
  const auto metrics = project.metrics();
  EXPECT_GT(metrics.speedup, 1.0);
  EXPECT_LE(metrics.speedup, 8.0);

  const auto curve = project.speedup({1, 2, 4, 8});
  ASSERT_EQ(curve.points.size(), 4u);
  EXPECT_NEAR(curve.points[0].speedup, 1.0, 1e-9);
  EXPECT_GE(curve.points[2].speedup, curve.points[0].speedup);
}

TEST(Project, SimulationAgreesWithSchedule) {
  Project project(workloads::lu3x3_design());
  project.set_machine(cube(2));
  const auto sim = project.simulate();
  EXPECT_LE(sim.makespan, project.schedule().makespan() + 1e-9);
  EXPECT_GT(sim.makespan, 0.0);
}

TEST(Project, TrialRunAndParallelRunAgree) {
  Project project(workloads::lu3x3_design());
  project.set_machine(cube(2));
  const auto trial = project.trial_run(lu_inputs());
  const auto parallel = project.run(lu_inputs());
  ASSERT_TRUE(trial.outputs.contains("x"));
  EXPECT_EQ(trial.outputs.at("x"), parallel.outputs.at("x"));
  const auto& x = trial.outputs.at("x").as_vector();
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
  EXPECT_NEAR(x[2], 3.0, 1e-9);
}

TEST(Project, GenerateCodeContainsProgram) {
  Project project(workloads::lu3x3_design());
  project.set_machine(cube(2));
  const std::string src = project.generate_code(lu_inputs());
  EXPECT_NE(src.find("int main()"), std::string::npos);
  EXPECT_NE(src.find(graph::to_pitl(project.design())), std::string::npos);
  EXPECT_NE(src.find("banger::cli::run_program("), std::string::npos);
}

TEST(Project, LoadFromPitlFile) {
  const std::string path = testing::TempDir() + "/project.pitl";
  graph::save_design(workloads::lu3x3_design(), path);
  Project project = Project::load(path);
  EXPECT_EQ(project.summary().leaf_tasks, 9u);
}

TEST(Project, RejectsInvalidDesigns) {
  graph::Design bad("bad");
  auto& g = bad.root_graph();
  graph::Node a;
  a.name = "a";
  graph::Node b;
  b.name = "b";
  g.add_node(std::move(a));
  g.add_node(std::move(b));
  g.connect("a", "b");
  g.connect("b", "a");
  EXPECT_THROW(Project{std::move(bad)}, Error);
}

TEST(Project, MontecarloWorkflow) {
  Project project(workloads::montecarlo_design(6, 300));
  project.set_machine(cube(2, 0.01, 1e6));
  const auto metrics = project.metrics();
  EXPECT_GT(metrics.speedup, 1.5);  // samplers are independent
  const auto result = project.run({});
  EXPECT_NEAR(result.outputs.at("pi_est").as_scalar(), 3.14159, 0.4);
}

TEST(Project, SignalPipelineAcrossHeuristics) {
  Project project(workloads::signal_pipeline_design(4));
  project.set_machine(cube(2, 0.01, 1e6));
  pits::Vector signal;
  for (int i = 0; i < 16; ++i) signal.push_back(1.0);
  const auto seq = project.trial_run({{"signal", Value(signal)}});
  for (const char* h : {"mh", "dsh", "cluster"}) {
    const auto par = project.run({{"signal", Value(signal)}}, h);
    EXPECT_EQ(par.outputs.at("energy"), seq.outputs.at("energy")) << h;
  }
}

TEST(Project, SpeedupFamiliesForOtherTopologies) {
  Project project(workloads::montecarlo_design(8, 50));
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = 0.01;
  p.bytes_per_second = 1e6;
  project.set_machine(
      machine::Machine(machine::Topology::mesh(2, 2), p));
  const auto curve = project.speedup({1, 4, 8});
  ASSERT_EQ(curve.points.size(), 3u);
  EXPECT_GT(curve.points.back().speedup, curve.points.front().speedup);
}

}  // namespace
}  // namespace banger

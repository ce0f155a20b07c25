// Code generator tests. A generated program is the scheduled design as
// data plus one call into the engine, so the unit tests check that the
// texts and inputs are embedded exactly, and the differential checks
// that every program the build compiled from tests/codegen_fixtures.cpp
// prints what `banger run` prints on the same design, machine, scheduler
// and inputs: stdout with the wall time masked, stderr and exit status.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <regex>
#include <sstream>

#include "cli/cli.hpp"
#include "codegen/codegen.hpp"
#include "graph/serialize.hpp"
#include "machine/serialize.hpp"
#include "sched/heuristics.hpp"
#include "sched/serialize.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"
#include "workloads/lu.hpp"

namespace banger::codegen {
namespace {

using pits::Value;
using pits::Vector;

machine::Machine make_machine(int procs) {
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = 0.01;
  p.bytes_per_second = 1e6;
  return machine::Machine(machine::Topology::fully_connected(procs), p);
}

std::map<std::string, Value> lu_inputs() {
  return {{"A", Value(Vector{4, 3, 2, 8, 8, 5, 4, 7, 9})},
          {"b", Value(Vector{16, 39, 45})}};
}

TEST(Generate, LuProgramStructure) {
  const graph::Design design = workloads::lu3x3_design();
  const auto flat = design.flatten();
  const auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  const std::string src =
      generate_cpp(design, flat.graph, m, schedule, lu_inputs());

  // The program is the three texts, byte for byte, and one call.
  EXPECT_NE(src.find(graph::to_pitl(design)), std::string::npos);
  EXPECT_NE(src.find(machine::to_text(m)), std::string::npos);
  EXPECT_NE(src.find(sched::to_text(schedule, flat.graph)),
            std::string::npos);
  EXPECT_NE(src.find("int main()"), std::string::npos);
  EXPECT_NE(src.find("banger::cli::run_program(kDesign, kMachine, kSchedule"),
            std::string::npos);
  EXPECT_NE(src.find("{\"A\", Value(Vector{4.0, 3.0, 2.0, 8.0, 8.0, 5.0, "
                     "4.0, 7.0, 9.0})}"),
            std::string::npos)
      << src;
  // No runtime of its own.
  EXPECT_EQ(src.find("std::thread"), std::string::npos);
}

TEST(Generate, RawStringsOutliveTheirDelimiters) {
  graph::Design design("quoting");
  graph::Node task;
  task.name = "t";
  task.outputs = {"r"};
  task.pits = "r := \")pitl\" + \")\"\n";
  design.root_graph().add_node(task);
  const auto flat = design.flatten();
  const auto m = make_machine(1);
  const auto schedule = sched::SerialScheduler().run(flat.graph, m);
  const std::string src = generate_cpp(
      design, flat.graph, m, schedule,
      {{"s", Value(std::string("a\r)str\"b", 8) + '\0' + "c")},
       {"not an identifier", Value(1.0)}});
  // `)pitl"` occurs in the design, so its literal takes the next name.
  EXPECT_NE(src.find("kDesign = R\"pitl0(design quoting\n"),
            std::string::npos)
      << src;
  // Carriage returns and NULs are escapes between raw pieces.
  EXPECT_NE(src.find("Value(std::string(R\"str0(a)str0\" \"\\r\" "
                     "R\"str0()str\"b)str0\" \"\\0\" R\"str0(c)str0\"sv))"),
            std::string::npos)
      << src;
  EXPECT_NE(src.find("{std::string(R\"in(not an identifier)in\"sv), "
                     "Value(1.0)}"),
            std::string::npos);
}

TEST(Generate, InputsAreExactDoubles) {
  const graph::Design design = workloads::lu3x3_design();
  const auto flat = design.flatten();
  const auto m = make_machine(1);
  const auto schedule = sched::SerialScheduler().run(flat.graph, m);
  const std::string src = generate_cpp(
      design, flat.graph, m, schedule,
      {{"third", Value(1.0 / 3)},
       {"v", Value(Vector{0.1 + 0.2, -0.0, 1e300, 5e-324, 1e21})}});
  EXPECT_NE(src.find("Value(0.3333333333333333)"), std::string::npos) << src;
  EXPECT_NE(src.find("Value(Vector{0.30000000000000004, -0.0, 1e+300, "
                     "5e-324, 1e+21})"),
            std::string::npos)
      << src;
}

// ---- the differential ------------------------------------------------

struct Outcome {
  int code = 0;
  std::string out;
  std::string err;
};

/// What each case must show, so that two programs failing alike (or a
/// case that no longer reaches its error) cannot pass unnoticed: the
/// exit status and a line of stdout (status 0) or stderr.
struct Expectation {
  const char* name;
  int code;
  const char* needle;
};

const Expectation kExpectations[] = {
    {"sqrt_fanout", 0, "roots = [2, 3, 4, 5, 6, 7, 8, 9, 10, 1.41421356237]"},
    {"sqrt_negative", 1,
     "banger: runtime error at 1:10: worker 2: in task `root2`: invalid "
     "power (negative base?)"},
    {"sqrt_missing", 1, "no value supplied for input store `xs`"},
    {"absint_showcase", 1, "in task `div_zero`: division by zero"},
    {"clean_loops", 0, "out = ["},
    {"shape_mismatch", 1, "in task `user`"},
    {"lu_mh", 0, "x = [1, 2, 3]"},
    {"lu_dsh", 0, "x = [1, 2, 3]"},
    {"heat", 0, "result = ["},
    {"montecarlo", 0, "pi_est = "},
    {"print", 0, "right: ( ) closing )pitl"},
    {"corpus", 0, "o25 = "},
    {"fuzz_a", 0, "f24 = "},
    {"fuzz_b", 0, "f48 = "},
    {"div_zero", 1,
     "runtime error at 4:8: worker 1: in task `t`: division by zero"},
    {"index_range", 1, "in task `t`: index"},
    {"exotic", 0, "r = [3, 0]\ny = [inf, -inf, nan]"},
};

std::vector<std::string> cases() {
  std::vector<std::string> out;
  for (auto name : util::split(BANGER_CODEGEN_CASES, ',')) {
    out.emplace_back(name);
  }
  return out;
}

const std::string kDir = BANGER_CODEGEN_DIR;

Outcome run_generated(const std::string& name) {
  const std::string out = testing::TempDir() + "/codegen_" + name + ".out";
  const std::string err = testing::TempDir() + "/codegen_" + name + ".err";
  const int status = std::system(
      ("'" + kDir + "/" + name + "' > '" + out + "' 2> '" + err + "'")
          .c_str());
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, util::read_file(out),
          util::read_file(err)};
}

Outcome banger_run(const std::string& name) {
  std::vector<std::string> args = {"run", kDir + "/" + name + ".pitl",
                                   kDir + "/" + name + ".machine"};
  const std::string rest = util::read_file(kDir + "/" + name + ".args");
  for (auto line : util::split(rest, '\n')) {
    if (!line.empty()) args.emplace_back(line);
  }
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli::run(args, out, err);
  return {code, out.str(), err.str()};
}

std::string mask_wall(const std::string& out) {
  static const std::regex wall(", wall [0-9.e+-]+s\\)");
  return std::regex_replace(out, wall, ", wall ?s)");
}

class GeneratedProgram : public ::testing::TestWithParam<std::string> {};

TEST_P(GeneratedProgram, PrintsWhatBangerRunPrints) {
  const std::string name = GetParam();
  const Expectation* expect = nullptr;
  for (const Expectation& e : kExpectations) {
    if (e.name == name) expect = &e;
  }
  ASSERT_NE(expect, nullptr) << "no expectation for case " << name;

  const Outcome generated = run_generated(name);
  const Outcome reference = banger_run(name);
  EXPECT_EQ(generated.code, reference.code) << generated.err;
  EXPECT_EQ(mask_wall(generated.out), mask_wall(reference.out));
  EXPECT_EQ(generated.err, reference.err);

  EXPECT_EQ(reference.code, expect->code) << reference.err;
  const std::string& shown = expect->code == 0 ? reference.out : reference.err;
  EXPECT_NE(shown.find(expect->needle), std::string::npos) << shown;
}

INSTANTIATE_TEST_SUITE_P(Cases, GeneratedProgram, ::testing::ValuesIn(cases()),
                         [](const auto& info) { return info.param; });

TEST(Differential, DshCaseRunsDuplicatedTasks) {
  EXPECT_NE(util::read_file(kDir + "/lu_dsh.cpp").find(" dup\n"),
            std::string::npos);
}

}  // namespace
}  // namespace banger::codegen

// CLI tests: every command driven through cli::run with captured
// streams, exercising the tool exactly as a shell user would.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>

#include "cli/cli.hpp"
#include "graph/serialize.hpp"
#include "machine/serialize.hpp"
#include "scoped_env.hpp"
#include "serve/json.hpp"
#include "workloads/lu.hpp"

namespace banger::cli {
namespace {

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult invoke(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  CliResult r;
  r.code = run(args, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

class CliFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    design_path_ = testing::TempDir() + "/cli_lu.pitl";
    machine_path_ = testing::TempDir() + "/cli_cube.machine";
    graph::save_design(workloads::lu3x3_design(), design_path_);
    std::ofstream(machine_path_) << "machine cube4\n"
                                    "topology hypercube dim=2\n"
                                    "speed 1\n"
                                    "message_startup 0.05\n"
                                    "bandwidth 512\n";
  }
  std::string design_path_;
  std::string machine_path_;
};

TEST(Cli, NoArgsShowsUsageWithCode2) {
  const auto r = invoke({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.out.find("usage: banger"), std::string::npos);
}

TEST(Cli, HelpExitsZero) {
  const auto r = invoke({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("commands:"), std::string::npos);
}

TEST(Cli, UnknownCommand) {
  const auto r = invoke({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, MissingFileIsUserError) {
  const auto r = invoke({"info", "/no/such/file.pitl"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("banger:"), std::string::npos);
}

TEST_F(CliFiles, EveryReaderReportsADirectoryAsAnIoError) {
  // A directory opens but does not read. Each loader once took the empty
  // read for an empty file: a design validated with 0 leaf tasks, a check
  // came out clean, a trial batch ran nothing, and a machine or fault
  // plan got a parse error about a missing header.
  std::string dir = testing::TempDir();
  while (dir.size() > 1 && dir.back() == '/') dir.pop_back();
  const std::vector<std::vector<std::string>> commands = {
      {"validate", dir},
      {"check", dir},
      {"trial", design_path_, "--inputs", dir},
      {"schedule", design_path_, dir},
      {"faults", design_path_, machine_path_, "--fault-plan", dir},
  };
  for (const auto& args : commands) {
    const auto r = invoke(args);
    EXPECT_EQ(r.code, 1) << args[0];
    EXPECT_EQ(r.out, "") << args[0];
    EXPECT_EQ(r.err, "banger: io error: cannot read `" + dir +
                         "`: Is a directory\n")
        << args[0];
  }
}

TEST_F(CliFiles, InputsFileKeepsLineNumbersAcrossCommentsAndBlanks) {
  const std::string inputs_path = testing::TempDir() + "/cli_trials_lines.txt";
  std::ofstream(inputs_path) << "# header\n\n  # indented comment\r\n"
                             << "A=[4,3,2,8,8,5,4,7,9]; b=[16,39,45]\r\n"
                             << "A=[1]; b=(\n";
  const auto r = invoke({"trial", design_path_, "--inputs", inputs_path});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("parse error at 5:11: `" + inputs_path + "`"),
            std::string::npos)
      << r.err;
}

TEST_F(CliFiles, Info) {
  const auto r = invoke({"info", design_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("leaf tasks: 9"), std::string::npos);
  EXPECT_NE(r.out.find("input stores: A b"), std::string::npos);
  EXPECT_NE(r.out.find("output stores: x"), std::string::npos);
}

TEST_F(CliFiles, Validate) {
  const auto r = invoke({"validate", design_path_});
  ASSERT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("ok:"), std::string::npos);
}

TEST_F(CliFiles, Flatten) {
  const auto r = invoke({"flatten", design_path_});
  ASSERT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("solve.back"), std::string::npos);
  EXPECT_NE(r.out.find("fan1"), std::string::npos);
}

TEST_F(CliFiles, DotToStdoutAndFile) {
  const auto r = invoke({"dot", design_path_});
  ASSERT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("digraph"), std::string::npos);

  const std::string path = testing::TempDir() + "/cli_out.dot";
  const auto r2 = invoke({"dot", design_path_, "-o", path});
  ASSERT_EQ(r2.code, 0);
  std::ifstream in(path);
  std::string first;
  std::getline(in, first);
  EXPECT_NE(first.find("digraph"), std::string::npos);
}

TEST(Cli, Topo) {
  const auto r = invoke({"topo", "mesh", "rows=2", "cols=3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("6 processors"), std::string::npos);
  EXPECT_NE(r.out.find("7 links"), std::string::npos);
}

TEST(Cli, TopoRefusesAnOversizedMachineAtOnce) {
  // Once built in full: 3.6 s and 982 MiB for the hop matrix alone.
  const auto begin = std::chrono::steady_clock::now();
  const auto r = invoke({"topo", "ring", "procs=16000"});
  const auto took = std::chrono::steady_clock::now() - begin;
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("limit"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("4096"), std::string::npos) << r.err;
  EXPECT_LT(took, std::chrono::milliseconds(100));
}

TEST_F(CliFiles, ScheduleGantt) {
  const auto r = invoke({"schedule", design_path_, machine_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Gantt chart"), std::string::npos);
  EXPECT_NE(r.out.find("makespan"), std::string::npos);
}

TEST_F(CliFiles, ScheduleTableAndSvg) {
  const auto table = invoke(
      {"schedule", design_path_, machine_path_, "--format", "table"});
  ASSERT_EQ(table.code, 0);
  EXPECT_NE(table.out.find("start"), std::string::npos);

  const auto svg = invoke(
      {"schedule", design_path_, machine_path_, "--format", "svg"});
  ASSERT_EQ(svg.code, 0);
  EXPECT_NE(svg.out.find("<svg"), std::string::npos);
}

TEST_F(CliFiles, ScheduleWithExplicitScheduler) {
  for (const char* name : {"mcp", "dsh", "cluster", "serial"}) {
    const auto r = invoke(
        {"schedule", design_path_, machine_path_, "--scheduler", name});
    EXPECT_EQ(r.code, 0) << name << ": " << r.err;
  }
  const auto bad = invoke(
      {"schedule", design_path_, machine_path_, "--scheduler", "nope"});
  EXPECT_EQ(bad.code, 1);
}

TEST_F(CliFiles, Speedup) {
  const auto r = invoke(
      {"speedup", design_path_, machine_path_, "--sizes", "1,2,4"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("procs"), std::string::npos);
  EXPECT_NE(r.out.find("ideal linear"), std::string::npos);
}

TEST_F(CliFiles, SpeedupRejectsBadSizes) {
  const auto r = invoke(
      {"speedup", design_path_, machine_path_, "--sizes", "1,zero"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--sizes"), std::string::npos);
  EXPECT_NE(r.err.find("zero"), std::string::npos);
}

TEST_F(CliFiles, Simulate) {
  const auto r = invoke(
      {"simulate", design_path_, machine_path_, "--events", "5"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("simulated makespan"), std::string::npos);
  EXPECT_NE(r.out.find("t="), std::string::npos);
}

TEST_F(CliFiles, SimulateWithContention) {
  const auto r = invoke(
      {"simulate", design_path_, machine_path_, "--contention"});
  ASSERT_EQ(r.code, 0) << r.err;
}

TEST_F(CliFiles, TrialRunSolvesSystem) {
  const auto r = invoke({"trial", design_path_, "--input",
                         "A=[4,3,2,8,8,5,4,7,9]", "--input", "b=[16,39,45]"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("x = [1, 2, 3]"), std::string::npos);
}

TEST_F(CliFiles, RunMatchesTrial) {
  const auto r = invoke({"run", design_path_, machine_path_, "--input",
                         "A=[4,3,2,8,8,5,4,7,9]", "--input", "b=[16,39,45]"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("x = [1, 2, 3]"), std::string::npos);
}

/// `text` up to the first `marker` (all of it when absent).
std::string before(const std::string& text, const std::string& marker) {
  return text.substr(0, text.find(marker));
}

TEST(CliSamples, RunWithFaultPlanMatchesTrial) {
  const std::string dir = std::string(BANGER_SOURCE_DIR) + "/samples";
  const std::string design = dir + "/sqrt_fanout.pitl";
  const std::string machine = dir + "/ipsc_hypercube8.machine";
  const std::string input = "xs=[4,9,16,25,36,49,64,81]";
  const auto trial = invoke({"trial", design, "--input", input});
  ASSERT_EQ(trial.code, 0) << trial.err;
  // demo.fault crashes processor 1 after its last scheduled start; the
  // second plan crashes it before anything starts, so its lane is
  // rescued by processor 0.
  const std::string early = testing::TempDir() + "/cli_early.fault";
  std::ofstream(early) << "faultplan early seed=1\ncrash proc=1 at=0\n";
  const std::pair<std::string, std::string> plans[] = {
      {dir + "/demo.fault",
       "fault plan `demo`: 0 workers died, 0 tasks rescued"},
      {early, "fault plan `early`: 1 workers died, 1 tasks rescued"}};
  for (const auto& [plan, want] : plans) {
    for (const char* jobs : {"1", "4"}) {
      const tests::ScopedEnv env("BANGER_JOBS", jobs);
      const auto r = invoke({"run", design, machine, "--input", input,
                             "--fault-plan", plan});
      ASSERT_EQ(r.code, 0) << r.err;
      EXPECT_EQ(before(r.out, "\n("), before(trial.out, "\n("));
      const std::size_t at = r.out.find("fault plan ");
      ASSERT_NE(at, std::string::npos) << r.out;
      EXPECT_EQ(before(r.out.substr(at), ", recovery overhead"), want)
          << "BANGER_JOBS=" << jobs;
    }
  }
}

// A generated program runs its schedule fault-free, so codegen refuses a
// fault plan instead of dropping it.
TEST(CliSamples, CodegenRefusesAFaultPlan) {
  const std::string dir = std::string(BANGER_SOURCE_DIR) + "/samples";
  const auto r = invoke({"codegen", dir + "/sqrt_fanout.pitl",
                         dir + "/lan_star5.machine", "--fault-plan",
                         dir + "/demo.fault"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--fault-plan"), std::string::npos) << r.err;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST_F(CliFiles, InputsAreFullPitsExpressions) {
  const auto r = invoke({"trial", design_path_, "--input",
                         "A=[4,3,2,8,8,5,4,7,9]", "--input",
                         "b=[2^4, 39, 40+5]"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("x = [1, 2, 3]"), std::string::npos);
}

TEST_F(CliFiles, TrialBatchFromInputsFile) {
  const std::string inputs_path = testing::TempDir() + "/cli_trials.txt";
  std::ofstream(inputs_path)
      << "# one trial per line\n"
      << "A=[4,3,2,8,8,5,4,7,9]; b=[16,39,45]\n"
      << "\n"
      << "A=[4,3,2,8,8,5,4,7,9]; b=[32,78,90]\n";
  const auto r = invoke({"trial", design_path_, "--inputs", inputs_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("=== trial 1 of 2 ==="), std::string::npos);
  EXPECT_NE(r.out.find("=== trial 2 of 2 ==="), std::string::npos);
  EXPECT_NE(r.out.find("x = [1, 2, 3]"), std::string::npos);
  EXPECT_NE(r.out.find("x = [2, 4, 6]"), std::string::npos);

  // Each block is byte-identical to the equivalent one-shot run.
  const auto one = invoke({"trial", design_path_, "--input",
                           "A=[4,3,2,8,8,5,4,7,9]", "--input",
                           "b=[16,39,45]"});
  EXPECT_NE(r.out.find(one.out), std::string::npos);
}

TEST_F(CliFiles, TrialBatchFailingTrialExitsOne) {
  const std::string inputs_path = testing::TempDir() + "/cli_trials_err.txt";
  std::ofstream(inputs_path)
      << "A=[4,3,2,8,8,5,4,7,9]; b=[16,39,45]\n"
      << "A=[0,3,2,8,8,5,4,7,9]; b=[16,39,45]\n";  // zero pivot
  const auto r = invoke({"trial", design_path_, "--inputs", inputs_path});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("x = [1, 2, 3]"), std::string::npos);
  EXPECT_NE(r.out.find("error[runtime]:"), std::string::npos);
}

TEST_F(CliFiles, TrialBatchRejectsMalformedLine) {
  const std::string inputs_path = testing::TempDir() + "/cli_trials_bad.txt";
  std::ofstream(inputs_path) << "A=[1]; nonsense\n";
  const auto r = invoke({"trial", design_path_, "--inputs", inputs_path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("VAR=EXPR"), std::string::npos);
  EXPECT_NE(r.err.find("line 1"), std::string::npos);
}

TEST_F(CliFiles, TrialInputAndInputsFileAreExclusive) {
  const std::string inputs_path = testing::TempDir() + "/cli_trials_x.txt";
  std::ofstream(inputs_path) << "A=[1]\n";
  const auto r = invoke({"trial", design_path_, "--input", "A=[1]",
                         "--inputs", inputs_path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("not both"), std::string::npos);
}

TEST_F(CliFiles, TrialMissingInputFails) {
  const auto r = invoke({"trial", design_path_});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("input store"), std::string::npos);
}

std::vector<std::string> with(std::vector<std::string> args,
                              std::initializer_list<std::string> more) {
  args.insert(args.end(), more);
  return args;
}

TEST_F(CliFiles, BatchOutputIsIdenticalForAnyJobs) {
  // --jobs spreads input evaluation, the runs and rendering; the bytes
  // and the exit code must not depend on it. A comment, a blank line and
  // a failing trial (zero pivot) sit in the middle of the file.
  const std::string inputs_path = testing::TempDir() + "/cli_jobs.txt";
  std::ofstream(inputs_path)
      << "A=[4,3,2,8,8,5,4,7,9]; b=[16,39,45]\n"
      << "# a comment\n"
      << "A=[4,3,2,8,8,5,4,7,9]; b=[32,78,90]\n"
      << "\n"
      << "A=[0,3,2,8,8,5,4,7,9]; b=[16,39,45]\n"
      << "A=[4,3,2,8,8,5,4,7,9]; b=[8, 19.5, 22.5]\n"
      << "  A = [4,3,2,8,8,5,4,7,9] ;b=[1.6e1, 39, 3^2*5]  \n";
  const std::vector<std::string> commands[] = {
      {"trial", design_path_, "--inputs", inputs_path},
      {"stream", design_path_, machine_path_, "--inputs", inputs_path}};
  for (const auto& command : commands) {
    const auto one = invoke(with(command, {"--jobs", "1"}));
    EXPECT_EQ(one.code, 1) << one.err;
    EXPECT_NE(one.out.find(" 5 of 5 ===\n"), std::string::npos) << one.out;
    EXPECT_NE(one.out.find("error[runtime]:"), std::string::npos);
    EXPECT_NE(one.out.find("x = [0.5, 1, 1.5]"), std::string::npos);
    for (const char* jobs : {"2", "4"}) {
      const auto r = invoke(with(command, {"--jobs", jobs}));
      EXPECT_EQ(r.code, one.code) << command[0] << " --jobs " << jobs;
      EXPECT_EQ(r.out, one.out) << command[0] << " --jobs " << jobs;
    }
  }
}

TEST_F(CliFiles, StreamQueueCapBeyondTheWindowAllocatesTheWindow) {
  // A queue never holds more packets than there are batches in flight,
  // so the largest --queue-cap builds rings of the window's size (it
  // once asked for INT_MAX packets per queue and died of bad_alloc) and
  // prints what --queue-cap 8 prints.
  const std::string inputs_path = testing::TempDir() + "/cli_cap.txt";
  std::ofstream(inputs_path) << "A=[4,3,2,8,8,5,4,7,9]; b=[16,39,45]\n"
                             << "A=[4,3,2,8,8,5,4,7,9]; b=[32,78,90]\n";
  const std::vector<std::string> stream = {
      "stream", design_path_, machine_path_, "--inputs", inputs_path,
      "--jobs", "2"};
  const auto eight = invoke(with(stream, {"--queue-cap", "8"}));
  const auto widest = invoke(with(stream, {"--queue-cap", "2147483647"}));
  EXPECT_EQ(eight.code, 0) << eight.err;
  EXPECT_EQ(widest.code, 0) << widest.err;
  EXPECT_EQ(widest.out, eight.out);
  EXPECT_EQ(widest.err.find("2147483647"), std::string::npos) << widest.err;
}

TEST_F(CliFiles, InputErrorsNameTheFileLineAndColumn) {
  // Parse, name and runtime errors in an expression on line 3 are
  // positioned at that line and at their column within it.
  struct Case {
    std::string line;
    std::string kind;
    std::string at;  ///< the text the error's column points to
  };
  const Case cases[] = {
      {"A=[4,3,2,8,8,5,4,7,9]; b=[16,, 45]", "parse", ", 45]"},
      {"A=[4,3,2,8,8,5,4,7,9];  b = nope", "name", "nope"},
      {"A=[4,3,2,8,8,5,4,7,9]; b=[16,39,45][7]", "runtime", "7]"},
  };
  const std::string inputs_path = testing::TempDir() + "/cli_bad_line.txt";
  for (const Case& c : cases) {
    std::ofstream(inputs_path) << "A=[4,3,2,8,8,5,4,7,9]; b=[16,39,45]\n"
                               << "# line 2\n"
                               << c.line << "\n"
                               << "A=[4,3,2,8,8,5,4,7,9]; b=[16,39,45]\n";
    const std::string want =
        c.kind + " error at 3:" + std::to_string(c.line.rfind(c.at) + 1) +
        ": `" + inputs_path + "`: ";
    for (const char* jobs : {"1", "4"}) {
      const auto r = invoke(
          {"trial", design_path_, "--inputs", inputs_path, "--jobs", jobs});
      EXPECT_EQ(r.code, 1) << c.line;
      EXPECT_NE(r.err.find(want), std::string::npos)
          << "want `" << want << "` in " << r.err;
      EXPECT_TRUE(r.out.empty()) << r.out;
    }
  }
}

TEST_F(CliFiles, FirstBadInputLineWinsForAnyJobs) {
  const std::string inputs_path = testing::TempDir() + "/cli_two_bad.txt";
  std::ofstream(inputs_path) << "A=[4,3,2,8,8,5,4,7,9]; b=[16,39,45]\n"
                             << "A=[4,3,2,8,8,5,4,7,9]; b=[16,39,45]\n"
                             << "A=[4,3,2,8,8,5,4,7,9]; b=[16,,45]\n"
                             << "A=[4,3,2,8,8,5,4,7,9]; b=[16,39,45]\n"
                             << "A=[4,3,2,8,8,5,4,7,9]; b=oops\n";
  for (const char* command : {"trial", "stream"}) {
    for (const char* jobs : {"1", "2", "4"}) {
      std::vector<std::string> args{command, design_path_};
      if (std::string(command) == "stream") args.push_back(machine_path_);
      const auto r =
          invoke(with(args, {"--inputs", inputs_path, "--jobs", jobs}));
      EXPECT_EQ(r.code, 1);
      EXPECT_NE(r.err.find("parse error at 3:"), std::string::npos)
          << command << " --jobs " << jobs << ": " << r.err;
    }
  }
  // A later line without `=` does not outrank an earlier bad expression.
  std::ofstream(inputs_path) << "A=[4,3,2,8,8,5,4,7,9]; b=[16,39,45]\n"
                             << "A=[4,3,2,8,8,5,4,7,9]; b=[16,,45]\n"
                             << "A=[4,3,2,8,8,5,4,7,9]; nonsense\n";
  for (const char* jobs : {"1", "4"}) {
    const auto r = invoke(
        {"trial", design_path_, "--inputs", inputs_path, "--jobs", jobs});
    EXPECT_EQ(r.code, 1) << r.err;
    EXPECT_NE(r.err.find("parse error at 2:"), std::string::npos) << r.err;
  }
}

TEST_F(CliFiles, InputFlagErrorColumnsCountWithinTheExpression) {
  const auto r = invoke({"trial", design_path_, "--input",
                         "A=[4,3,2,8,8,5,4,7,9]", "--input", "b=[16,,45]"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("parse error at 1:5:"), std::string::npos) << r.err;
}

TEST(Cli, VmCallRecursionIsAPositionedLimit) {
  // Formula recursion times nested builtin calls once overflowed the VM's
  // stack; both nests now stop with a limit error on the routine's line.
  const std::pair<std::string, std::string> nests[] = {{"abs(", ")"},
                                                       {"sum([", "])"}};
  const std::string path = testing::TempDir() + "/cli_deep_calls.pitl";
  for (const auto& [open, close] : nests) {
    std::string body = "f(n - 1)";
    for (int i = 0; i < 95; ++i) body = open + body + close;
    std::ofstream(path) << "design deep_calls\n"
                        << "graph deep_calls\n"
                        << "  store r bytes=8\n"
                        << "  task deep work=1 out=r\n"
                        << "  pits {\n"
                        << "    formula f(n) := when(n <= 0, 0, " << body
                        << ")\n"
                        << "    r := f(255)\n"
                        << "  }\n"
                        << "  arc deep -> r var=r bytes=8\n";
    const auto r = invoke({"trial", path});
    EXPECT_EQ(r.code, 1) << open;
    EXPECT_NE(r.err.find("limit error at 1:"), std::string::npos) << r.err;
  }
}

TEST_F(CliFiles, Codegen) {
  const auto r = invoke({"codegen", design_path_, machine_path_, "--input",
                         "A=[4,3,2,8,8,5,4,7,9]", "--input", "b=[16,39,45]"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("int main()"), std::string::npos);
  EXPECT_NE(r.out.find("design lu3x3\n"), std::string::npos);
  EXPECT_NE(r.out.find("banger::cli::run_program("), std::string::npos);
}

TEST_F(CliFiles, ScheduleTraceFormat) {
  const auto r = invoke(
      {"schedule", design_path_, machine_path_, "--format", "trace"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.front(), '[');
  EXPECT_NE(r.out.find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(CliFiles, SimulateWritesTraceFile) {
  const std::string path = testing::TempDir() + "/cli_sim_trace.json";
  const auto r = invoke({"simulate", design_path_, machine_path_, "-o", path});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream in(path);
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first, "[");
}

TEST_F(CliFiles, LintCleanDesign) {
  const auto r = invoke({"lint", design_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("clean"), std::string::npos);
}

TEST(Cli, LintBrokenDesignExitsOne) {
  const std::string path = testing::TempDir() + "/cli_broken.pitl";
  std::ofstream(path) << "design broken\n"
                         "graph broken\n"
                         "  task t out=r\n"
                         "  pits {\n"
                         "    r := mystery\n"
                         "  }\n";
  const auto r = invoke({"lint", path});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("error:"), std::string::npos);
}

TEST_F(CliFiles, CompareListsAllHeuristics) {
  const auto r = invoke({"compare", design_path_, machine_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  for (const char* name : {"mh", "mcp", "etf", "dsh", "cluster", "serial"}) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
}

TEST_F(CliFiles, GrainSweep) {
  const auto r = invoke({"grain", design_path_, machine_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("min grain"), std::string::npos);
  EXPECT_NE(r.out.find("(none)"), std::string::npos);
}

TEST_F(CliFiles, ScheduleShowsUtilization) {
  const auto r = invoke({"schedule", design_path_, machine_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("processor utilisation"), std::string::npos);
}

TEST_F(CliFiles, ExplainReport) {
  const auto r = invoke({"explain", design_path_, machine_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("critical parent"), std::string::npos);
  EXPECT_NE(r.out.find("fan1"), std::string::npos);
  const auto one = invoke(
      {"explain", design_path_, machine_path_, "--task", "solve.back"});
  ASSERT_EQ(one.code, 0) << one.err;
  EXPECT_NE(one.out.find("solve.back"), std::string::npos);
}

TEST_F(CliFiles, ReportIsSelfContainedMarkdown) {
  const auto r = invoke({"report", design_path_, machine_path_, "--sizes",
                         "1,2,4"});
  ASSERT_EQ(r.code, 0) << r.err;
  for (const char* needle :
       {"# banger report: lu3x3", "## Design", "## Lint", "clean",
        "## Schedule", "## Speedup prediction", "## Heuristic comparison",
        "Gantt chart"}) {
    EXPECT_NE(r.out.find(needle), std::string::npos) << needle;
  }
}

TEST_F(CliFiles, SplitSweep) {
  const auto r = invoke({"split", design_path_, machine_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("split threshold"), std::string::npos);
  EXPECT_NE(r.out.find("(none)"), std::string::npos);
}

TEST_F(CliFiles, HtmlReport) {
  const auto r = invoke({"report", design_path_, machine_path_, "--format",
                         "html", "--sizes", "1,2,4"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.rfind("<!DOCTYPE html>", 0), 0u);
  for (const char* needle :
       {"<svg", "Heuristic comparison", "Speedup prediction", "lu3x3",
        "</html>"}) {
    EXPECT_NE(r.out.find(needle), std::string::npos) << needle;
  }
  // Gantt SVG plus speedup SVG.
  std::size_t svgs = 0;
  for (auto pos = r.out.find("<svg"); pos != std::string::npos;
       pos = r.out.find("<svg", pos + 1)) {
    ++svgs;
  }
  EXPECT_EQ(svgs, 2u);
}

TEST_F(CliFiles, BadOptionIsUsageError) {
  const auto r = invoke({"info", design_path_, "--bogus"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST_F(CliFiles, RetiredEngineOptionIsUsageError) {
  // The VM is the only PITS engine; the option that once chose between
  // it and the tree-walker is an unknown option like any other.
  const auto r = invoke({"trial", design_path_, "--pits-engine", "vm"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown option `--pits-engine`"), std::string::npos)
      << r.err;
}

TEST_F(CliFiles, BadInputSyntax) {
  const auto r = invoke({"trial", design_path_, "--input", "no_equals"});
  EXPECT_EQ(r.code, 2);
}

TEST(Cli, ServeFlagValidationNamesFlagAndValue) {
  struct Case {
    std::vector<std::string> args;
    const char* flag;
    const char* value;
  };
  const Case cases[] = {
      {{"serve", "--port", "70000"}, "--port", "70000"},
      {{"serve", "--port", "abc"}, "--port", "abc"},
      {{"serve", "--max-inflight", "0"}, "--max-inflight", "0"},
      {{"serve", "--deadline-ms", "-1"}, "--deadline-ms", "-1"},
      {{"serve", "--cache-cap", "0"}, "--cache-cap", "0"},
  };
  for (const auto& c : cases) {
    const auto r = invoke(c.args);
    EXPECT_EQ(r.code, 2) << c.flag;
    EXPECT_NE(r.err.find(c.flag), std::string::npos) << r.err;
    EXPECT_NE(r.err.find(c.value), std::string::npos) << r.err;
  }
}

TEST(Cli, ServeOnceAnswersOneRequest) {
  std::istringstream in("{\"id\":1,\"op\":\"ping\"}\n");
  std::ostringstream out;
  std::ostringstream err;
  const int code = run({"serve", "--once"}, in, out, err);
  EXPECT_EQ(code, 0) << err.str();
  EXPECT_NE(out.str().find("\"output\":\"pong\""), std::string::npos)
      << out.str();
  EXPECT_EQ(out.str().back(), '\n');
}

TEST_F(CliFiles, ServeStdioStreamMatchesCli) {
  // End-to-end through the CLI entry point: a two-request stdio
  // session whose schedule response must carry the same bytes as the
  // one-shot `banger schedule` command.
  const auto one_shot = invoke({"schedule", design_path_, machine_path_});
  ASSERT_EQ(one_shot.code, 0) << one_shot.err;

  std::ifstream design(design_path_);
  std::stringstream design_text;
  design_text << design.rdbuf();
  std::ostringstream request;
  request << "{\"id\":1,\"op\":\"ping\"}\n"
          << "{\"id\":2,\"op\":\"schedule\",\"design\":";
  // Reuse the serve JSON writer for correct escaping.
  request << serve::Json::string(design_text.str()).dump()
          << ",\"machine\":"
          << serve::Json::string(
                 "machine cube4\n"
                 "topology hypercube dim=2\n"
                 "speed 1\n"
                 "message_startup 0.05\n"
                 "bandwidth 512\n")
                 .dump()
          << "}\n";
  std::istringstream in(request.str());
  std::ostringstream out;
  std::ostringstream err;
  const int code = run({"serve"}, in, out, err);
  EXPECT_EQ(code, 0) << err.str();
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("pong"), std::string::npos);
  ASSERT_TRUE(std::getline(lines, line));
  const serve::Json resp = serve::Json::parse(line);
  const serve::Json* output = resp.find("output");
  ASSERT_NE(output, nullptr) << line;
  EXPECT_EQ(output->as_string(), one_shot.out);
}

}  // namespace
}  // namespace banger::cli

// Differential testing: every corpus program must produce *identical*
// output through (a) the PITS VM (a sequential trial run) and (b) the
// generated C++ translated by codegen — the strongest guarantee the environment
// can give that "generate code" means what "trial run" showed.
//
// All corpus programs become tasks of one generated program, so the
// host compiler runs once for the whole suite.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "codegen/codegen.hpp"
#include "exec/executor.hpp"
#include "sched/heuristics.hpp"

namespace banger {
namespace {

struct CorpusEntry {
  const char* name;
  const char* body;  // must assign variable `o`
};

const CorpusEntry kCorpus[] = {
    {"arith", "o := (2 + 3) * 4 - 7 / 2 ^ 2"},
    {"precedence", "o := -2 ^ 2 + 3 mod 2"},
    {"compare", "o := (1 < 2) + (2 <= 2) + (3 > 4) + (4 >= 4) + (5 = 5) + "
                "(6 <> 6)"},
    {"logic", "o := (1 and 0) + (0 or 3) * 10 + (not 0) * 100"},
    {"short_circuit", "o := 0 and 1 / 0\no := o + (1 or 1 / 0)"},
    {"while_sum", "s := 0\ni := 1\nwhile i <= 50 do\n  s := s + i\n  i := i + "
                  "1\nend\no := s"},
    {"repeat_double", "o := 1\nrepeat 8 times\n  o := o * 2\nend"},
    {"for_step",
     "s := 0\nfor i := 10 to 0 step -2.5 do\n  s := s + i\nend\no := s"},
    {"if_chain", "x := 7\nif x < 0 then\n  o := -1\nelsif x = 7 then\n  o := "
                 "42\nelse\n  o := 1\nend"},
    {"early_return", "o := 5\nif o > 1 then\n  return\nend\no := 99"},
    {"vectors", "v := [1, 2, 3] * 2 + [10, 10, 10]\nv[1] := -v[1]\no := v"},
    {"broadcast", "o := 10 - [1, 2, 3] ^ 2"},
    {"vector_fns",
     "v := sort(reverse(concat(range(0, 4), [9, 7])))\no := append(slice(v, "
     "1, 5), sum(v))"},
    {"stats", "v := [2, 4, 4, 4, 5, 5, 7, 9]\no := [mean(v), stddev(v), "
              "minv(v), maxv(v), norm([3, 4])]"},
    {"trig", "o := [sin(pi / 6), cos(pi / 3), tan(pi / 4), deg(pi), "
             "rad(180)]"},
    {"explog", "o := [exp(1), ln(e), log10(100), log2(8), sqrt(2), cbrt(27), "
               "hypot(3, 4)]"},
    {"rounding", "o := [floor(2.7), ceil(2.1), round(2.5), trunc(-2.7), "
                 "frac(2.75), sign(-3), abs(-8)]"},
    {"minmax", "o := [min(3, 1, 2), max(4, 9, 2), clamp(5, 0, 3), fact(6), "
               "ncr(6, 2)]"},
    {"strings", "s := \"he\" + \"llo\"\no := len(s) + (s = \"hello\") * 10"},
    {"escapes",
     "s := \"a\\\"b\" + \"c\\\\d\" + \"e\\nf\"\no := len(s) + (s > \"a\")"},
    {"formulas", "formula sq(x) := x * x\nformula hyp(a, b) := sqrt(sq(a) + "
                 "sq(b))\no := hyp(5, 12)"},
    {"recursion", "formula fact2(n) := when(n <= 1, 1, n * fact2(n - 1))\n"
                  "o := fact2(9)"},
    {"when_vectors", "o := when(len([1, 2]) = 2, [1, 1] + 1, [0])"},
    {"rand_stream", "a := rand()\nb := rand()\no := [a, b, a < 1, b >= 0]"},
    {"nested_loops",
     "o := 0\nfor i := 1 to 5 do\n  for j := 1 to i do\n    o := o + i * "
     "j\n  end\nend"},
    {"indexed_state",
     "v := zeros(5)\nfor i := 0 to 4 do\n  v[i] := i * i\nend\no := v"},
};

/// Builds one flattened program with a task per corpus entry.
graph::FlattenResult corpus_flat() {
  graph::FlattenResult flat;
  int index = 0;
  for (const CorpusEntry& entry : kCorpus) {
    graph::Task t;
    t.name = entry.name;
    t.work = 1;
    const std::string out_var = "o" + std::to_string(index);
    // Rename `o` to a unique output variable per task.
    std::string body = entry.body;
    std::string renamed;
    for (std::size_t i = 0; i < body.size(); ++i) {
      const bool is_o =
          body[i] == 'o' &&
          (i == 0 || !(std::isalnum(static_cast<unsigned char>(body[i - 1])) ||
                       body[i - 1] == '_')) &&
          (i + 1 >= body.size() ||
           !(std::isalnum(static_cast<unsigned char>(body[i + 1])) ||
             body[i + 1] == '_'));
      renamed += is_o ? out_var : std::string(1, body[i]);
    }
    t.pits = renamed + "\n";
    t.outputs = {out_var};
    const graph::TaskId id = flat.graph.add_task(std::move(t));

    graph::FlatStore store;
    store.name = out_var;
    store.var = out_var;
    store.writers = {id};
    flat.stores.push_back(store);
    ++index;
  }
  return flat;
}

TEST(Differential, InterpreterVsGeneratedCpp) {
  if (std::system("c++ --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no host compiler";
  }
  auto flat = corpus_flat();
  machine::MachineParams p;
  p.processor_speed = 1.0;
  machine::Machine m(machine::Topology::fully_connected(2), p);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);

  // (a) interpreter, via the executor.
  const auto interp = exec::run_sequential(flat, {});
  ASSERT_EQ(interp.outputs.size(), std::size(kCorpus));

  // (b) generated program.
  const std::string src = codegen::generate_cpp(flat, schedule, {});
  const std::string dir = testing::TempDir();
  std::ofstream(dir + "/diff_gen.cpp") << src;
  ASSERT_EQ(std::system(("c++ -std=c++17 -O1 -pthread -o " + dir +
                         "/diff_gen " + dir + "/diff_gen.cpp 2> " + dir +
                         "/diff_gen.log")
                            .c_str()),
            0)
      << [&] {
           std::ifstream log(dir + "/diff_gen.log");
           std::ostringstream all;
           all << log.rdbuf();
           return all.str();
         }();
  ASSERT_EQ(
      std::system((dir + "/diff_gen > " + dir + "/diff_gen.out").c_str()), 0);

  // Parse "var = value" lines.
  std::map<std::string, std::string> generated;
  std::ifstream out(dir + "/diff_gen.out");
  std::string line;
  while (std::getline(out, line)) {
    const auto eq = line.find(" = ");
    if (eq != std::string::npos) {
      generated[line.substr(0, eq)] = line.substr(eq + 3);
    }
  }

  int index = 0;
  for (const CorpusEntry& entry : kCorpus) {
    const std::string var = "o" + std::to_string(index++);
    ASSERT_TRUE(interp.outputs.contains(var)) << entry.name;
    ASSERT_TRUE(generated.contains(var)) << entry.name;
    EXPECT_EQ(generated.at(var), interp.outputs.at(var).to_display())
        << "corpus program `" << entry.name << "` diverged";
  }
}

TEST(Differential, CorpusRunsUnderEverySchedulerIdentically) {
  auto flat = corpus_flat();
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = 0.01;
  machine::Machine m(machine::Topology::hypercube(2), p);
  const auto reference = exec::run_sequential(flat, {});
  for (const char* name : {"mh", "mcp", "dsh", "cluster", "roundrobin"}) {
    const auto schedule = sched::make_scheduler(name)->run(flat.graph, m);
    exec::Executor executor(flat, m);
    const auto result = executor.run(schedule, {});
    for (const auto& [var, value] : reference.outputs) {
      EXPECT_EQ(result.outputs.at(var), value) << name << " " << var;
    }
  }
}

}  // namespace
}  // namespace banger

// Writes the cases of the codegen differential. For each case named on
// the command line it writes, into the output directory:
//   <case>.pitl, <case>.machine  the design and the target machine;
//   <case>.args                  the rest of the `banger run` command
//                                line (scheduler, inputs), one a line;
//   <case>.cpp                   what `banger codegen` writes for them.
// The build compiles every <case>.cpp into a program with its own
// compiler and flags, and codegen_test runs each program beside
// `banger run` on the same files.
//
// Usage: codegen_fixtures <source dir> <output dir> <case>...
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "graph/builder.hpp"
#include "graph/serialize.hpp"
#include "machine/serialize.hpp"
#include "pits_corpus.hpp"
#include "program_gen.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"
#include "workloads/designs.hpp"
#include "workloads/lu.hpp"

namespace {

using namespace banger;

struct Case {
  std::string pitl;
  std::string machine;
  std::vector<std::string> args;
};

std::string machine_text(machine::Topology topology, double message_startup,
                         double bandwidth = 1e6) {
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = message_startup;
  p.bytes_per_second = bandwidth;
  return machine::to_text(machine::Machine(std::move(topology), p));
}

const std::vector<std::string> kLuInputs = {
    "--input", "A=[4, 3, 2, 8, 8, 5, 4, 7, 9]", "--input", "b=[16, 39, 45]"};

/// Tasks that print, one of them text holding the closing sequences of
/// the raw strings a program embeds its texts in, and a result that
/// shows every bit of the input x = 1/3.
graph::Design print_design() {
  return graph::DesignBuilder("printing")
      .store("x")
      .store("report")
      .task("left", "print(\"left sees\", x)\na := x + 1\n")
      .task("right",
            "print(\"right: (\", \")\", \"closing )pitl\")\nb := x * 2\n")
      .task("combine",
            "print(\"sum\", a + b)\n"
            "report := [a, b, (x - 0.3333333333) * 1e12]\n")
      .build();
}

/// The differential corpus (pits_corpus.hpp), a task per program.
graph::Design corpus_design() {
  graph::DesignBuilder b("corpus");
  int index = 0;
  for (const CorpusEntry& entry : kCorpus) {
    const std::string out = "o" + std::to_string(index++);
    b.store(out).task(entry.name, corpus_routine(entry, out), 1.0, {},
                      {out});
  }
  return b.build();
}

/// `count` random PITS programs (tests/program_gen.hpp) from seed
/// `first` on, a task each; task k reports its final state as `f<k>`.
graph::Design fuzz_design(const std::string& name, std::uint64_t first,
                          int count) {
  graph::DesignBuilder b(name);
  for (int k = 0; k < count; ++k) {
    const std::uint64_t seed = first + static_cast<std::uint64_t>(k);
    pits::ProgramGen gen(seed ^ 0xc0deull);
    const std::string out = "f" + std::to_string(seed);
    b.store(out).task("p" + std::to_string(seed),
                      gen.program(6) + out +
                          " := concat([v0, v1, v2, v3], w)\n",
                      1.0 + k % 4, {}, {out});
  }
  return b.build();
}

Case make_case(const std::string& name, const std::string& source) {
  auto sample = [&](const std::string& file) {
    return util::read_file(source + "/samples/" + file);
  };
  const std::string sqrt_fanout = sample("sqrt_fanout.pitl");
  const std::string lan = sample("lan_star5.machine");
  if (name == "sqrt_fanout") {
    return {sqrt_fanout, lan,
            {"--input", "xs=[4, 9, 16, 25, 36, 49, 64, 81, 100, 2]"}};
  }
  if (name == "sqrt_negative") {
    return {sqrt_fanout, lan, {"--input", "xs=[1,4,9,16,-25,36,49,64]"}};
  }
  if (name == "sqrt_missing") {
    return {sqrt_fanout, lan, {"--scheduler", "etf"}};
  }
  if (name == "absint_showcase") {
    return {sample("analysis/absint_showcase.pitl"),
            sample("mixed_mesh6.machine"), {"--input", "xs=[1, 2, 3]"}};
  }
  if (name == "clean_loops") {
    return {sample("analysis/clean_loops.pitl"),
            sample("ipsc_hypercube8.machine"),
            {"--scheduler", "etf", "--input", "xs=[3, 1, 4, 1, 5]"}};
  }
  if (name == "shape_mismatch") {
    return {sample("analysis/shape_mismatch.pitl"), lan,
            {"--scheduler", "dls", "--input", "xs=[2, 7]"}};
  }
  if (name == "lu_mh") {
    return {graph::to_pitl(workloads::lu3x3_design()),
            machine_text(machine::Topology::fully_connected(3), 0.01),
            kLuInputs};
  }
  if (name == "lu_dsh") {
    // A costly message start-up pushes DSH to duplicate tasks.
    std::vector<std::string> args = {"--scheduler", "dsh"};
    args.insert(args.end(), kLuInputs.begin(), kLuInputs.end());
    return {graph::to_pitl(workloads::lu3x3_design()),
            machine_text(machine::Topology::fully_connected(3), 5.0), args};
  }
  if (name == "heat") {
    std::string rod = "rod=[";
    for (int i = 0; i < 24; ++i) {
      if (i > 0) rod += ", ";
      rod += util::format_double(100.0 * std::sin(i + 1.0), 17);
    }
    return {graph::to_pitl(workloads::heat_design(3, 6, 8)),
            machine_text(machine::Topology::hypercube(2), 0.05, 1e5),
            {"--input", rod + "]"}};
  }
  if (name == "montecarlo") {
    return {graph::to_pitl(workloads::montecarlo_design(3, 400)),
            machine_text(machine::Topology::ring(3), 0.01),
            {"--scheduler", "mcp"}};
  }
  if (name == "print") {
    return {graph::to_pitl(print_design()),
            machine_text(machine::Topology::fully_connected(2), 0.01),
            {"--input", "x=1/3"}};
  }
  if (name == "corpus") {
    return {graph::to_pitl(corpus_design()),
            machine_text(machine::Topology::hypercube(2), 0.01), {}};
  }
  if (name == "fuzz_a" || name == "fuzz_b") {
    const std::uint64_t first = name == "fuzz_a" ? 1 : 25;
    return {graph::to_pitl(fuzz_design(name, first, 24)),
            machine_text(machine::Topology::fully_connected(4), 0.01),
            {"--scheduler", name == "fuzz_a" ? "etf" : "cluster"}};
  }
  if (name == "div_zero") {
    // Written by hand: the blank lines in `t` must keep the error's line.
    return {"# a division by zero after blank routine lines\n"
            "design div_zero\n"
            "graph div_zero\n"
            "  store a\n  store r\n  store s\n"
            "  task fine in=a out=s\n"
            "  pits {\n    s := a * 2\n  }\n"
            "  task t in=a out=r\n"
            "  pits {\n\n    d := a - a\n\n    r := a / d\n  }\n"
            "  arc a -> fine var=a\n  arc a -> t var=a\n"
            "  arc fine -> s var=s\n  arc t -> r var=r\n",
            machine_text(machine::Topology::fully_connected(2), 0.01),
            {"--input", "a=3"}};
  }
  if (name == "exotic") {
    // CRLF line ends, a NUL inside a PITS string and inputs that are not
    // finite: values a raw string or a decimal literal cannot hold as
    // they are.
    using namespace std::string_literals;
    return {"design exotic\r\ngraph exotic\r\n"
            "  store x\r\n  store r\r\n  store y\r\n"
            "  task t out=r\r\n  pits {\r\n    s := \"a\0b\"\r\n"
            "    r := [len(s), s = \"a\"]\r\n  }\r\n"
            "  task u in=x out=y\r\n  pits {\r\n    y := x\r\n  }\r\n"
            "  arc x -> u var=x\r\n  arc t -> r var=r\r\n"
            "  arc u -> y var=y\r\n"s,
            machine_text(machine::Topology::fully_connected(2), 0.01),
            {"--input", "x=[10^400, -(10^400), 10^400 - 10^400]"}};
  }
  if (name == "index_range") {
    return {graph::to_pitl(graph::DesignBuilder("index_range")
                               .store("v")
                               .store("r")
                               .task("t", "i := len(v) + 4\nr := v[i]\n")
                               .build()),
            machine_text(machine::Topology::fully_connected(2), 0.01),
            {"--input", "v=[1, 2, 3]"}};
  }
  fail(ErrorCode::Usage, "no codegen case `" + name + "`");
}

void write(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) fail(ErrorCode::Io, "cannot write `" + path + "`");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: codegen_fixtures <source dir> <output dir> "
                 "<case>...\n";
    return 2;
  }
  const std::string source = argv[1];
  const std::string dir = argv[2];
  try {
    for (int i = 3; i < argc; ++i) {
      const std::string name = argv[i];
      const Case c = make_case(name, source);
      const std::string base = dir + "/" + name;
      write(base + ".pitl", c.pitl);
      write(base + ".machine", c.machine);
      std::string args;
      for (const std::string& a : c.args) args += a + "\n";
      write(base + ".args", args);

      std::vector<std::string> command = {"codegen", base + ".pitl",
                                          base + ".machine"};
      command.insert(command.end(), c.args.begin(), c.args.end());
      command.insert(command.end(), {"-o", base + ".cpp"});
      std::ostringstream out;
      if (cli::run(command, out, std::cerr) != 0) return 1;
    }
  } catch (const Error& e) {
    std::cerr << "codegen_fixtures: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

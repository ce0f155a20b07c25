// Differential testing of the PITS bytecode VM against the tree-walking
// reference interpreter (tests/reference_walker.hpp). The two must be
// observably identical:
// same final environments, same print/trace transcripts, same error
// codes, messages, and positions, same step-limit aborts — for random
// programs, for the shipped design corpus, and under concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analyze/absint.hpp"
#include "calc/panel.hpp"
#include "graph/serialize.hpp"
#include "obs/trace.hpp"
#include "pits/bytecode.hpp"
#include "pits/interp.hpp"
#include "reference_walker.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads/designs.hpp"
#include "workloads/lu.hpp"

namespace banger::pits {
namespace {

/// Everything observable about one execution.
struct Outcome {
  bool ok = false;
  std::string error;       ///< full what() — code, message, position
  std::string env;         ///< "name=value;" for every binding
  std::string transcript;  ///< print() output
  std::string trace;       ///< single-step trace lines
};

/// Who runs the routine: the reference walker, or the product's VM.
enum class Runner : std::uint8_t { Walk, Vm };

Outcome run_with(const std::string& src, Runner runner, const Env& inputs,
                 std::uint64_t step_limit = 200000, bool with_facts = false) {
  Outcome out;
  std::ostringstream transcript;
  std::ostringstream trace;
  ExecOptions opts;
  opts.step_limit = step_limit;
  opts.out = &transcript;
  opts.trace = &trace;
  Env env = inputs;
  try {
    const Program program = Program::parse(src);
    if (with_facts) analyze::precompile_optimized(program);
    if (runner == Runner::Walk) {
      reference::walk(program, env, opts);
    } else {
      program.execute(env, opts);
    }
    out.ok = true;
  } catch (const Error& e) {
    out.ok = false;
    out.error = e.what();
  }
  for (const auto& [name, value] : env) {
    out.env += name + "=" + value.to_display() + ";";
  }
  out.transcript = transcript.str();
  out.trace = trace.str();
  return out;
}

/// EXPECT all three executions observe exactly the same thing: the
/// tree-walker (reference), the plain VM, and the VM compiled with
/// abstract-interpretation facts (check elision + tick batching). Any
/// unsound analysis fact shows up here as a three-way divergence.
void expect_identical(const std::string& src, const Env& inputs = {},
                      std::uint64_t step_limit = 200000) {
  const Outcome walk = run_with(src, Runner::Walk, inputs, step_limit);
  const Outcome vm = run_with(src, Runner::Vm, inputs, step_limit);
  const Outcome elided =
      run_with(src, Runner::Vm, inputs, step_limit, /*with_facts=*/true);
  for (const Outcome* got : {&vm, &elided}) {
    const char* label = got == &vm ? "vm" : "vm+facts";
    EXPECT_EQ(got->ok, walk.ok) << label << ": " << src;
    EXPECT_EQ(got->error, walk.error) << label << ": " << src;
    EXPECT_EQ(got->env, walk.env) << label << ": " << src;
    EXPECT_EQ(got->transcript, walk.transcript) << label << ": " << src;
    EXPECT_EQ(got->trace, walk.trace) << label << ": " << src;
  }
}

// ---------------------------------------------------------------------------
// Hand-picked semantics: each case exercises a VM path whose error text,
// evaluation order, or value flow could plausibly drift from the walker.

TEST(PitsVmDifferential, CoreSemantics) {
  const char* cases[] = {
      // Slot read/write, self-referential assignment, constant shadowing.
      "x := 1\nx := x + x\ny := x * x\n",
      "pi := 10\narea := pi * 4\n",
      "e := 0\nwhile e < 3 do\n  e := e + 1\nend\n",
      // Vectors: literals, indexing, indexed assignment, broadcasting.
      "v := [1, 2, 3]\nv[1] := v[0] + v[2]\ns := sum(v)\n",
      "v := [1, 2, 3]\nw := v * 2 + [10, 20, 30]\n",
      "v := zeros(4)\nfor i := 0 to 3 do\n  v[i] := i * i\nend\n",
      // Strings: concat, print, display.
      "s := \"a\" + \"b\"\nprint(s)\nprint(1 + 1)\n",
      // Formulas: nesting, recursion, duplicate params, attribution.
      "formula sq(x) := x * x\nformula hy(a, b) := sqrt(sq(a) + sq(b))\n"
      "h := hy(3, 4)\n",
      "formula fib(n) := when(n <= 1, n, fib(n - 1) + fib(n - 2))\n"
      "f := fib(10)\n",
      "formula bad(x) := 1 / (x - x)\ny := bad(3)\n",
      // when: lazy arms (only the selected side runs).
      "x := 0\ny := when(1 < 2, 5, 1 / x)\n",
      "x := 0\ny := when(1 > 2, 1 / x, 7)\n",
      // rand() stream must be reproduced exactly by both engines.
      "a := rand()\nb := rand()\nrepeat 3 times\n  c := rand()\nend\n",
      // Errors: undefined names, bad index, type mismatch, div by zero.
      "y := nope + 1\n",
      "v := [1, 2]\nx := v[5]\n",
      "v := [1, 2]\nv[0.5] := 1\n",
      "x := 3\nx[0] := 1\n",
      "y := 1 / 0\n",
      "y := 5 mod 0\n",
      "y := (0 - 2) ^ 0.5\n",
      "y := \"a\" * 2\n",
      "y := [1] < [2]\n",
      // Builtin arity + error wrapping.
      "y := sqrt()\n",
      "y := sqrt(1, 2)\n",
      "y := unknown_fn(1)\n",
      "y := sqrt(0 - 1)\n",
      // for loops: fractional steps, negative steps, zero step error.
      "s := 0\nfor x := 0 to 1 step 0.25 do\n  s := s + x\nend\n",
      "s := 0\nfor x := 5 to 1 step 0 - 1 do\n  s := s + x\nend\n",
      "for x := 0 to 1 step 0 do\n  y := 1\nend\n",
      // repeat: non-integer and negative counts are errors.
      "repeat 2.5 times\n  x := 1\nend\n",
      "repeat 0 - 1 times\n  x := 1\nend\n",
      // return stops the routine mid-way.
      "x := 1\nif x > 0 then\n  return\nend\nx := 99\n",
  };
  for (const char* src : cases) expect_identical(src);
}

TEST(PitsVmDifferential, ElisionCandidates) {
  // Programs where the abstract interpreter proves enough to elide
  // checks or batch ticks — and near-misses where it must not. The
  // facts-compiled VM has to stay byte-identical either way.
  const char* cases[] = {
      // Proven in-bounds loop over a known-length vector (kNoCheck).
      "v := zeros(4)\nfor i := 0 to 3 do\n  v[i] := v[i] + i\nend\ns := "
      "sum(v)\n",
      // Near miss: the last iteration is out of range; the error text
      // and position must match the walker exactly.
      "v := zeros(3)\nfor i := 0 to 3 do\n  v[i] := 1\nend\n",
      // Proven-bound reads (CheckVar elision) across branches.
      "x := 1\nif x > 0 then\n  y := x\nelse\n  y := 0 - x\nend\nz := y\n",
      // Straight-line scalar chain: fully tick-batched.
      "a := 1\nb := a + 1\nc := b * 2\nd := c - a\ne := d / 2\n",
      // A user formula shadowing a builtin: calls must not be treated
      // as the builtin model.
      "formula sqrt(x) := x + 100\ny := sqrt(4)\n",
      // Formula defined conditionally: registration is path-dependent.
      "x := 1\nif x > 0 then\n  formula g(a) := a * 2\nend\ny := g(3)\n",
      // NaN flows through ordering (NaN orders as equal in compare).
      "x := ln(0 - 1)\nif x <= 5 then\n  y := 1\nelse\n  y := 2\nend\n",
      "x := ln(0 - 1)\nif x < 5 then\n  y := 1\nelse\n  y := 2\nend\n",
      // Indexed store with non-integer index must keep its check.
      "v := zeros(4)\ni := 1.5\nv[i * 2] := 7\n",
      // repeat over a proven count batches; error counts must not.
      "s := 0\nrepeat 5 times\n  s := s + 1\nend\n",
      "n := 2.5\nrepeat n times\n  s := 1\nend\n",
      // while with a proven-true condition plus return still terminates.
      "s := 0\nwhile 1 do\n  s := s + 1\n  if s > 3 then\n    return\n  "
      "end\nend\n",
  };
  for (const char* src : cases) expect_identical(src);
}

TEST(PitsVmDifferential, InputsFlowThrough) {
  Env inputs;
  inputs["a"] = 3.0;
  inputs["v"] = Vector{1.0, 2.0, 3.0};
  inputs["label"] = Str("run");
  expect_identical("b := a * 2\nw := v + 1\nprint(label)\n", inputs);
  // An input may shadow a constant: the VM must not fold `pi` here.
  Env shadow;
  shadow["pi"] = 100.0;
  expect_identical("x := pi + 1\n", shadow);
}

// Routines whose names stress the parser's symbol ids: long names,
// constants shadowed by variables and inputs, formula parameters that
// share a task variable's name, a for variable read after its loop,
// names that differ only in case. Each also pins the value the engines
// have always produced.
TEST(PitsVmDifferential, SymbolEdgeCases) {
  struct Case {
    const char* src;
    Env inputs;
    const char* name;
    Value want;
  };
  const std::string long_a(24, 'a');
  const std::string long_b = long_a + "_b";
  const std::string long_src = long_a + " := input_with_a_long_name + 1\n" +
                               long_b + " := " + long_a + " * 2\n";
  const Case cases[] = {
      {long_src.c_str(), {{"input_with_a_long_name", 4.0}}, long_b.c_str(),
       10.0},
      {"area := pi * r * r\ne := e + 1\n", {{"r", 2.0}, {"pi", 3.0}},
       "area", 12.0},
      {"e := e + 1\ny := e * golden\n", {}, "y",
       (2.71828182845904523536 + 1) * 1.61803398874989484820},
      {"x := 5\nformula f(x, y) := x * 2 + y\ny := f(3, x) + x\n", {}, "y",
       16.0},
      {"formula g(pi) := pi + 1\nz := g(2) + pi\n", {}, "z",
       3 + 3.14159265358979323846},
      {"s := 0\nfor i := 1 to n do\n  s := s + i\nend\ny := i + s\n",
       {{"n", 4.0}}, "y", 14.0},
      {"Abc := 1\nabc := 2\nABC := Abc - abc\n", {}, "ABC", -1.0},
  };
  for (const Case& c : cases) {
    expect_identical(c.src, c.inputs);
    Env env = c.inputs;
    Program::parse(c.src).execute(env);
    EXPECT_EQ(env.at(c.name), c.want) << c.src;
  }
  // A for variable read after a loop that never ran is still unbound.
  expect_identical("for i := 1 to 0 do\n  s := i\nend\ny := i\n");
}

// Routines past 65,535 of each operand kind the ISA indexes: each gets a
// chunk, and the VM (with and without facts) matches the walker.
constexpr std::uint32_t kPast16Bits = 0xFFFF;

// More named slots (and names) than 16 bits address.
TEST(PitsVmDifferential, SeventyThousandNamesRunOnTheVm) {
  std::string src;
  for (int k = 0; k < 70000; ++k) {
    src += "v" + std::to_string(k) + " := " + std::to_string(k) + "\n";
  }
  src += "total := v0 + v69999\n";
  const Program program = Program::parse(src);
  const auto chunk = program.compiled_chunk();
  ASSERT_NE(chunk, nullptr);
  EXPECT_GT(chunk->vars.size(), kPast16Bits);
  EXPECT_GT(chunk->names.size(), kPast16Bits);
  Env env;
  program.execute(env);
  EXPECT_EQ(env.size(), 70001u);
  EXPECT_EQ(env.at("total"), Value(69999.0));
  expect_identical(src);
}

// More distinct constants than 16 bits address, read by fused AddK
// instructions whose pool index is past 65,535.
TEST(PitsVmDifferential, SeventyThousandConstantsRunOnTheVm) {
  std::string src;
  for (int k = 0; k < 70000; ++k) {
    src += "s := s + " + std::to_string(k) + ".5\n";
  }
  const Program program = Program::parse(src);
  const auto chunk = program.compiled_chunk();
  ASSERT_NE(chunk, nullptr);
  EXPECT_GT(chunk->consts.size(), kPast16Bits);
  std::uint32_t widest = 0;
  for (const bc::Instr& in : chunk->main.ins) {
    if (in.op == bc::Op::AddK) widest = std::max(widest, in.c);
  }
  EXPECT_GT(widest, kPast16Bits);
  const Env inputs{{"s", Value(0.25)}};
  Env env = inputs;
  program.execute(env);
  double want = 0.25;
  for (int k = 0; k < 70000; ++k) want += k + 0.5;
  EXPECT_EQ(env.at("s"), Value(want));
  expect_identical(src, inputs);
}

// More registers and argument ranges than 16 bits address: one call
// with 70,000 arguments, each evaluated into its own register.
TEST(PitsVmDifferential, SeventyThousandArgumentsRunOnTheVm) {
  std::string src = "y := max(";
  Env inputs;
  for (int k = 0; k < 70000; ++k) {
    if (k > 0) src += ", ";
    src += "x" + std::to_string(k);
    const double x = static_cast<double>((k * 7919) % 70001);
    inputs["x" + std::to_string(k)] = Value(x);
  }
  src += ")\n";
  const Program program = Program::parse(src);
  const auto chunk = program.compiled_chunk();
  ASSERT_NE(chunk, nullptr);
  EXPECT_GT(chunk->main.num_regs, kPast16Bits);
  ASSERT_EQ(chunk->main.sites.size(), 1u);
  const auto& args = chunk->main.sites.front().args;
  ASSERT_EQ(args.size(), 70000u);
  EXPECT_GT(args.back().reg, kPast16Bits);
  Env env = inputs;
  program.execute(env);
  double want = 0;
  for (const auto& [name, value] : inputs) {
    want = std::max(want, value.as_scalar());
  }
  EXPECT_EQ(env.at("y"), Value(want));
  expect_identical(src, inputs);
}

TEST(PitsVmDifferential, StepLimitAbortsIdentically) {
  // Loop-heavy program; sweep tight limits so the abort lands on every
  // kind of tick site (statement, loop back-edge, formula call).
  const std::string src =
      "formula inc(x) := x + 1\n"
      "s := 0\n"
      "for i := 1 to 6 do\n"
      "  repeat 3 times\n"
      "    s := inc(s)\n"
      "  end\n"
      "end\n"
      "while s > 0 do\n"
      "  s := s - 1\n"
      "end\n";
  for (std::uint64_t limit = 1; limit <= 120; ++limit) {
    expect_identical(src, {}, limit);
  }
}

// ---------------------------------------------------------------------------
// Randomized differential fuzzing. A richer generator than the
// robustness fuzzer: strings, vectors, builtins, formulas, print — every
// program is run on both engines and all observables compared.

class DiffGen {
 public:
  explicit DiffGen(std::uint64_t seed) : rng_(seed) {}

  std::string program(int statements) {
    std::string out =
        "v0 := 1\nv1 := 2.5\nv2 := -3\nv3 := 0.5\nw := [1, 2, 3, 4]\n"
        "formula fa(x) := x * 2 + 1\n"
        "formula fb(a, b) := when(a > b, a - b, b - a)\n";
    for (int i = 0; i < statements; ++i) out += statement(2);
    return out;
  }

 private:
  std::string scalar_expr(int depth) {
    if (depth <= 0 || rng_.chance(0.25)) {
      switch (rng_.next_below(5)) {
        case 0: return std::to_string(rng_.uniform_int(1, 9));
        case 1: return "v" + std::to_string(rng_.next_below(4));
        case 2: return "w[" + std::to_string(rng_.next_below(4)) + "]";
        case 3: return "pi";
        default: return "rand()";
      }
    }
    switch (rng_.next_below(10)) {
      case 0:
        return "(" + scalar_expr(depth - 1) + " + " + scalar_expr(depth - 1) +
               ")";
      case 1:
        return "(" + scalar_expr(depth - 1) + " * " + scalar_expr(depth - 1) +
               ")";
      case 2:
        // Division is sometimes by zero: a legal typed error, and both
        // engines must report it identically.
        return "(" + scalar_expr(depth - 1) + " / (" +
               scalar_expr(depth - 1) + " - 2))";
      case 3: return "abs(" + scalar_expr(depth - 1) + ")";
      case 4:
        return "min(" + scalar_expr(depth - 1) + ", " +
               scalar_expr(depth - 1) + ")";
      case 5:
        return "when(" + scalar_expr(depth - 1) + " > 0, " +
               scalar_expr(depth - 1) + ", " + scalar_expr(depth - 1) + ")";
      case 6: return "fa(" + scalar_expr(depth - 1) + ")";
      case 7:
        return "fb(" + scalar_expr(depth - 1) + ", " +
               scalar_expr(depth - 1) + ")";
      case 8: return "sum(w)";
      default:
        return "(" + scalar_expr(depth - 1) + " - " + scalar_expr(depth - 1) +
               ")";
    }
  }

  std::string statement(int depth) {
    switch (rng_.next_below(depth > 0 ? 9 : 3)) {
      case 0:
        return "v" + std::to_string(rng_.next_below(4)) + " := " +
               scalar_expr(2) + "\n";
      case 1:
        return "w[" + std::to_string(rng_.next_below(4)) + "] := " +
               scalar_expr(2) + "\n";
      case 2:
        return "print(" + scalar_expr(1) + ")\n";
      case 3: {
        std::string body;
        const int n = 1 + static_cast<int>(rng_.next_below(2));
        for (int i = 0; i < n; ++i) body += "  " + statement(depth - 1);
        return "if " + scalar_expr(1) + " > " + scalar_expr(1) + " then\n" +
               body + "end\n";
      }
      case 4: {
        std::string body = "  " + statement(depth - 1);
        return "repeat " + std::to_string(rng_.next_below(4)) + " times\n" +
               body + "end\n";
      }
      case 5: {
        std::string body = "  " + statement(depth - 1);
        return "for it := 0 to " + std::to_string(rng_.next_below(5)) +
               " do\n" + body + "end\n";
      }
      case 6:
        return "w := w " + std::string(rng_.chance(0.5) ? "+" : "*") + " " +
               scalar_expr(1) + "\n";
      case 7:
        return "msg := \"s\" + str(" + scalar_expr(1) + ")\n";
      default: {
        return "cnt := " + std::to_string(rng_.next_below(4)) +
               "\nwhile cnt > 0 do\n  cnt := cnt - 1\n  " +
               statement(depth - 1) + "end\n";
      }
    }
  }

  util::Rng rng_;
};

class PitsVmFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PitsVmFuzz, EnginesObservablyIdentical) {
  DiffGen gen(GetParam());
  expect_identical(gen.program(8));
}

TEST_P(PitsVmFuzz, EnginesIdenticalUnderTightStepLimits) {
  DiffGen gen(GetParam() ^ 0x11f7ull);
  const std::string src = gen.program(6);
  for (std::uint64_t limit : {1U, 3U, 10U, 31U, 100U}) {
    expect_identical(src, {}, limit);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PitsVmFuzz,
                         ::testing::Range<std::uint64_t>(1, 81));

// ---------------------------------------------------------------------------
// Shipped corpus: every PITS routine of every bundled design must behave
// identically on both engines, with scalar and with vector inputs.

void expect_corpus_identical(const graph::Design& design) {
  const auto flat = design.flatten();
  for (graph::TaskId t = 0; t < flat.graph.num_tasks(); ++t) {
    const graph::Task& task = flat.graph.task(t);
    if (task.pits.empty()) continue;
    Program program;
    ASSERT_NO_THROW(program = Program::parse(task.pits)) << task.name;
    Env scalars;
    Env vectors;
    double k = 2.0;
    for (const std::string& in : program.inputs()) {
      scalars[in] = k;
      vectors[in] = Vector{k, k + 1, k + 2};
      k += 0.5;
    }
    expect_identical(task.pits, scalars);
    expect_identical(task.pits, vectors);
  }
}

TEST(PitsVmCorpus, WorkloadDesigns) {
  expect_corpus_identical(workloads::lu3x3_design());
  expect_corpus_identical(workloads::montecarlo_design(3, 64));
  expect_corpus_identical(workloads::signal_pipeline_design(2));
  expect_corpus_identical(workloads::polyeval_design(3));
  expect_corpus_identical(workloads::heat_design(2, 3, 4, 0.1));
}

TEST(PitsVmCorpus, SampleDesigns) {
  namespace fs = std::filesystem;
  const fs::path samples = fs::path(BANGER_SOURCE_DIR) / "samples";
  for (const auto& entry : fs::directory_iterator(samples)) {
    if (entry.path().extension() != ".pitl") continue;
    expect_corpus_identical(graph::load_design(entry.path().string()));
  }
}

// ---------------------------------------------------------------------------
// Superinstruction fusion: the peephole pass is always on, so every
// differential test above already runs fused code — these tests pin that
// the fusion actually fires on the patterns it was built for, and that
// the fused programs stay observably identical to the walker.

std::size_t count_ops(const bc::Code& code, bc::Op lo, bc::Op hi) {
  std::size_t n = 0;
  for (const auto& instr : code.ins) {
    if (instr.op >= lo && instr.op <= hi) ++n;
  }
  return n;
}

TEST(PitsVmFusion, ConstOperandsCompileToKForms) {
  // x * 1.01 + 2: both constants are AddK/MulK operands rather than
  // LoadConst + Add/Mul pairs.
  const std::string src =
      "x := 1\n"
      "repeat 10 times\n"
      "  x := x * 1.01 + 2\n"
      "end\n";
  const Program program = Program::parse(src);
  const auto chunk = program.compiled_chunk();
  ASSERT_NE(chunk, nullptr);
  EXPECT_GT(chunk->fused, 0u);
  EXPECT_GT(count_ops(chunk->main, bc::Op::AddK, bc::Op::PowK), 0u);
  expect_identical(src);
}

TEST(PitsVmFusion, CompareBranchFusesInLoopHeads) {
  // `while i < 100` compiles to compare + JumpIfFalsy; the peephole
  // merges them into a single const-compare-branch.
  const std::string src =
      "i := 0\n"
      "s := 0\n"
      "while i < 100 do\n"
      "  s := s + i\n"
      "  i := i + 1\n"
      "end\n";
  const Program program = Program::parse(src);
  const auto chunk = program.compiled_chunk();
  ASSERT_NE(chunk, nullptr);
  EXPECT_GT(chunk->fused, 0u);
  EXPECT_GT(count_ops(chunk->main, bc::Op::LtBr, bc::Op::NeKBr), 0u);
  expect_identical(src);
}

TEST(PitsVmFusion, CorpusRoutinesFuse) {
  // Every LU task body should give the peephole something to merge;
  // the differential corpus test already proves the results agree.
  std::size_t total = 0;
  const auto flat = workloads::lu3x3_design().flatten();
  for (graph::TaskId t = 0; t < flat.graph.num_tasks(); ++t) {
    const graph::Task& task = flat.graph.task(t);
    if (task.pits.empty()) continue;
    const Program program = Program::parse(task.pits);
    const auto chunk = program.compiled_chunk();
    if (chunk != nullptr) total += chunk->fused;
  }
  EXPECT_GT(total, 0u);
}

TEST(PitsVmFusion, TraceAndErrorsSurviveFusion) {
  // kFinish epilogues must echo assignments in trace mode exactly as
  // the walker does, and faulting fused ops must keep the walker's
  // message and position.
  const char* cases[] = {
      "x := 2\ny := x + 1\nz := y * 3\n",
      "i := 0\nwhile i < 3 do\n  i := i + 1\nend\n",
      "x := 0\ny := 1 / (x + 0)\n",         // DivK by zero mid-fusion
      "v := [1, 2]\ni := 5\nx := v[i]\n",   // fused index feed
      "x := 1\ny := x mod 0\n",             // ModK error text
  };
  for (const char* src : cases) expect_identical(src);
}

// The folded and dropped checks, constant operands and per-arm
// FinishAssigns keep every error, its position and the trace. An index
// that prints, or reads an undefined name, shows whether a base was
// checked before its index ran, as the walker checks it.
TEST(PitsVmFusion, FoldedChecksKeepErrorsAndTraces) {
  const char* cases[] = {
      // IndexLoad checks its base at the check's token: a number and a
      // string, in a plain read and in a `when` arm, with the check
      // folded into the load (a variable index) and apart from it.
      "i := 0\nx := 3\ny := x[i]\n",
      "i := 0\ns := \"ab\"\ny := s[i]\n",
      "i := 0\nx := 3\ny := when(x > 1, x[i], 0)\n",
      "i := 0\ns := \"ab\"\ny := when(1, 0, s[i])\n",
      "x := 3\ny := x[0]\n",
      "s := \"ab\"\ny := s[print(1)]\n",
      "x := 3\ny := when(x > 1, x[0], 0)\n",
      "s := \"ab\"\ny := when(1, 0, s[nope])\n",
      // A base whose index is itself an index: the outer check stays
      // ahead of the inner load, which folds its own check, also when
      // both index the same base.
      "x := 3\nw := 5\ni := 0\ny := x[w[i]]\n",
      "v := 3\ni := 0\ny := v[v[i]]\n",
      "v := 3\ni := 0\ny := v[v[i] + 1]\n",
      // A base reassigned to a scalar after a read that passed its
      // check, directly, in one arm of an `if`, or on a later iteration
      // of a loop: its next read checks it again.
      "v := [1, 2]\na := v[0]\nv := 5\nb := v[print(1)]\n",
      "v := [1, 2]\na := v[0]\nif a > 0 then\n  v := 3\nend\n"
      "b := v[nope]\n",
      "v := [1, 2, 3]\ni := 0\nwhile i < 3 do\n  a := v[print(i)]\n"
      "  v := when(i > 0, 7, v)\n  i := i + 1\nend\n",
      "v := [1, 2, 3]\nb := v[0]\nfor i := 0 to 2 do\n  a := v[print(i)]\n"
      "  v := i\nend\n",
      // Repeated reads and an element store of one vector.
      "v := [1, 2, 3]\nw := v[0] + v[2]\nv[1] := w\nz := v[1]\n",
      // Indexed assignment: an unbound name, a materialized constant, a
      // number, a string (with the check folded into the store, then
      // apart from it), a fractional, negative or too-large index, a
      // string index, and a vector value.
      "i := 0\nw[i] := 1\n",
      "i := 0\ny := pi\npi[i] := 1\n",
      "i := 0\nx := 3\nx[i] := 1\n",
      "i := 0\ns := \"ab\"\ns[i] := 1\n",
      "w[0] := 1\n",
      "y := pi\npi[0] := 1\n",
      "x := 3\nx[0] := 1\n",
      "s := \"ab\"\ns[0] := 1\n",
      "v := [1, 2]\nv[0.5] := 1\n",
      "v := [1, 2]\nv[0 - 1] := 1\n",
      "v := [1, 2]\nv[2] := 1\n",
      "v := [1, 2]\ni := \"a\"\nv[i] := 1\n",
      "v := [1, 2]\nv[0] := [1]\n",
      "v := zeros(3)\nfor i := 0 to 2 do\n  v[i] := i * 2\nend\n",
      // Constant operands: the `…K` forms on either side.
      "y := 2 * \"s\"\n",
      "y := \"s\" + 1\n",
      "y := 1 + \"s\"\n",
      "y := 2 - \"s\"\n",
      "y := 2 < \"s\"\n",
      "y := \"s\" >= 2\n",
      "v := [1, 2]\ny := 2 * v\nz := 1 - v\nw := v / 2\nq := 2 ^ v\n",
      "x := 3\ny := 2 == x\nz := 3 != x\nw := \"a\" == x\n",
      // `x := when(...)` finishes in each arm, echoed once, under the
      // step trace; nested arms too.
      "x := 1\ny := when(x > 0, x + 1, x - 1)\n"
      "z := when(x < 0, 5, when(x > 0, 6, 7))\n",
      // NaN orders as equal to everything, as in the walker's compare().
      "x := 10 ^ 400\ny := x - x\na := y <= 5\nb := y >= 5\nc := y < 5\n"
      "d := y > 5\nf := 5 >= y\nif y <= 5 then\n  e := 1\nend\n",
  };
  for (const char* src : cases) expect_identical(src);
}

TEST(PitsVmFusion, StencilIterationRetires23Instructions) {
  // One interior routine of the sweep_coarse workload, compiled as the
  // executor compiles it: each further cell costs one loop iteration,
  // whose instructions docs/pits.md lists.
  const Program program = Program::parse(
      "n := len(u0_1)\n"
      "un := zeros(n)\n"
      "i := 0\n"
      "while i < n do\n"
      "  lft := when(i > 0, u0_1[i - 1], er0_0)\n"
      "  rgt := when(i < n - 1, u0_1[i + 1], el0_2)\n"
      "  un[i] := u0_1[i] + 0.21 * (lft - 2 * u0_1[i] + rgt)\n"
      "  i := i + 1\n"
      "end\n"
      "u1_1 := un\n"
      "el1_1 := un[0]\n"
      "er1_1 := un[n - 1]\n");
  analyze::precompile_optimized(program);
  const auto retired = [&](std::size_t cells) {
    obs::TraceRecorder rec;
    obs::ScopedRecorder scope(rec);
    Env env{{"u0_1", Value(Vector(cells, 1.0))},
            {"er0_0", Value(0.5)},
            {"el0_2", Value(0.25)}};
    program.execute(env);
    return rec.metric("pits.vm.instructions");
  };
  EXPECT_EQ(retired(65) - retired(64), 23.0);
}

TEST(PitsVmFusion, StepLimitInsideTheStencilBody) {
  // The sweep_coarse stencil in small: a limit at each tick of its
  // loop lands between fused instructions of the body.
  const std::string src =
      "u := [1, 2, 3, 4]\n"
      "n := len(u)\n"
      "un := zeros(n)\n"
      "i := 0\n"
      "while i < n do\n"
      "  lft := when(i > 0, u[i - 1], 0)\n"
      "  rgt := when(i < n - 1, u[i + 1], 0)\n"
      "  un[i] := u[i] + 0.5 * (lft - 2 * u[i] + rgt)\n"
      "  i := i + 1\n"
      "end\n";
  for (std::uint64_t limit = 1; limit <= 30; ++limit) {
    expect_identical(src, {}, limit);
  }
}

// ---------------------------------------------------------------------------
// Concurrency: one shared Program executed from many threads must give
// every thread the sequential answer (the compiled-chunk cache is
// once-init and read-only after publication; run under TSan in CI).

TEST(PitsVmConcurrency, SharedProgramAcrossThreads) {
  const std::string src =
      "formula sq(x) := x * x\n"
      "s := 0\n"
      "for i := 1 to 32 do\n"
      "  s := s + sq(i) + rand()\n"
      "end\n"
      "v := [1, 2, 3] * s\n";
  const Program program = Program::parse(src);

  const Outcome expected = run_with(src, Runner::Vm, {});
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 32; ++i) {
        Env env;
        program.execute(env);
        std::string state;
        for (const auto& [name, value] : env) {
          state += name + "=" + value.to_display() + ";";
        }
        if (state != expected.env) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// The calculator panel caches its parsed program: repeated trial runs and
// lints of unchanged text must not re-parse; any edit must invalidate.

TEST(PanelParseCache, TrialRunsReuseOneParse) {
  obs::TraceRecorder rec;
  obs::ScopedRecorder scope(rec);

  calc::CalculatorPanel panel("cache");
  panel.declare_input("x");
  panel.declare_output("y");
  panel.type("y := x * 2\n");

  Env inputs;
  inputs["x"] = 4.0;
  const double before = rec.metric("pits.parse");
  for (int i = 0; i < 5; ++i) {
    const auto result = panel.trial_run(inputs);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.env.at("y"), Value(8.0));
  }
  (void)panel.lint();
  EXPECT_EQ(rec.metric("pits.parse") - before, 1.0)
      << "unchanged text must parse exactly once";

  // Every text mutation path invalidates.
  panel.press(calc::Key::Enter);
  (void)panel.trial_run(inputs);
  panel.backspace();
  (void)panel.trial_run(inputs);
  panel.type("y := x + 1\n");
  const auto edited = panel.trial_run(inputs);
  ASSERT_TRUE(edited.ok) << edited.error;
  EXPECT_EQ(edited.env.at("y"), Value(5.0));
  EXPECT_EQ(rec.metric("pits.parse") - before, 4.0)
      << "each edit re-parses once";
}

}  // namespace
}  // namespace banger::pits

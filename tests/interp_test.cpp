// Interpreter semantics: arithmetic, control flow, vectors, strings,
// errors, step limits, determinism.
#include <gtest/gtest.h>

#include <cmath>

#include <sstream>

#include "pits/interp.hpp"
#include "reference_walker.hpp"
#include "util/error.hpp"

namespace banger::pits {
namespace {

Value run_for(const std::string& src, const std::string& var, Env env = {}) {
  Program::parse(src).execute(env);
  auto it = env.find(var);
  if (it == env.end()) throw std::runtime_error("var not set: " + var);
  return it->second;
}

double num_for(const std::string& src, const std::string& var, Env env = {}) {
  return run_for(src, var, std::move(env)).as_scalar();
}

TEST(Interp, Arithmetic) {
  EXPECT_DOUBLE_EQ(num_for("x := 2 + 3 * 4", "x"), 14.0);
  EXPECT_DOUBLE_EQ(num_for("x := (2 + 3) * 4", "x"), 20.0);
  EXPECT_DOUBLE_EQ(num_for("x := 7 / 2", "x"), 3.5);
  EXPECT_DOUBLE_EQ(num_for("x := 7 mod 3", "x"), 1.0);
  EXPECT_DOUBLE_EQ(num_for("x := 2 ^ 10", "x"), 1024.0);
  EXPECT_DOUBLE_EQ(num_for("x := 2 ^ 3 ^ 2", "x"), 512.0);  // right assoc
  EXPECT_DOUBLE_EQ(num_for("x := -3 + 1", "x"), -2.0);
}

TEST(Interp, Comparisons) {
  EXPECT_DOUBLE_EQ(num_for("x := 3 < 4", "x"), 1.0);
  EXPECT_DOUBLE_EQ(num_for("x := 3 >= 4", "x"), 0.0);
  EXPECT_DOUBLE_EQ(num_for("x := 3 = 3", "x"), 1.0);
  EXPECT_DOUBLE_EQ(num_for("x := 3 <> 3", "x"), 0.0);
  EXPECT_DOUBLE_EQ(num_for("x := \"abc\" < \"abd\"", "x"), 1.0);
  EXPECT_DOUBLE_EQ(num_for("x := [1,2] = [1,2]", "x"), 1.0);
  EXPECT_DOUBLE_EQ(num_for("x := [1,2] = [1,3]", "x"), 0.0);
}

TEST(Interp, LogicalsShortCircuit) {
  EXPECT_DOUBLE_EQ(num_for("x := 1 and 0", "x"), 0.0);
  EXPECT_DOUBLE_EQ(num_for("x := 0 or 2", "x"), 1.0);
  EXPECT_DOUBLE_EQ(num_for("x := not 0", "x"), 1.0);
  // Short circuit: the division by zero on the rhs is never evaluated.
  EXPECT_DOUBLE_EQ(num_for("x := 0 and 1 / 0", "x"), 0.0);
  EXPECT_DOUBLE_EQ(num_for("x := 1 or 1 / 0", "x"), 1.0);
}

TEST(Interp, IfChain) {
  const char* src =
      "if a < 0 then\n r := -1\nelsif a = 0 then\n r := 0\nelse\n r := 1\nend";
  EXPECT_DOUBLE_EQ(num_for(src, "r", {{"a", Value(-5.0)}}), -1.0);
  EXPECT_DOUBLE_EQ(num_for(src, "r", {{"a", Value(0.0)}}), 0.0);
  EXPECT_DOUBLE_EQ(num_for(src, "r", {{"a", Value(9.0)}}), 1.0);
}

TEST(Interp, WhileLoop) {
  EXPECT_DOUBLE_EQ(
      num_for("s := 0\ni := 1\nwhile i <= 100 do\n s := s + i\n i := i + 1\nend",
              "s"),
      5050.0);
}

TEST(Interp, RepeatLoop) {
  EXPECT_DOUBLE_EQ(num_for("x := 1\nrepeat 10 times\n x := x * 2\nend", "x"),
                   1024.0);
  EXPECT_THROW(num_for("repeat -1 times\nx := 0\nend", "x"), Error);
  EXPECT_THROW(num_for("repeat 1.5 times\nx := 0\nend", "x"), Error);
}

TEST(Interp, ForLoop) {
  EXPECT_DOUBLE_EQ(
      num_for("s := 0\nfor i := 1 to 10 do\n s := s + i\nend", "s"), 55.0);
  EXPECT_DOUBLE_EQ(
      num_for("s := 0\nfor i := 10 to 1 step -1 do\n s := s + 1\nend", "s"),
      10.0);
  EXPECT_DOUBLE_EQ(
      num_for("s := 0\nfor i := 0 to 1 step 0.25 do\n s := s + 1\nend", "s"),
      5.0);
  EXPECT_THROW(num_for("for i := 1 to 2 step 0 do\nend", "s"), Error);
}

TEST(Interp, ReturnExitsEarly) {
  EXPECT_DOUBLE_EQ(num_for("x := 1\nreturn\nx := 2", "x"), 1.0);
  EXPECT_DOUBLE_EQ(
      num_for("x := 0\nwhile 1 do\n x := x + 1\n if x = 5 then\n return\n "
              "end\nend",
              "x"),
      5.0);
}

TEST(Interp, Vectors) {
  const Value v = run_for("v := [1, 2, 3] * 2 + 1", "v");
  EXPECT_EQ(v.as_vector(), (Vector{3, 5, 7}));
  EXPECT_DOUBLE_EQ(num_for("x := [10, 20, 30][1]", "x"), 20.0);
  const Value w = run_for("v := zeros(3)\nv[1] := 7\nv := v + [1,1,1]", "v");
  EXPECT_EQ(w.as_vector(), (Vector{1, 8, 1}));
}

TEST(Interp, VectorElementwiseAndBroadcast) {
  EXPECT_EQ(run_for("v := [1,2] + [10,20]", "v").as_vector(), (Vector{11, 22}));
  EXPECT_EQ(run_for("v := 10 - [1,2]", "v").as_vector(), (Vector{9, 8}));
  EXPECT_EQ(run_for("v := [4,9] ^ 0.5", "v").as_vector(), (Vector{2, 3}));
  EXPECT_THROW(num_for("v := [1,2] + [1,2,3]", "v"), Error);
}

TEST(Interp, Strings) {
  EXPECT_EQ(run_for("s := \"foo\" + \"bar\"", "s").as_string(), "foobar");
  EXPECT_THROW(num_for("s := \"a\" * 2", "s"), Error);
  EXPECT_THROW(num_for("s := -\"a\"", "s"), Error);
}

TEST(Interp, RuntimeErrors) {
  EXPECT_THROW(num_for("x := 1 / 0", "x"), Error);
  EXPECT_THROW(num_for("x := 1 mod 0", "x"), Error);
  EXPECT_THROW(num_for("x := [1][5]", "x"), Error);
  EXPECT_THROW(num_for("x := [1][0.5]", "x"), Error);
  EXPECT_THROW(num_for("x := y + 1", "x"), Error);       // undefined var
  EXPECT_THROW(num_for("x := 5\nx[0] := 1", "x"), Error); // index non-vector
  EXPECT_THROW(num_for("v[0] := 1", "v"), Error);         // undefined target
}

TEST(Interp, ErrorCarriesPosition) {
  try {
    num_for("x := 1\ny := 1 / 0", "y");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Runtime);
    EXPECT_EQ(e.pos().line, 2);
  }
}

TEST(Interp, StepLimitStopsInfiniteLoop) {
  Env env;
  ExecOptions opts;
  opts.step_limit = 1000;
  EXPECT_THROW(Program::parse("while 1 do\nx := 1\nend").execute(env, opts),
               Error);
  try {
    Program::parse("while 1 do\nx := 1\nend").execute(env, opts);
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Limit);
  }
}

TEST(Interp, Constants) {
  EXPECT_NEAR(num_for("x := pi", "x"), 3.14159265, 1e-8);
  EXPECT_NEAR(num_for("x := e ^ 1", "x"), 2.71828182, 1e-8);
  // A user variable shadows a constant.
  EXPECT_DOUBLE_EQ(num_for("pi := 3\nx := pi", "x"), 3.0);
}

TEST(Interp, PrintWritesTranscript) {
  std::ostringstream out;
  Env env;
  ExecOptions opts;
  opts.out = &out;
  Program::parse("print(\"result:\", 42)\nprint([1,2])").execute(env, opts);
  EXPECT_EQ(out.str(), "result: 42\n[1, 2]\n");
}

TEST(Interp, RandDeterministicPerSeed) {
  ExecOptions a;
  a.seed = 5;
  Env env1;
  Program::parse("x := rand()\ny := rand()").execute(env1, a);
  Env env2;
  Program::parse("x := rand()\ny := rand()").execute(env2, a);
  EXPECT_EQ(env1.at("x").as_scalar(), env2.at("x").as_scalar());
  EXPECT_NE(env1.at("x").as_scalar(), env1.at("y").as_scalar());
  ExecOptions b;
  b.seed = 6;
  Env env3;
  Program::parse("x := rand()").execute(env3, b);
  EXPECT_NE(env1.at("x").as_scalar(), env3.at("x").as_scalar());
}

TEST(Interp, NewtonRaphsonSquareRoot) {
  // The paper's Figure 4 example task.
  const char* src =
      "guess := a / 2\n"
      "i := 0\n"
      "while i < 20 do\n"
      "  guess := 0.5 * (guess + a / guess)\n"
      "  i := i + 1\n"
      "end\n"
      "x := guess\n";
  EXPECT_NEAR(num_for(src, "x", {{"a", Value(2.0)}}), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(num_for(src, "x", {{"a", Value(144.0)}}), 12.0, 1e-12);
}

TEST(Interp, ProgramInputsOutputsAnalysis) {
  auto p = Program::parse("y := x + pi\nz := y * 2");
  EXPECT_EQ(p.inputs(), (std::vector<std::string>{"x"}));  // pi is a constant
  EXPECT_EQ(p.outputs(), (std::vector<std::string>{"y", "z"}));
}

TEST(Interp, EvalExpressionHelper) {
  Env env{{"a", Value(4.0)}};
  EXPECT_DOUBLE_EQ(eval_expression("sqrt(a) + 1", env).as_scalar(), 3.0);
  // The original environment is untouched.
  EXPECT_EQ(env.size(), 1u);
}

TEST(Interp, TraceEchoesAssignments) {
  std::ostringstream trace;
  Env env;
  ExecOptions opts;
  opts.trace = &trace;
  Program::parse("x := 2 + 3\nrepeat 2 times\n  x := x * 10\nend")
      .execute(env, opts);
  EXPECT_EQ(trace.str(),
            "line 1: x = 5\n"
            "line 3: x = 50\n"
            "line 3: x = 500\n");
}

TEST(Interp, TraceOffByDefault) {
  Env env;
  EXPECT_NO_THROW(Program::parse("x := 1").execute(env));
}

/// `formula f(n) := when(n <= 0, 0, WRAP(WRAP(... f(n - 1) ...)))` with
/// `levels` wraps, then `r := f(frames)`.
std::string deep_formula(const std::string& open, const std::string& close,
                         int levels, int frames) {
  std::string body = "f(n - 1)";
  for (int i = 0; i < levels; ++i) body = open + body + close;
  return "formula f(n) := when(n <= 0, 0, " + body + ")\nr := f(" +
         std::to_string(frames) + ")\n";
}

TEST(Interp, WalkerBoundsNativeRecursionWithPositionedLimit) {
  // Formula recursion multiplies expression nesting past what the
  // parser's nesting cap bounds; the reference walker's DepthGuard stops
  // it with a positioned limit instead of overflowing the thread stack
  // (which would crash the differential suites), while the VM runs the
  // arithmetic shape.
  const std::pair<std::string, std::string> shapes[] = {
      {"1 + (", ")"}, {"abs(", ")"}, {"-(", ")"}, {"[", "][0]"}};
  for (const auto& [open, close] : shapes) {
    Env env;
    try {
      reference::walk(Program::parse(deep_formula(open, close, 95, 255)), env);
      ADD_FAILURE() << "walker finished " << open;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Limit) << e.what();
      EXPECT_EQ(e.pos().line, 1) << e.what();
      EXPECT_NE(e.message().find("nested deeper than"), std::string::npos)
          << e.what();
    }
  }
  Env env;
  Program::parse(deep_formula("1 + (", ")", 96, 255)).execute(env);
  EXPECT_DOUBLE_EQ(env.at("r").as_scalar(), 24480.0);
}

TEST(Interp, VmBoundsNativeCallRecursionWithPositionedLimit) {
  // Every nested builtin call recurses through the VM's interpreter
  // loop, and formula recursion multiplies it: both nests once overflowed
  // the VM's thread stack.
  const std::pair<std::string, std::string> nests[] = {{"abs(", ")"},
                                                       {"sum([", "])"}};
  for (const auto& [open, close] : nests) {
    Env env;
    try {
      Program::parse(deep_formula(open, close, 95, 255)).execute(env);
      ADD_FAILURE() << "VM finished " << open;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Limit) << e.what();
      EXPECT_EQ(e.pos().line, 1) << e.what();
      EXPECT_NE(e.message().find("calls nested deeper than 2048 levels"),
                std::string::npos)
          << e.what();
    }
  }
  // The bound leaves room for deep formulas: 256 frames that each nest
  // seven builtin calls reach 2041 levels and finish.
  Env env;
  Program::parse(deep_formula("abs(", ")", 7, 255)).execute(env);
  EXPECT_DOUBLE_EQ(env.at("r").as_scalar(), 0.0);
}

TEST(Interp, ShallowFormulaRecursionStillHitsTheFrameLimitFirst) {
  // 257 frames of a shallow body stay inside the native bound, so the
  // reference walker reports the formula-recursion limit, as the VM does.
  const Program program = Program::parse(deep_formula("1 + (", ")", 2, 300));
  for (const bool walker : {true, false}) {
    Env env;
    try {
      if (walker) {
        reference::walk(program, env);
      } else {
        program.execute(env);
      }
      ADD_FAILURE() << "expected the formula recursion limit";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Limit);
      EXPECT_NE(e.message().find("formula recursion deeper than 256"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Interp, EmptyProgramIsNoop) {
  Env env{{"x", Value(1.0)}};
  Program::parse("").execute(env);
  Program::parse("\n\n-- nothing\n").execute(env);
  EXPECT_DOUBLE_EQ(env.at("x").as_scalar(), 1.0);
}

}  // namespace
}  // namespace banger::pits

// User-defined formulas: the calculator's "formulas" feature across
// parser, printer, interpreter, and the code generator.
#include <gtest/gtest.h>

#include <sstream>

#include "cli/program.hpp"
#include "codegen/codegen.hpp"
#include "graph/builder.hpp"
#include "graph/serialize.hpp"
#include "machine/serialize.hpp"
#include "pits/interp.hpp"
#include "sched/heuristics.hpp"
#include "sched/serialize.hpp"
#include "util/error.hpp"

namespace banger::pits {
namespace {

double num_for(const std::string& src, const std::string& var, Env env = {}) {
  Program::parse(src).execute(env);
  return env.at(var).as_scalar();
}

TEST(Formula, BasicDefinitionAndCall) {
  EXPECT_DOUBLE_EQ(
      num_for("formula f(x) := x * x + 1\ny := f(3)", "y"), 10.0);
}

TEST(Formula, MultipleParameters) {
  EXPECT_DOUBLE_EQ(
      num_for("formula area(w, h) := w * h\na := area(3, 4)", "a"), 12.0);
  EXPECT_DOUBLE_EQ(num_for("formula k() := 42\nx := k()", "x"), 42.0);
}

TEST(Formula, UsesConstants) {
  EXPECT_NEAR(num_for("formula circ(r) := 2 * pi * r\nc := circ(1)", "c"),
              6.283185307, 1e-8);
}

TEST(Formula, CallsOtherFormulas) {
  const char* src =
      "formula sq(x) := x * x\n"
      "formula sumsq(a, b) := sq(a) + sq(b)\n"
      "r := sumsq(3, 4)";
  EXPECT_DOUBLE_EQ(num_for(src, "r"), 25.0);
}

TEST(Formula, RecursionWorksViaWhen) {
  // when() evaluates only the selected branch, so recursion terminates.
  const char* src =
      "formula fib(n) := when(n <= 1, n, fib(n - 1) + fib(n - 2))\n"
      "r := fib(10)";
  EXPECT_DOUBLE_EQ(num_for(src, "r"), 55.0);
}

TEST(When, LazyBranches) {
  EXPECT_DOUBLE_EQ(num_for("x := when(1, 7, 1 / 0)", "x"), 7.0);
  EXPECT_DOUBLE_EQ(num_for("x := when(0, 1 / 0, 8)", "x"), 8.0);
  EXPECT_THROW(num_for("x := when(1, 2)", "x"), Error);
  // `when` cannot be redefined as a formula.
  EXPECT_THROW(num_for("formula when(a, b, c) := a\nx := 1", "x"), Error);
}

TEST(Formula, DeepRecursionLimited) {
  const char* src =
      "formula down(n) := down(n - 1)\n"
      "r := down(1)";
  try {
    num_for(src, "r");
    FAIL() << "expected recursion limit";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Limit);
  }
}

TEST(Formula, BodySeesOnlyParameters) {
  // `secret` exists in the caller scope but is invisible to the body.
  const char* src =
      "secret := 99\n"
      "formula leak(x) := x + secret\n"
      "r := leak(1)";
  try {
    num_for(src, "r");
    FAIL() << "expected name error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Name);
  }
}

TEST(Formula, ArgumentsEvaluateInCallerScope) {
  const char* src =
      "a := 7\n"
      "formula twice(x) := x * 2\n"
      "r := twice(a + 1)";
  EXPECT_DOUBLE_EQ(num_for(src, "r"), 16.0);
}

TEST(Formula, ArityChecked) {
  EXPECT_THROW(num_for("formula f(x) := x\ny := f(1, 2)", "y"), Error);
  EXPECT_THROW(num_for("formula f(x, y) := x\nz := f(1)", "z"), Error);
}

TEST(Formula, CannotShadowButtonsOrConstants) {
  EXPECT_THROW(num_for("formula sqrt(x) := x\ny := 1", "y"), Error);
  EXPECT_THROW(num_for("formula pi(x) := x\ny := 1", "y"), Error);
}

TEST(Formula, DuplicateParametersRejected) {
  EXPECT_THROW((void)Program::parse("formula f(x, x) := x"), Error);
}

TEST(Formula, RedefinitionTakesLastDefinition) {
  const char* src =
      "formula f(x) := x + 1\n"
      "formula f(x) := x + 2\n"
      "r := f(0)";
  EXPECT_DOUBLE_EQ(num_for(src, "r"), 2.0);
}

TEST(Formula, VectorsFlowThrough) {
  const char* src =
      "formula normalize(v) := v / norm(v)\n"
      "u := normalize([3, 4])";
  Env env;
  Program::parse(src).execute(env);
  const auto& u = env.at("u").as_vector();
  EXPECT_NEAR(u[0], 0.6, 1e-12);
  EXPECT_NEAR(u[1], 0.8, 1e-12);
}

TEST(Formula, PrinterRoundTrip) {
  const char* src = "formula f(a, b) := (a + b) / 2\nm := f(2, 4)\n";
  const std::string once = to_source(parse_block(src));
  EXPECT_NE(once.find("formula f(a, b) := "), std::string::npos);
  const std::string twice = to_source(parse_block(once));
  EXPECT_EQ(once, twice);
  EXPECT_DOUBLE_EQ(num_for(once, "m"), 3.0);
}

TEST(Formula, FreeVariableAnalysis) {
  auto block = parse_block("formula f(x) := x + w\ny := f(q)");
  const auto free = free_variables(block);
  // w (inside the body) and q (an argument) are free; x is a parameter.
  EXPECT_EQ(free, (std::vector<std::string>{"q", "w"}));
}

TEST(Formula, ParseErrors) {
  EXPECT_THROW((void)Program::parse("formula (x) := x"), Error);
  EXPECT_THROW((void)Program::parse("formula f x := x"), Error);
  EXPECT_THROW((void)Program::parse("formula f(x) = x"), Error);
}

}  // namespace
}  // namespace banger::pits

namespace banger::codegen {
namespace {

TEST(FormulaCodegen, GeneratedProgramRunsFormulas) {
  const graph::Design design =
      graph::DesignBuilder("calc")
          .store("r")
          .task("calc",
                "formula sq(x) := x * x\n"
                "formula hyp(a, b) := sqrt(sq(a) + sq(b))\n"
                "r := hyp(3, 4)\n")
          .build();
  const auto flat = design.flatten();
  machine::MachineParams p;
  p.processor_speed = 1;
  machine::Machine m(machine::Topology::fully_connected(1), p);
  const auto schedule = sched::SerialScheduler().run(flat.graph, m);
  const std::string src = generate_cpp(design, flat.graph, m, schedule, {});
  EXPECT_NE(src.find("formula hyp(a, b) := sqrt(sq(a) + sq(b))"),
            std::string::npos);

  // What the generated main() does with the texts it embeds.
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(cli::run_program(graph::to_pitl(design), machine::to_text(m),
                             sched::to_text(schedule, flat.graph), {}, out,
                             err),
            0)
      << err.str();
  EXPECT_EQ(out.str().substr(0, out.str().find('\n')), "r = 5");
}

}  // namespace
}  // namespace banger::codegen

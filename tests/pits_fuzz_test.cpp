// Randomized PITS robustness: generate hundreds of random (but valid)
// programs, then check the core invariants —
//   * printer/parser round trip is a fixpoint,
//   * execution is deterministic,
//   * execution never crashes: it either completes or throws a typed
//     banger::Error.
#include <gtest/gtest.h>

#include <string>

#include "pits/interp.hpp"
#include "reference_walker.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace banger::pits {
namespace {

/// Generates a random expression of bounded depth over variables v0..v3
/// (always defined as scalars) and w (a vector).
class ProgramGen {
 public:
  explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

  std::string program(int statements) {
    std::string out =
        "v0 := 1\nv1 := 2.5\nv2 := -3\nv3 := 0.5\nw := [1, 2, 3, 4]\n";
    for (int i = 0; i < statements; ++i) out += statement(2);
    return out;
  }

 private:
  std::string scalar_expr(int depth) {
    if (depth <= 0 || rng_.chance(0.3)) {
      switch (rng_.next_below(4)) {
        case 0: return std::to_string(rng_.uniform_int(1, 9));
        case 1: return "v" + std::to_string(rng_.next_below(4));
        case 2: return "w[" + std::to_string(rng_.next_below(4)) + "]";
        default: return "pi";
      }
    }
    switch (rng_.next_below(7)) {
      case 0:
        return "(" + scalar_expr(depth - 1) + " + " + scalar_expr(depth - 1) +
               ")";
      case 1:
        return "(" + scalar_expr(depth - 1) + " * " + scalar_expr(depth - 1) +
               ")";
      case 2:
        // Guarded division: add a constant so the denominator is nonzero
        // often; division by zero is a legal typed error anyway.
        return "(" + scalar_expr(depth - 1) + " / (" +
               scalar_expr(depth - 1) + " + 17))";
      case 3: return "abs(" + scalar_expr(depth - 1) + ")";
      case 4: return "min(" + scalar_expr(depth - 1) + ", " +
                     scalar_expr(depth - 1) + ")";
      case 5:
        return "when(" + scalar_expr(depth - 1) + " > 0, " +
               scalar_expr(depth - 1) + ", " + scalar_expr(depth - 1) + ")";
      default:
        return "(" + scalar_expr(depth - 1) + " - " + scalar_expr(depth - 1) +
               ")";
    }
  }

  std::string statement(int depth) {
    switch (rng_.next_below(depth > 0 ? 6 : 2)) {
      case 0:
        return "v" + std::to_string(rng_.next_below(4)) + " := " +
               scalar_expr(2) + "\n";
      case 1:
        return "w[" + std::to_string(rng_.next_below(4)) + "] := " +
               scalar_expr(2) + "\n";
      case 2: {
        std::string body;
        const int n = 1 + static_cast<int>(rng_.next_below(2));
        for (int i = 0; i < n; ++i) body += "  " + statement(depth - 1);
        return "if " + scalar_expr(1) + " > " + scalar_expr(1) + " then\n" +
               body + "end\n";
      }
      case 3: {
        std::string body = "  " + statement(depth - 1);
        return "repeat " + std::to_string(rng_.next_below(4)) + " times\n" +
               body + "end\n";
      }
      case 4: {
        std::string body = "  " + statement(depth - 1);
        return "for it := 0 to " + std::to_string(rng_.next_below(5)) +
               " do\n" + body + "end\n";
      }
      default: {
        // Bounded while: counts down from a small value.
        return "cnt := " + std::to_string(rng_.next_below(4)) +
               "\nwhile cnt > 0 do\n  cnt := cnt - 1\n  " +
               statement(depth - 1) + "end\n";
      }
    }
  }

  util::Rng rng_;
};

class PitsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PitsFuzz, PrinterParserFixpoint) {
  ProgramGen gen(GetParam());
  const std::string src = gen.program(6);
  Block block;
  ASSERT_NO_THROW(block = parse_block(src)) << src;
  const std::string once = to_source(block);
  Block reparsed;
  ASSERT_NO_THROW(reparsed = parse_block(once)) << once;
  EXPECT_EQ(to_source(reparsed), once) << src;
}

TEST_P(PitsFuzz, ExecutionDeterministicAndContained) {
  ProgramGen gen(GetParam() ^ 0x5eedull);
  const std::string src = gen.program(6);
  ExecOptions opts;
  opts.step_limit = 200000;

  auto run_once = [&]() -> std::pair<bool, std::string> {
    Env env;
    try {
      Program::parse(src).execute(env, opts);
    } catch (const Error& e) {
      return {false, e.what()};  // typed error: acceptable outcome
    }
    std::string state;
    for (const auto& [name, value] : env) {
      state += name + "=" + value.to_display() + ";";
    }
    return {true, state};
  };

  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second) << src;
}

TEST_P(PitsFuzz, RoundTrippedProgramBehavesIdentically) {
  ProgramGen gen(GetParam() ^ 0xabcdull);
  const std::string src = gen.program(5);
  const std::string printed = to_source(parse_block(src));
  ExecOptions opts;
  opts.step_limit = 200000;

  auto final_state = [&](const std::string& text) -> std::string {
    Env env;
    try {
      Program::parse(text).execute(env, opts);
    } catch (const Error& e) {
      return std::string("error: ") + std::string(to_string(e.code()));
    }
    std::string state;
    for (const auto& [name, value] : env) {
      state += name + "=" + value.to_display() + ";";
    }
    return state;
  };

  EXPECT_EQ(final_state(src), final_state(printed)) << src;
}

TEST_P(PitsFuzz, FusedVmMatchesWalker) {
  // The peephole pass always runs, so the VM side of this differential
  // executes fused superinstructions; the walker is the oracle. Random
  // programs hit fusion shapes (const operands, loop-head compares) the
  // hand-picked suites might miss.
  ProgramGen gen(GetParam() ^ 0xf05edull);
  const std::string src = gen.program(6);
  auto outcome = [&](bool walker) -> std::string {
    ExecOptions opts;
    opts.step_limit = 200000;
    Env env;
    try {
      const Program program = Program::parse(src);
      if (walker) {
        reference::walk(program, env, opts);
      } else {
        program.execute(env, opts);
      }
    } catch (const Error& e) {
      return std::string("error: ") + e.what();
    }
    std::string state;
    for (const auto& [name, value] : env) {
      state += name + "=" + value.to_display() + ";";
    }
    return state;
  };
  EXPECT_EQ(outcome(/*walker=*/false), outcome(/*walker=*/true)) << src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PitsFuzz,
                         ::testing::Range<std::uint64_t>(1, 61));

}  // namespace
}  // namespace banger::pits

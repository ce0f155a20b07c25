// Randomized PITS robustness: generate hundreds of random (but valid)
// programs, then check the core invariants —
//   * printer/parser round trip is a fixpoint,
//   * execution is deterministic,
//   * execution never crashes: it either completes or throws a typed
//     banger::Error.
#include <gtest/gtest.h>

#include <string>

#include "pits/interp.hpp"
#include "program_gen.hpp"
#include "reference_walker.hpp"
#include "util/error.hpp"

namespace banger::pits {
namespace {

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

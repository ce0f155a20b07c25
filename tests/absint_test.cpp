// Tests for the abstract-interpretation engine: interval/value lattice
// laws, widening termination, one golden fixture per BAN3xx code (plus
// its clean variant), BAN101 decided by its must-assign state, and the
// analysis facts the bytecode compiler consumes for check elision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/absint.hpp"
#include "analyze/analyze.hpp"
#include "graph/serialize.hpp"
#include "pits/bytecode.hpp"
#include "pits/interp.hpp"
#include "workloads/designs.hpp"

namespace banger::analyze {
namespace {

std::vector<Diagnostic> check(std::string_view pitl,
                              const AnalyzeOptions& options = {}) {
  return analyze_design(graph::parse_design(pitl), options);
}

bool fires(const std::vector<Diagnostic>& diags, std::string_view code) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

const Diagnostic& get(const std::vector<Diagnostic>& diags,
                      std::string_view code) {
  auto it = std::find_if(diags.begin(), diags.end(),
                         [&](const Diagnostic& d) { return d.code == code; });
  EXPECT_NE(it, diags.end()) << "expected " << code << " to fire";
  static const Diagnostic none{};
  return it == diags.end() ? none : *it;
}

// Wraps a PITS body in a minimal runnable one-task design.
std::string one_task(std::string_view body) {
  std::string pitl = "design d\ngraph g\n  store xs bytes=8\n"
                     "  store out bytes=8\n  task work in=xs out=ys\n"
                     "  pits {\n";
  pitl += body;
  pitl += "  }\n  task sink in=ys out=out\n  pits {\n    out := ys\n  }\n"
          "  arc xs -> work var=xs bytes=8\n"
          "  arc work -> sink var=ys bytes=8\n"
          "  arc sink -> out var=out bytes=8\n";
  return pitl;
}

// --------------------------------------------------------------- lattice

TEST(IntervalDomain, ExactAndRangeConstructors) {
  const Interval x = iv_exact(3.0);
  EXPECT_EQ(x.lo, 3.0);
  EXPECT_EQ(x.hi, 3.0);
  EXPECT_TRUE(x.integer);
  EXPECT_FALSE(x.maybe_nan);
  EXPECT_TRUE(x.is_exact());

  EXPECT_FALSE(iv_exact(2.5).integer);
  EXPECT_TRUE(iv_exact(std::nan("")).is_top());   // NaN widens to top
  EXPECT_TRUE(iv_range(5, 2).is_top());           // inverted bounds too
  EXPECT_TRUE(iv_top().is_top());
}

TEST(IntervalDomain, JoinIsHullAndCommutative) {
  const Interval a = iv_range(0, 4, /*integer=*/true);
  const Interval b = iv_range(2, 9, /*integer=*/true);
  const Interval j = join(a, b);
  EXPECT_EQ(j.lo, 0.0);
  EXPECT_EQ(j.hi, 9.0);
  EXPECT_TRUE(j.integer);
  EXPECT_FALSE(j.maybe_nan);
  EXPECT_EQ(join(b, a), j);

  // Integrality is conjoined, NaN possibility disjoined.
  const Interval frac = iv_range(0.5, 0.5);
  EXPECT_FALSE(join(a, frac).integer);
  Interval nanny = iv_range(1, 1);
  nanny.maybe_nan = true;
  EXPECT_TRUE(join(a, nanny).maybe_nan);
}

TEST(IntervalDomain, JoinUpperBoundsBothSides) {
  const Interval a = iv_range(-3, 1, true);
  const Interval b = iv_range(0, 7);
  const Interval j = join(a, b);
  EXPECT_LE(j.lo, std::min(a.lo, b.lo));
  EXPECT_GE(j.hi, std::max(a.hi, b.hi));
}

TEST(IntervalDomain, WideningJumpsGrownBoundsToInfinity) {
  const Interval prev = iv_range(0, 4, true);
  const Interval grown_hi = iv_range(0, 5, true);
  const Interval w = widen(prev, grown_hi);
  EXPECT_EQ(w.lo, 0.0);
  EXPECT_EQ(w.hi, kAbsInf);

  const Interval grown_lo = iv_range(-1, 4, true);
  const Interval w2 = widen(prev, grown_lo);
  EXPECT_EQ(w2.lo, -kAbsInf);
  EXPECT_EQ(w2.hi, 4.0);

  // Stable input is a fixpoint: widen(prev, prev) == prev.
  EXPECT_EQ(widen(prev, prev), prev);
}

TEST(IntervalDomain, WideningTerminates) {
  // Repeatedly widening against ever-growing inputs must reach a
  // fixpoint in a bounded number of steps (each bound widens at most
  // once, the two bits are monotone).
  Interval acc = iv_exact(0.0);
  int changes = 0;
  for (int i = 1; i <= 100; ++i) {
    Interval next = iv_range(-i, i * i);
    next.maybe_nan = (i > 50);
    const Interval w = widen(acc, join(acc, next));
    if (!(w == acc)) ++changes;
    acc = w;
  }
  EXPECT_LE(changes, 4);  // lo, hi, integer, maybe_nan
  EXPECT_EQ(acc.lo, -kAbsInf);
  EXPECT_EQ(acc.hi, kAbsInf);
}

TEST(AbsValDomain, JoinMergesKindsAndRefinements) {
  const AbsVal s = AbsVal::scalar(iv_range(1, 2, true));
  const AbsVal v = AbsVal::vector(iv_exact(3.0), iv_range(0, 1, true));
  const AbsVal j = join(s, v);
  EXPECT_TRUE(j.may_scalar);
  EXPECT_TRUE(j.may_vector);
  EXPECT_FALSE(j.may_string);
  EXPECT_FALSE(j.may_unbound);
  EXPECT_FALSE(j.proven_scalar());
  EXPECT_FALSE(j.proven_vector());
  // The scalar interval comes only from the side that could be scalar.
  EXPECT_EQ(j.num, s.num);
  EXPECT_EQ(j.len, v.len);
  EXPECT_EQ(join(v, s), j);
}

TEST(AbsValDomain, WidenReachesFixpointOnRepeatedGrowth) {
  AbsVal acc = AbsVal::scalar(iv_exact(0.0));
  acc.must_assigned = true;
  int changes = 0;
  for (int i = 1; i <= 50; ++i) {
    AbsVal next = AbsVal::scalar(iv_range(0, i, true));
    next.must_assigned = true;
    const AbsVal w = widen(acc, join(acc, next));
    if (!(w == acc)) ++changes;
    acc = w;
  }
  EXPECT_LE(changes, 2);
  EXPECT_TRUE(acc.proven_scalar());
  EXPECT_EQ(acc.num.hi, kAbsInf);
  EXPECT_EQ(acc.num.lo, 0.0);
}

// ------------------------------------------------------ BAN3xx fixtures

TEST(AbsintRules, Ban301ProvenDivisionByZero) {
  // Zero survives the loop (0 * i stays 0), which the syntactic
  // constant folder cannot see but the fixpoint proves.
  const auto diags = check(one_task(
      "    m := 0\n    for i := 1 to 3 do\n      m := m * i\n    end\n"
      "    q := 10 / m\n    ys := q + len(xs)\n"));
  EXPECT_TRUE(fires(diags, "BAN301"));
  EXPECT_EQ(get(diags, "BAN301").severity, Severity::Error);
  const auto clean = check(one_task(
      "    m := 0\n    for i := 1 to 3 do\n      m := m + i\n    end\n"
      "    q := 10 / m\n    ys := q + len(xs)\n"));
  EXPECT_FALSE(fires(clean, "BAN301"));
  // `n - n` of an untyped input is no proof: len() of a non-vector may
  // not even evaluate, and a NaN divisor does not raise.
  const auto unknown = check(one_task(
      "    n := len(xs)\n    m := n - n\n    q := 10 / m\n    ys := q\n"));
  EXPECT_FALSE(fires(unknown, "BAN301"));
}

TEST(AbsintRules, Ban301DoesNotDuplicateConstantFoldedBan104) {
  // A literal `1 / 0` is already BAN104 (constant-derived error); the
  // interval rule must stay silent at the same spot.
  const auto diags = check(one_task("    q := 1 / 0\n    ys := q\n"));
  EXPECT_TRUE(fires(diags, "BAN104"));
  EXPECT_FALSE(fires(diags, "BAN301"));
}

TEST(AbsintRules, Ban302IntervalProvenOutOfBounds) {
  // Every index the loop produces is >= the vector length.
  const auto diags = check(one_task(
      "    w := zeros(4)\n    s := 0\n    for j := 4 to 9 do\n"
      "      s := s + w[j]\n    end\n    ys := s\n"));
  EXPECT_TRUE(fires(diags, "BAN302"));
  const Diagnostic& d = get(diags, "BAN302");
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_NE(d.message.find("[4, 9]"), std::string::npos) << d.message;

  // Partially out of range is not a proof: some iterations are fine.
  const auto partial = check(one_task(
      "    w := zeros(4)\n    s := 0\n    for j := 0 to 9 do\n"
      "      s := s + w[j]\n    end\n    ys := s\n"));
  EXPECT_FALSE(fires(partial, "BAN302"));

  const auto clean = check(one_task(
      "    w := zeros(4)\n    s := 0\n    for j := 0 to 3 do\n"
      "      s := s + w[j]\n    end\n    ys := s\n"));
  EXPECT_FALSE(fires(clean, "BAN302"));
}

TEST(AbsintRules, Ban303ProvenConstantBranch) {
  const auto diags = check(one_task(
      "    if 1 < 0 then\n      dead := 1\n    end\n    ys := 1\n"));
  EXPECT_TRUE(fires(diags, "BAN303"));
  EXPECT_EQ(get(diags, "BAN303").severity, Severity::Warning);

  // Interval-proven, not just constant-folded: len(xs) >= 0 always.
  const auto interval = check(one_task(
      "    n := len(xs)\n    if n >= 0 then\n      ys := n\n"
      "    else\n      ys := 0\n    end\n"));
  EXPECT_TRUE(fires(interval, "BAN303"));

  const auto clean = check(one_task(
      "    n := len(xs)\n    if n > 2 then\n      ys := n\n"
      "    else\n      ys := 0\n    end\n"));
  EXPECT_FALSE(fires(clean, "BAN303"));
}

TEST(AbsintRules, Ban304ProvenNonTerminatingLoop) {
  // The body changes `s`, so the syntactic BAN108 stays quiet — but the
  // fixpoint proves s only grows and the condition stays true.
  const auto diags = check(one_task(
      "    s := 1\n    while s > 0 do\n      s := s + 1\n    end\n"
      "    ys := s\n"));
  EXPECT_TRUE(fires(diags, "BAN304"));
  EXPECT_FALSE(fires(diags, "BAN108"));
  // A literal-constant condition gets the constant-folding BAN108 at
  // that `while`, never both codes.
  const auto constant = check(one_task(
      "    s := 0\n    while 1 do\n      s := s + 1\n    end\n    ys := s\n"));
  EXPECT_TRUE(fires(constant, "BAN108"));
  EXPECT_FALSE(fires(constant, "BAN304"));
  // A loop that decrements toward the bound terminates for all the
  // analysis knows.
  const auto clean = check(one_task(
      "    s := len(xs)\n    while s > 0 do\n      s := s - 1\n    end\n"
      "    ys := s\n"));
  EXPECT_FALSE(fires(clean, "BAN304"));
  // A `return` inside the proven-true loop is an exit: no report.
  const auto escapes = check(one_task(
      "    ys := 1\n    s := 1\n    while s > 0 do\n      s := s + 1\n"
      "      if s > 10 then\n        return\n      end\n    end\n"));
  EXPECT_FALSE(fires(escapes, "BAN304"));
}

TEST(AbsintRules, Ban305ElementwiseLengthMismatch) {
  const auto diags = check(one_task(
      "    a := [1, 2]\n    b := [1, 2, 3]\n    c := a + b\n    ys := c\n"));
  EXPECT_TRUE(fires(diags, "BAN305"));
  EXPECT_EQ(get(diags, "BAN305").severity, Severity::Error);
  const auto clean = check(one_task(
      "    a := [1, 2]\n    b := [3, 4]\n    c := a + b\n    ys := c\n"));
  EXPECT_FALSE(fires(clean, "BAN305"));
  // Unknown-length operand: no proof, no report.
  const auto unknown = check(one_task(
      "    a := [1, 2]\n    c := a + xs\n    ys := c\n"));
  EXPECT_FALSE(fires(unknown, "BAN305"));
}

TEST(AbsintRules, Ban306CrossTaskShapeMismatch) {
  // Producer writes a scalar into store `v`; the consumer indexes it.
  const std::string pitl =
      "design d\ngraph g\n  store xs bytes=8\n  store v bytes=8\n"
      "  store out bytes=8\n  task maker in=xs out=v\n  pits {\n"
      "    v := 7\n  }\n  task user in=v out=ys\n  pits {\n"
      "    s := 0\n    for i := 0 to 2 do\n      s := s + v[i]\n    end\n"
      "    ys := s\n  }\n  task sink in=ys out=out\n  pits {\n"
      "    out := ys\n  }\n"
      "  arc xs -> maker var=xs bytes=8\n  arc maker -> v var=v bytes=8\n"
      "  arc v -> user var=v bytes=8\n  arc user -> sink var=ys bytes=8\n"
      "  arc sink -> out var=out bytes=8\n";
  const auto diags = check(pitl);
  EXPECT_TRUE(fires(diags, "BAN306"));
  EXPECT_EQ(get(diags, "BAN306").severity, Severity::Warning);

  // Producing a long-enough vector satisfies the demand.
  std::string clean = pitl;
  const auto at = clean.find("v := 7");
  ASSERT_NE(at, std::string::npos);
  clean.replace(at, 6, "v := zeros(3)");
  EXPECT_FALSE(fires(check(clean), "BAN306"));
}

TEST(AbsintRules, OptOutSuppressesProofRules) {
  AnalyzeOptions options;
  options.absint_rules = false;
  const auto diags = check(
      one_task("    q := 10 / (1 - 1)\n    ys := q\n"), options);
  EXPECT_FALSE(fires(diags, "BAN301"));
}

TEST(AbsintRules, PrunesBan101FalsePositives) {
  // A `repeat 3 times` body always runs: the interpreter, which decides
  // BAN101 with or without its proofs, knows the read is bound.
  const std::string pitl = one_task(
      "    repeat 3 times\n      y := 1\n    end\n    ys := y\n");
  AnalyzeOptions no_proofs;
  no_proofs.absint_rules = false;
  EXPECT_FALSE(fires(check(pitl, no_proofs), "BAN101"));
  EXPECT_FALSE(fires(check(pitl), "BAN101"));

  // A genuinely conditional assignment keeps its warning.
  const std::string conditional = one_task(
      "    if len(xs) > 2 then\n      y := 1\n    end\n    ys := y\n");
  EXPECT_TRUE(fires(check(conditional), "BAN101"));
}

TEST(AbsintRules, UnreachableCodeIsNotReported) {
  // Everything after a proven-infinite loop is dead; proofs in dead
  // code would be vacuous noise.
  const auto diags = check(one_task(
      "    s := 1\n    while s > 0 do\n      s := s + 1\n    end\n"
      "    a := [1, 2]\n    b := [1, 2, 3]\n    c := a + b\n"
      "    ys := s + c + len(xs)\n"));
  EXPECT_TRUE(fires(diags, "BAN304"));
  EXPECT_FALSE(fires(diags, "BAN305"));
}

TEST(AbsintRules, CleanLoopsStayQuiet) {
  // Representative well-formed numeric code: no BAN3xx false positives.
  const auto diags = check(one_task(
      "    n := len(xs)\n    acc := 0\n    v := zeros(8)\n"
      "    for i := 0 to 7 do\n      v[i] := i * i\n    end\n"
      "    for i := 0 to 7 do\n      acc := acc + v[i]\n    end\n"
      "    j := 0\n    while j < n do\n      acc := acc + j\n"
      "      j := j + 1\n    end\n    ys := acc\n"));
  for (const auto& d : diags) {
    EXPECT_NE(d.code.substr(0, 4), "BAN3") << d.code << ": " << d.message;
  }
}

// ------------------------------------------------------- compiler facts

TEST(AnalysisFacts, ProvenSafeProgramYieldsElisions) {
  const auto program = pits::Program::parse(
      "v := zeros(8)\n"
      "for i := 0 to 7 do\n"
      "  v[i] := i * 2\n"
      "end\n"
      "s := 0\n"
      "for i := 0 to 7 do\n"
      "  s := s + v[i]\n"
      "end\n");
  const auto facts = compute_facts(program.body());
  EXPECT_FALSE(facts.safe_index.empty());
  EXPECT_FALSE(facts.safe_indexed_store.empty());
  EXPECT_FALSE(facts.bound_reads.empty());
  EXPECT_FALSE(facts.single_tick.empty());
}

TEST(AnalysisFacts, ContextFreeProofsIgnoreNothingAboutInputs) {
  // `xs` is free — it could be unbound, a string, or a short vector in
  // some environment, so nothing about it may be elided.
  const auto program = pits::Program::parse("y := xs[2]\nz := y + 1\n");
  const auto facts = compute_facts(program.body());
  EXPECT_TRUE(facts.safe_index.empty());
  // But `y`'s read on the last line is still proven bound.
  EXPECT_FALSE(facts.bound_reads.empty());
}

TEST(AnalysisFacts, FormulaCallsAreNeverSingleTick) {
  const auto program = pits::Program::parse(
      "formula f(a) := a * 2\n"
      "x := f(3)\n"
      "y := 1 + 1\n");
  const auto facts = compute_facts(program.body());
  // `x := f(3)` ticks dynamically inside the formula; `y := 1 + 1`
  // stays a single tick.
  const pits::Block& body = program.body();
  ASSERT_EQ(body.size(), 3u);
  EXPECT_FALSE(facts.single_tick.contains(body[1].get()));
  EXPECT_TRUE(facts.single_tick.contains(body[2].get()));
}

// Front-end totals over heat 32x32's 1057 routines, pinned so that a
// change to how names are resolved cannot move a fact or an instruction.
TEST(AnalysisFacts, Heat32x32FactsAndChunksArePinned) {
  const graph::Design design = workloads::heat_design(32, 32, 4);
  const graph::FlattenResult flat = design.flatten();
  std::size_t single_tick = 0;
  std::size_t bound_reads = 0;
  std::size_t safe_index = 0;
  std::size_t safe_store = 0;
  std::size_t instructions = 0;
  std::size_t consts = 0;
  std::size_t vars = 0;
  std::size_t names = 0;
  std::size_t registers = 0;
  std::size_t chunks = 0;
  for (graph::TaskId t = 0; t < flat.graph.num_tasks(); ++t) {
    const std::string& src = flat.graph.task(t).pits;
    if (src.empty()) continue;
    const auto program = pits::Program::parse(src);
    const auto facts = compute_facts(program.body());
    single_tick += facts.single_tick.size();
    bound_reads += facts.bound_reads.size();
    safe_index += facts.safe_index.size();
    safe_store += facts.safe_indexed_store.size();
    program.precompile(facts);
    const auto chunk = program.compiled_chunk();
    ASSERT_NE(chunk, nullptr);
    ++chunks;
    instructions += chunk->main.ins.size();
    registers += chunk->main.num_regs;
    for (const auto& fo : chunk->formulas) {
      instructions += fo.code.ins.size();
      registers += fo.code.num_regs;
    }
    consts += chunk->consts.size();
    vars += chunk->vars.size();
    names += chunk->names.size();
  }
  EXPECT_EQ(chunks, 1057u);
  EXPECT_EQ(single_tick, 10368u);
  EXPECT_EQ(bound_reads, 18527u);
  EXPECT_EQ(safe_index, 0u);
  EXPECT_EQ(safe_store, 0u);
  EXPECT_EQ(instructions, 46623u);
  EXPECT_EQ(consts, 4223u);
  EXPECT_EQ(vars, 11361u);
  EXPECT_EQ(names, 13442u);
  EXPECT_EQ(registers, 13507u);
}

// A declared input that is also an output, which the routine never
// mentions, reaches the shape summary as the bound input it arrived as.
TEST(AbsintRules, UnmentionedPassThroughPortKeepsItsSeed) {
  const auto program = pits::Program::parse("z := 1\n");
  RoutineContext ctx;
  ctx.subject = "t";
  ctx.inputs = {"v", "pi"};
  ctx.outputs = {"v", "z", "w", "e"};
  std::vector<Diagnostic> sink;
  const ShapeSummary summary = check_routine(program.body(), ctx, {}, sink);
  ASSERT_EQ(summary.outputs.size(), 4u);
  const AbsVal& v = summary.outputs.at("v");
  EXPECT_FALSE(v.may_unbound);
  EXPECT_TRUE(v.must_assigned);
  EXPECT_TRUE(summary.outputs.at("z").proven_scalar());
  // Never assigned: an output not seeded as an input may be unbound,
  // unless it names a calculator constant.
  EXPECT_TRUE(summary.outputs.at("w").may_unbound);
  EXPECT_FALSE(summary.outputs.at("e").may_unbound);
  EXPECT_FALSE(summary.outputs.at("e").must_assigned);
  EXPECT_TRUE(sink.empty());
}

TEST(AnalysisFacts, PrecompileOptimizedIsIdempotentAndRunnable) {
  const auto program = pits::Program::parse(
      "v := zeros(4)\nfor i := 0 to 3 do\n  v[i] := i\nend\ns := sum(v)\n");
  precompile_optimized(program);
  precompile_optimized(program);  // second call is a no-op
  pits::Env env;
  program.execute(env);
  ASSERT_TRUE(env.contains("s"));
  EXPECT_EQ(env.at("s").as_scalar(), 0 + 1 + 2 + 3);
}

// ------------------------------------------------- golden SARIF corpus

namespace fs = std::filesystem;

bool update_golden() {
  const char* env = std::getenv("BANGER_UPDATE_GOLDEN");
  return env != nullptr && env[0] == '1';
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Every analysis sample's SARIF log is pinned byte-for-byte: the
/// corpus is the analyzer's regression oracle (CI runs the CLI over the
/// same files and diffs the same goldens). BANGER_UPDATE_GOLDEN=1
/// regenerates after an intentional diagnostic change.
TEST(AnalysisCorpus, GoldenSarif) {
  const std::string root = BANGER_SOURCE_DIR;
  const std::string golden_dir = root + "/tests/golden/analyze";
  fs::create_directories(golden_dir);

  for (const char* name :
       {"absint_showcase", "shape_mismatch", "clean_loops"}) {
    const std::string rel = std::string("samples/analysis/") + name + ".pitl";
    const auto design = graph::load_design(root + "/" + rel);
    const auto diags = analyze_design(design);
    EmitOptions options;
    options.file = rel;  // relative URI keeps the log machine-independent
    const std::string sarif = emit_sarif(diags, options);

    const std::string golden_path = golden_dir + "/" + name + ".sarif";
    if (update_golden()) {
      std::ofstream(golden_path, std::ios::binary) << sarif;
    }
    EXPECT_EQ(sarif, slurp(golden_path))
        << name << ": SARIF drifted from the golden corpus; run with "
        << "BANGER_UPDATE_GOLDEN=1 if the change is intentional";
  }
}

/// The showcase fires every single-routine proof rule; the negative
/// control is completely quiet.
TEST(AnalysisCorpus, ShowcaseCoversEveryCode) {
  const std::string root = BANGER_SOURCE_DIR;
  const auto showcase = analyze_design(
      graph::load_design(root + "/samples/analysis/absint_showcase.pitl"));
  for (const char* code :
       {"BAN301", "BAN302", "BAN303", "BAN304", "BAN305"}) {
    EXPECT_TRUE(fires(showcase, code)) << code;
  }
  const auto shape = analyze_design(
      graph::load_design(root + "/samples/analysis/shape_mismatch.pitl"));
  EXPECT_TRUE(fires(shape, "BAN306"));
  const auto clean = analyze_design(
      graph::load_design(root + "/samples/analysis/clean_loops.pitl"));
  EXPECT_TRUE(clean.empty()) << emit_text(clean);
}

}  // namespace
}  // namespace banger::analyze

// Golden tests for the static-analysis engine: every diagnostic code
// fires on a minimal fixture and stays silent on the clean variant,
// the emitters produce well-shaped output, and the lint wrapper stays
// deterministic.
#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/absint.hpp"
#include "analyze/analyze.hpp"
#include "cli/cli.hpp"
#include "core/lint.hpp"
#include "exec/executor.hpp"
#include "graph/serialize.hpp"
#include "pits/ast.hpp"
#include "scoped_env.hpp"
#include "util/strings.hpp"
#include "workloads/designs.hpp"
#include "workloads/lu.hpp"

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
  return *it;
}

// ---------------------------------------------------------------- catalog

TEST(Catalog, CodesAreSortedUniqueAndResolvable) {
  const auto& rules = diagnostic_rules();
  ASSERT_FALSE(rules.empty());
  for (std::size_t i = 1; i < rules.size(); ++i) {
    EXPECT_LT(rules[i - 1].code, rules[i].code);
  }
  for (const auto& rule : rules) {
    const DiagnosticRule* found = find_rule(rule.code);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->title, rule.title);
  }
  EXPECT_EQ(find_rule("BAN999"), nullptr);
}

TEST(Catalog, SortAndDedupeIsDeterministic) {
  Diagnostic err{"BAN104", Severity::Error, "task", "b", "boom", "", {3, 1}};
  Diagnostic warn{"BAN102", Severity::Warning, "task", "a", "dead", "", {1, 1}};
  std::vector<Diagnostic> diags{warn, err, warn};  // duplicate warning
  sort_and_dedupe(diags);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].code, "BAN104");  // errors first
  EXPECT_EQ(diags[1].code, "BAN102");
}

// ------------------------------------------------------- interface layer

TEST(InterfaceRules, Ban001OutputsWithoutRoutine) {
  const auto diags = check("design d\ngraph g\n  task t out=r\n  store r\n"
                           "  arc t -> r var=r\n");
  EXPECT_TRUE(fires(diags, "BAN001"));
  EXPECT_EQ(get(diags, "BAN001").pos.line, 3);  // the task directive
  const auto clean = check(
      "design d\ngraph g\n  task t out=r\n  pits {\n    r := 1\n  }\n"
      "  store r\n  arc t -> r var=r\n");
  EXPECT_FALSE(fires(clean, "BAN001"));
}

TEST(InterfaceRules, Ban002SkeletonTask) {
  const std::string pitl = "design d\ngraph g\n  task todo\n";
  EXPECT_TRUE(fires(check(pitl), "BAN002"));
  AnalyzeOptions lax;
  lax.require_pits = false;
  EXPECT_FALSE(fires(check(pitl, lax), "BAN002"));
}

TEST(InterfaceRules, Ban003ParseFailureCarriesPosition) {
  const auto diags = check(
      "design d\ngraph g\n  task t out=r\n  pits {\n    r := := 1\n  }\n"
      "  store r\n  arc t -> r var=r\n");
  const Diagnostic& d = get(diags, "BAN003");
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.pos.line, 5);  // file line of the broken PITS statement
  EXPECT_FALSE(fires(check("design d\ngraph g\n  task t out=r\n  pits {\n"
                           "    r := 1\n  }\n  store r\n  arc t -> r var=r\n"),
                     "BAN003"));
}

TEST(InterfaceRules, Ban004UndeclaredRead) {
  const auto diags = check(
      "design d\ngraph g\n  task t out=r\n  pits {\n    r := mystery\n  }\n"
      "  store r\n  arc t -> r var=r\n");
  EXPECT_TRUE(fires(diags, "BAN004"));
  EXPECT_NE(get(diags, "BAN004").hint.find("in= list"), std::string::npos);
}

TEST(InterfaceRules, Ban005UnreadInput) {
  const auto diags = check(
      "design d\ngraph g\n  store a\n  task t in=a out=r\n  pits {\n"
      "    r := 1\n  }\n  store r\n  arc a -> t var=a\n  arc t -> r var=r\n");
  EXPECT_TRUE(fires(diags, "BAN005"));
}

/// `p` writes `e`, and two tasks read it: `t1` (out=f1) and `t2`
/// (out=f2), each running the line `before` (when given) and then
/// assigning `rhs` to its output — renamed copies of one routine, which
/// analysis checks once per shape.
std::string constant_named_input(const std::string& rhs,
                                 const std::string& before = "") {
  std::string pitl =
      "design d\ngraph g\n  store se\n  store s1\n  store s2\n"
      "  task p out=e\n  pits {\n    e := 2\n  }\n"
      "  arc p -> se var=e\n";
  for (const std::string t : {"1", "2"}) {
    pitl += "  task t" + t + " in=e out=f" + t + "\n  pits {\n";
    if (!before.empty()) pitl += "    " + before + "\n";
    pitl += "    f" + t + " := " + rhs + "\n  }\n  arc se -> t" + t +
            " var=e\n  arc t" + t + " -> s" + t + " var=f" + t + "\n";
  }
  return pitl;
}

TEST(InterfaceRules, Ban005CountsAReadOfAConstantNamedInput) {
  // A bound input shadows the calculator constant `e`, so reading `e`
  // reads the input: nothing to report, for either copy.
  EXPECT_TRUE(check(constant_named_input("e + 1")).empty());
  // Declared but never mentioned, or mentioned only in a formula body,
  // which reads the constant, not the input: each copy reports it.
  const auto unread = [](const std::vector<Diagnostic>& diags) {
    std::vector<std::string> out;
    for (const Diagnostic& d : diags) out.push_back(d.code + " " + d.subject);
    return out;
  };
  const std::vector<std::string> both{"BAN005 t1", "BAN005 t2"};
  EXPECT_EQ(unread(check(constant_named_input("1"))), both);
  EXPECT_EQ(
      unread(check(constant_named_input("g(1)", "formula g(x) := x * e"))),
      both);
}

TEST(InterfaceRules, Ban006UnassignedOutput) {
  const auto diags = check(
      "design d\ngraph g\n  task t out=r\n  pits {\n    x := 1\n  }\n"
      "  store r\n  arc t -> r var=r\n");
  EXPECT_TRUE(fires(diags, "BAN006"));
}

TEST(InterfaceRules, Ban007WorkEstimate) {
  const std::string pitl =
      "design d\ngraph g\n  task t work=5000 out=r\n  pits {\n    r := 1\n"
      "  }\n  store r\n  arc t -> r var=r\n";
  AnalyzeOptions opts;
  opts.work_estimate_factor = 100.0;
  EXPECT_TRUE(fires(check(pitl, opts), "BAN007"));
  EXPECT_FALSE(fires(check(pitl), "BAN007"));  // off by default
}

TEST(InterfaceRules, Ban008DeadStore) {
  const auto diags = check(
      "design d\ngraph g\n  store orphan\n  task t out=r\n  pits {\n"
      "    r := 1\n  }\n  store r\n  arc t -> r var=r\n");
  EXPECT_TRUE(fires(diags, "BAN008"));
  EXPECT_EQ(get(diags, "BAN008").pos.line, 3);  // the store directive
}

TEST(InterfaceRules, Ban009UnboundInput) {
  const auto diags = check(
      "design d\ngraph g\n  task t in=a out=r\n  pits {\n    r := a\n  }\n"
      "  store r\n  arc t -> r var=r\n");
  EXPECT_TRUE(fires(diags, "BAN009"));
}

TEST(InterfaceRules, Ban010UnobservableWork) {
  const auto diags = check(
      "design d\ngraph g\n  task useful out=r\n  pits {\n    r := 1\n  }\n"
      "  task wasted\n  pits {\n    x := 1\n  }\n"
      "  store r\n  arc useful -> r var=r\n");
  EXPECT_TRUE(fires(diags, "BAN010"));
  EXPECT_EQ(get(diags, "BAN010").subject, "wasted");
}

// ------------------------------------------------------ PITS dataflow layer

std::string routine_design(const std::string& body,
                           const std::string& io = "in=a out=r") {
  std::string pitl = "design d\ngraph g\n  store a\n  task t " + io +
                     "\n  pits {\n";
  std::istringstream lines(body);
  for (std::string line; std::getline(lines, line);) {
    pitl += "    " + line + "\n";
  }
  pitl += "  }\n  store r\n  arc a -> t var=a\n  arc t -> r var=r\n";
  return pitl;
}

TEST(PitsRules, Ban101UseBeforeDef) {
  const auto diags = check(routine_design(
      "if a > 0 then\n  s := 1\nend\nr := s"));
  const Diagnostic& d = get(diags, "BAN101");
  EXPECT_NE(d.message.find("`s`"), std::string::npos);
  EXPECT_EQ(d.pos.line, 9);  // `r := s` is file line 9
  EXPECT_FALSE(fires(check(routine_design(
                   "s := 0\nif a > 0 then\n  s := 1\nend\nr := s")),
               "BAN101"));
}

TEST(PitsRules, Ban101BothBranchesAssignIsClean) {
  EXPECT_FALSE(fires(check(routine_design(
                   "if a > 0 then\n  s := 1\nelse\n  s := 2\nend\nr := s")),
               "BAN101"));
}

TEST(PitsRules, Ban101ForLoopVarMayNotBeAssigned) {
  // Zero-iteration loops leave the loop variable unassigned afterwards.
  EXPECT_TRUE(fires(check(routine_design(
                  "for i := 1 to sum(a) do\n  x := i\nend\nr := i")),
              "BAN101"));
  EXPECT_FALSE(fires(check(routine_design(
                   "r := 0\nfor i := 1 to sum(a) do\n  r := r + i\nend")),
               "BAN101"));
}

TEST(PitsRules, Ban102DeadStore) {
  const auto diags = check(routine_design("unused := a\nr := 1"));
  EXPECT_TRUE(fires(diags, "BAN102"));
  EXPECT_NE(get(diags, "BAN102").message.find("`unused`"),
            std::string::npos);
  // Outputs are never dead.
  EXPECT_FALSE(fires(check(routine_design("r := a")), "BAN102"));
}

TEST(PitsRules, Ban103UnreachableAfterReturn) {
  const auto diags = check(routine_design("r := a\nreturn\nr := 0"));
  EXPECT_TRUE(fires(diags, "BAN103"));
  // A return guarded by `if` does not cut the rest of the block.
  EXPECT_FALSE(fires(check(routine_design(
                   "r := a\nif sum(a) > 0 then\n  return\nend\nr := 0")),
               "BAN103"));
}

TEST(PitsRules, Ban104DivisionByConstantZero) {
  EXPECT_TRUE(fires(check(routine_design("r := 1 / 0")), "BAN104"));
  // Constant propagation reaches the divisor through assignments.
  const auto diags = check(routine_design("n := 2 - 2\nr := a[0] mod n"));
  EXPECT_TRUE(fires(diags, "BAN104"));
  // A loop reassigning the divisor kills the constant.
  EXPECT_FALSE(fires(check(routine_design(
                   "n := 0\nfor i := 1 to 3 do\n  n := n + i\nend\n"
                   "r := 1 / n")),
               "BAN104"));
}

TEST(PitsRules, Ban105ConstantIndexOutOfRange) {
  const auto diags = check(routine_design("v := [1, 2, 3]\nr := v[3]"));
  const Diagnostic& d = get(diags, "BAN105");
  EXPECT_NE(d.message.find("[0,3)"), std::string::npos);
  EXPECT_FALSE(fires(check(routine_design("v := [1, 2, 3]\nr := v[2]")),
               "BAN105"));
}

TEST(PitsRules, Ban106UnknownFunctionSuggests) {
  const auto diags = check(routine_design("r := sqrtt(a)"));
  const Diagnostic& d = get(diags, "BAN106");
  EXPECT_NE(d.hint.find("sqrt"), std::string::npos);
  EXPECT_FALSE(fires(check(routine_design("r := sqrt(sum(a))")), "BAN106"));
}

TEST(PitsRules, Ban107ArityMismatch) {
  // Builtin, formula, and the `when` special form.
  EXPECT_TRUE(fires(check(routine_design("r := sqrt(a, 2)")), "BAN107"));
  EXPECT_TRUE(fires(check(routine_design(
                  "formula f(x, y) := x + y\nr := f(a)")),
              "BAN107"));
  EXPECT_TRUE(fires(check(routine_design("r := when(a)")), "BAN107"));
  EXPECT_FALSE(fires(check(routine_design(
                   "formula f(x, y) := x + y\n"
                   "r := when(sum(a) > 0, f(1, 2), sqrt(4))")),
               "BAN107"));
}

TEST(PitsRules, Ban108NonTerminatingWhile) {
  EXPECT_TRUE(fires(check(routine_design(
                  "x := 1\nwhile x > 0 do\n  r := x\nend")),
              "BAN108"));
  // Assigning a condition variable in the body is progress.
  EXPECT_FALSE(fires(check(routine_design(
                   "x := 1\nr := 0\nwhile x > 0 do\n  x := x - 1\n"
                   "  r := r + 1\nend")),
               "BAN108"));
  // A `return` inside the loop is also an exit.
  EXPECT_FALSE(fires(check(routine_design(
                   "x := 1\nr := 0\nwhile x > 0 do\n  return\nend")),
               "BAN108"));
}

// ------------------------------------------------------ determinacy layer

const char* kRaceDesign =
    "design race\n"
    "graph main\n"
    "  task w1 out=x\n"
    "  pits {\n"
    "    x := 1\n"
    "  }\n"
    "  task w2 out=x\n"
    "  pits {\n"
    "    x := 2\n"
    "  }\n"
    "  task r in=x out=y\n"
    "  pits {\n"
    "    y := x + 1\n"
    "  }\n"
    "  store x\n"
    "  store y\n"
    "  arc w1 -> x var=x\n"
    "  arc w2 -> x var=x\n"
    "  arc x -> r var=x\n"
    "  arc r -> y var=y\n";

TEST(DeterminacyRules, Ban201UnorderedWritersToReadStore) {
  const auto diags = check(kRaceDesign);
  const Diagnostic& d = get(diags, "BAN201");
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_NE(d.message.find("`w1`"), std::string::npos);
  EXPECT_NE(d.message.find("`w2`"), std::string::npos);
  EXPECT_EQ(d.pos.line, 15);  // the store directive has a source span
}

TEST(DeterminacyRules, Ban201SilentWhenWritersOrdered) {
  // w1 -> m -> w2 orders the two writers of x.
  const auto diags = check(
      "design ordered\ngraph main\n"
      "  task w1 out=x,m\n  pits {\n    x := 1\n    m := 0\n  }\n"
      "  store m\n"
      "  task w2 in=m out=x\n  pits {\n    x := m + 1\n  }\n"
      "  task r in=x out=y\n  pits {\n    y := x\n  }\n"
      "  store x\n  store y\n"
      "  arc w1 -> m var=m\n  arc m -> w2 var=m\n"
      "  arc w1 -> x var=x\n  arc w2 -> x var=x\n"
      "  arc x -> r var=x\n  arc r -> y var=y\n");
  EXPECT_FALSE(fires(diags, "BAN201"));
  EXPECT_FALSE(fires(diags, "BAN203"));
}

TEST(DeterminacyRules, Ban203ScheduleDependentOutputMerge) {
  const auto diags = check(
      "design merge\ngraph main\n"
      "  task w1 out=x\n  pits {\n    x := 1\n  }\n"
      "  task w2 out=x\n  pits {\n    x := 2\n  }\n"
      "  store x\n"
      "  arc w1 -> x var=x\n  arc w2 -> x var=x\n");
  const Diagnostic& d = get(diags, "BAN203");
  EXPECT_EQ(d.severity, Severity::Warning);
  EXPECT_FALSE(fires(diags, "BAN201"));  // nobody reads x
}

TEST(DeterminacyRules, Ban202VarAliasedStores) {
  // Root store `x` and child store `x` alias one variable name; the root
  // reader is unordered with the child writer.
  const auto diags = check(
      "design alias\ngraph main\n"
      "  task w1 out=x\n  pits {\n    x := 1\n  }\n"
      "  store x\n"
      "  task r in=x out=y\n  pits {\n    y := x\n  }\n"
      "  store y\n"
      "  super sup graph=child\n"
      "  arc w1 -> x var=x\n  arc x -> r var=x\n  arc r -> y var=y\n"
      "graph child\n"
      "  task w2 out=x\n  pits {\n    x := 2\n  }\n"
      "  store x\n"
      "  arc w2 -> x var=x\n");
  EXPECT_TRUE(fires(diags, "BAN202"));
  // Distinct variable names: no aliasing, no conflict.
  const auto clean = check(
      "design alias\ngraph main\n"
      "  task w1 out=x\n  pits {\n    x := 1\n  }\n"
      "  store x\n"
      "  task r in=x out=y\n  pits {\n    y := x\n  }\n"
      "  store y\n"
      "  super sup graph=child\n"
      "  arc w1 -> x var=x\n  arc x -> r var=x\n  arc r -> y var=y\n"
      "graph child\n"
      "  task w2 out=z\n  pits {\n    z := 2\n  }\n"
      "  store z\n"
      "  arc w2 -> z var=z\n");
  EXPECT_FALSE(fires(clean, "BAN202"));
}

// -------------------------------------------------------------- emitters

TEST(Emitters, TextFormat) {
  const auto diags = check(kRaceDesign);
  EmitOptions opts;
  opts.file = "race.pitl";
  const std::string text = emit_text(diags, opts);
  EXPECT_NE(text.find("race.pitl:15:1: error[BAN201]"), std::string::npos);
  EXPECT_NE(text.find("hint:"), std::string::npos);
  EXPECT_NE(text.find("1 error(s)"), std::string::npos);
  EXPECT_NE(emit_text({}, opts).find("clean"), std::string::npos);
}

TEST(Emitters, JsonFormat) {
  const auto diags = check(kRaceDesign);
  EmitOptions opts;
  opts.file = "race.pitl";
  const std::string json = emit_json(diags, opts);
  EXPECT_NE(json.find("\"file\": \"race.pitl\""), std::string::npos);
  EXPECT_NE(json.find("\"code\": \"BAN201\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 15"), std::string::npos);
  // Escaping: backticks are fine, but quotes/newlines must be escaped.
  Diagnostic tricky{"BAN104", Severity::Error, "task", "t",
                    "a \"quoted\"\nmessage", "", {1, 1}};
  const std::string escaped = emit_json({tricky}, {});
  EXPECT_NE(escaped.find("a \\\"quoted\\\"\\nmessage"), std::string::npos);
}

TEST(Emitters, SarifShape) {
  const auto diags = check(kRaceDesign);
  EmitOptions opts;
  opts.file = "race.pitl";
  const std::string sarif = emit_sarif(diags, opts);
  for (const char* needle :
       {"\"$schema\"", "sarif-2.1.0", "\"version\": \"2.1.0\"", "\"runs\"",
        "\"tool\"", "\"driver\"", "\"name\": \"banger\"", "\"rules\"",
        "\"results\"", "\"ruleId\": \"BAN201\"", "\"level\": \"error\"",
        "\"physicalLocation\"", "\"artifactLocation\"",
        "\"uri\": \"race.pitl\"", "\"startLine\": 15", "\"startColumn\": 1"}) {
    EXPECT_NE(sarif.find(needle), std::string::npos) << needle;
  }
  // The rules array carries the whole catalog, fired or not.
  EXPECT_NE(sarif.find("\"id\": \"BAN108\""), std::string::npos);
  // Empty runs still have the tool block and an empty results array.
  const std::string empty = emit_sarif({}, opts);
  EXPECT_NE(empty.find("\"results\": []"), std::string::npos);
}

// -------------------------------------------------- clean designs + wrapper

TEST(CleanDesigns, WorkloadsPassAllLayers) {
  using banger::workloads::lu3x3_design;
  using banger::workloads::montecarlo_design;
  using banger::workloads::polyeval_design;
  using banger::workloads::signal_pipeline_design;
  EXPECT_TRUE(analyze_design(lu3x3_design()).empty());
  EXPECT_TRUE(analyze_design(montecarlo_design(3, 10)).empty());
  EXPECT_TRUE(analyze_design(signal_pipeline_design(2)).empty());
  EXPECT_TRUE(analyze_design(polyeval_design(2)).empty());
}

// One design with findings in many tasks: BAN003-BAN006, every
// BAN101-BAN108, and BAN301-BAN306 including a cross-task shape
// conflict. The per-routine layers run across worker threads, so this
// is the design the thread-count invariance checks use.
const char* kManyFindings =
    "design many_findings\n"
    "graph g\n"
    "  store xs\n"
    "  store out\n"
    "  task broken in=xs out=p\n"
    "  pits {\n"
    "    p := := xs\n"
    "  }\n"
    "  task undeclared in=xs out=q\n"
    "  pits {\n"
    "    q := mystery + len(xs)\n"
    "  }\n"
    "  task unread in=xs,p out=r\n"
    "  pits {\n"
    "    r := len(xs)\n"
    "  }\n"
    "  task unassigned in=q out=s,s2\n"
    "  pits {\n"
    "    s := q\n"
    "  }\n"
    "  task flow in=r out=t\n"
    "  pits {\n"
    "    if r > 0 then\n"
    "      u := 1\n"
    "    end\n"
    "    dead := r\n"
    "    t := u + 1 / 0\n"
    "    v := [1, 2, 3]\n"
    "    t := t + v[3] + sqrtt(r) + sqrt(r, 2)\n"
    "    x := 1\n"
    "    while x > 0 do\n"
    "      t := t + x\n"
    "    end\n"
    "    return\n"
    "    t := 0\n"
    "  }\n"
    "  task div_zero in=xs out=a\n"
    "  pits {\n"
    "    m := 0\n"
    "    for i := 1 to 3 do\n"
    "      m := m * i\n"
    "    end\n"
    "    a := 10 / m + len(xs)\n"
    "  }\n"
    "  task oob in=a out=b\n"
    "  pits {\n"
    "    w := zeros(4)\n"
    "    b := a\n"
    "    for j := 4 to 9 do\n"
    "      b := b + w[j]\n"
    "    end\n"
    "  }\n"
    "  task fixed_branch in=xs,b out=c\n"
    "  pits {\n"
    "    if len(xs) >= 0 then\n"
    "      c := b\n"
    "    else\n"
    "      c := 0 - b\n"
    "    end\n"
    "  }\n"
    "  task endless in=c out=d\n"
    "  pits {\n"
    "    k := 1\n"
    "    while k > 0 do\n"
    "      k := k + 1\n"
    "    end\n"
    "    d := c + k\n"
    "  }\n"
    "  task lengths in=d out=g2\n"
    "  pits {\n"
    "    u := [1, 2]\n"
    "    v := [1, 2, 3]\n"
    "    g2 := sum(u + v) + d\n"
    "  }\n"
    "  task maker in=g2 out=vec\n"
    "  pits {\n"
    "    vec := 7 + sum(g2)\n"
    "  }\n"
    "  task user in=vec,s,t out=f\n"
    "  pits {\n"
    "    acc := s + t\n"
    "    for i := 0 to 2 do\n"
    "      acc := acc + vec[i]\n"
    "    end\n"
    "    f := acc\n"
    "  }\n"
    "  task finish in=f out=out\n"
    "  pits {\n"
    "    out := f\n"
    "  }\n"
    "  store vec\n"
    "  arc xs -> broken var=xs\n"
    "  arc xs -> undeclared var=xs\n"
    "  arc xs -> unread var=xs\n"
    "  arc broken -> unread var=p\n"
    "  arc undeclared -> unassigned var=q\n"
    "  arc unread -> flow var=r\n"
    "  arc xs -> div_zero var=xs\n"
    "  arc div_zero -> oob var=a\n"
    "  arc xs -> fixed_branch var=xs\n"
    "  arc oob -> fixed_branch var=b\n"
    "  arc fixed_branch -> endless var=c\n"
    "  arc endless -> lengths var=d\n"
    "  arc lengths -> maker var=g2\n"
    "  arc maker -> vec var=vec\n"
    "  arc vec -> user var=vec\n"
    "  arc unassigned -> user var=s\n"
    "  arc flow -> user var=t\n"
    "  arc user -> finish var=f\n"
    "  arc finish -> out var=out\n";

TEST(LintWrapper, MatchesInterfaceLayerAndStaysDeterministic) {
  const std::string small =
      "design d\ngraph g\n  store dead1\n  store dead2\n"
      "  task t out=r\n  pits {\n    r := oops\n  }\n"
      "  store r\n  arc t -> r var=r\n";
  for (const std::string& pitl : {small, std::string(kManyFindings)}) {
    const auto design = graph::parse_design(pitl);
    const auto flat = design.flatten();
    const auto issues1 = lint_design(flat);
    std::vector<LintIssue> issues2;
    {
      const tests::ScopedEnv one_worker("BANGER_JOBS", "1");
      issues2 = lint_design(flat);
    }
    ASSERT_EQ(issues1.size(), issues2.size());
    for (std::size_t i = 0; i < issues1.size(); ++i) {
      EXPECT_EQ(issues1[i].to_string(), issues2[i].to_string());
    }
    EXPECT_TRUE(has_errors(issues1));
    EXPECT_EQ(issues1.front().severity, LintSeverity::Error);
    // Same rules as the engine's interface layer.
    AnalyzeOptions iface;
    iface.pits_rules = false;
    iface.determinacy_rules = false;
    EXPECT_EQ(issues1.size(), analyze_design(design, iface).size());
  }
}

// ------------------------------------------------------------------- CLI

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path =
      ::testing::TempDir() + "analyze_cli_" + name + ".pitl";
  std::ofstream out(path);
  out << text;
  return path;
}

int run_cli(const std::vector<std::string>& args, std::string* stdout_text) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli::run(args, out, err);
  if (stdout_text != nullptr) *stdout_text = out.str();
  return code;
}

TEST(CheckCommand, RaceFailsAndCleanPassesInAllFormats) {
  const std::string race = write_temp("race", kRaceDesign);
  const std::string clean = write_temp(
      "clean",
      "design ok\ngraph g\n  store a\n  task t in=a out=r\n  pits {\n"
      "    r := sum(a)\n  }\n  store r\n  arc a -> t var=a\n"
      "  arc t -> r var=r\n");
  std::string out;
  EXPECT_EQ(run_cli({"check", race}, &out), 1);
  EXPECT_NE(out.find("BAN201"), std::string::npos);
  for (const char* format : {"text", "json", "sarif"}) {
    EXPECT_EQ(run_cli({"check", clean, "--format", format}, &out), 0)
        << format;
  }
}

TEST(CheckCommand, FailOnWarningTightensExit) {
  const std::string warn = write_temp(
      "warn",
      "design w\ngraph g\n  store a\n  task t in=a out=r\n  pits {\n"
      "    unused := a\n    r := 1\n  }\n  store r\n  arc a -> t var=a\n"
      "  arc t -> r var=r\n");
  std::string out;
  EXPECT_EQ(run_cli({"check", warn}, &out), 0);  // warnings pass by default
  EXPECT_NE(out.find("BAN102"), std::string::npos);
  EXPECT_EQ(run_cli({"check", warn, "--fail-on", "warning"}, &out), 1);
}

TEST(CheckCommand, SameBytesForAnyWorkerCount) {
  const std::string path = write_temp("many", kManyFindings);
  const auto diags = check(kManyFindings);
  for (const char* code :
       {"BAN003", "BAN004", "BAN005", "BAN006", "BAN101", "BAN102", "BAN103",
        "BAN104", "BAN105", "BAN106", "BAN107", "BAN108", "BAN301", "BAN302",
        "BAN303", "BAN304", "BAN305", "BAN306"}) {
    EXPECT_TRUE(fires(diags, code)) << code;
  }
  for (const char* format : {"text", "json", "sarif"}) {
    std::string sequential;
    std::string parallel;
    {
      const tests::ScopedEnv jobs("BANGER_JOBS", "1");
      EXPECT_EQ(run_cli({"check", path, "--format", format}, &sequential), 1);
    }
    {
      const tests::ScopedEnv jobs("BANGER_JOBS", "4");
      EXPECT_EQ(run_cli({"check", path, "--format", format}, &parallel), 1);
    }
    EXPECT_EQ(sequential, parallel) << format;
  }
}

TEST(LintCommand, JsonOutput) {
  const std::string bad = write_temp(
      "lintjson",
      "design b\ngraph g\n  task t out=r\n  pits {\n    x := 1\n  }\n"
      "  store r\n  arc t -> r var=r\n");
  std::string out;
  EXPECT_EQ(run_cli({"lint", bad, "--json"}, &out), 1);
  EXPECT_NE(out.find("\"code\": \"BAN006\""), std::string::npos);
  EXPECT_NE(out.find("\"diagnostics\""), std::string::npos);
  // Interface layer only: no PITS dataflow codes in lint output.
  EXPECT_EQ(out.find("BAN102"), std::string::npos);
}

// --------------------------------------------------------- nesting limit

/// Three tasks whose routines nest exactly `levels` deep (see
/// pits::kMaxNesting): a call chain, a left-associative sum, and nested
/// `if` bodies. Three routines make the front end fan out, so they are
/// parsed, analysed and compiled on worker threads.
std::string nested_design(int levels) {
  const int n = levels - 1;
  std::string calls = "x";
  std::string sum = "x";
  std::string ifs;
  std::string ends;
  for (int i = 0; i < n; ++i) {
    calls = "abs(" + calls + ")";
    sum += " + x";
    ifs += "    if x < 0 then\n";
    ends += "    end\n";
  }
  return "design deep\ngraph g\n  store x\n"
         "  task calls in=x out=y\n  pits {\n    y := " + calls +
         "\n  }\n  task sum in=x out=z\n  pits {\n    z := " + sum +
         "\n  }\n  task ifs in=x out=w\n  pits {\n    w := 0\n" + ifs +
         "    w := x\n" + ends +
         "  }\n  store y\n  store z\n  store w\n"
         "  arc x -> calls var=x\n  arc x -> sum var=x\n"
         "  arc x -> ifs var=x\n  arc calls -> y var=y\n"
         "  arc sum -> z var=z\n  arc ifs -> w var=w\n";
}

TEST(NestingLimit, DesignAtTheLimitIsAnalysedAndRuns) {
  const tests::ScopedEnv jobs("BANGER_JOBS", "4");
  const auto design = graph::parse_design(nested_design(pits::kMaxNesting));
  EXPECT_FALSE(fires(analyze_design(design), "BAN003"));
  const exec::RunResult result =
      exec::run_sequential(design.flatten(), {{"x", pits::Value(-2.5)}});
  EXPECT_EQ(result.outputs.at("y"), pits::Value(2.5));
  EXPECT_EQ(result.outputs.at("z"), pits::Value(-2.5 * pits::kMaxNesting));
  EXPECT_EQ(result.outputs.at("w"), pits::Value(-2.5));
}

TEST(NestingLimit, OneLevelDeeperIsRejectedWithPositions) {
  const tests::ScopedEnv jobs("BANGER_JOBS", "4");
  const auto design =
      graph::parse_design(nested_design(pits::kMaxNesting + 1));
  int rejected = 0;
  for (const Diagnostic& d : analyze_design(design)) {
    if (d.code != "BAN003") continue;
    ++rejected;
    EXPECT_TRUE(d.pos.valid()) << d.subject;
    EXPECT_NE(d.message.find("nests deeper than"), std::string::npos);
  }
  EXPECT_EQ(rejected, 3);
  try {
    (void)exec::run_sequential(design.flatten(), {{"x", pits::Value(1.0)}});
    ADD_FAILURE() << "a routine past the limit ran";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Parse);
    EXPECT_TRUE(e.pos().valid());
    EXPECT_EQ(e.message().rfind("in task `calls`: routine nests deeper", 0),
              0u)
        << e.message();
  }
}

// ------------------------------------------------------- symbol edge cases

/// One task `t` reading each of `ins` from its own store and writing
/// each of `outs` to its own store; `body` lines are the routine.
std::string one_task(std::string_view name, std::vector<std::string> ins,
                     std::vector<std::string> outs, std::string_view body) {
  std::string pitl = "design " + std::string(name) + "\ngraph " +
                     std::string(name) + "\n";
  for (const auto& v : ins) pitl += "  store in_" + v + " bytes=8\n";
  for (const auto& v : outs) pitl += "  store out_" + v + " bytes=8\n";
  pitl += "  task t work=1";
  auto list = [](const std::vector<std::string>& vs) {
    std::string joined;
    for (const auto& v : vs) joined += (joined.empty() ? "" : ",") + v;
    return joined;
  };
  if (!ins.empty()) pitl += " in=" + list(ins);
  if (!outs.empty()) pitl += " out=" + list(outs);
  pitl += "\n  pits {\n";
  for (const auto line : util::split(body, '\n')) {
    if (!line.empty()) pitl += "    " + std::string(line) + "\n";
  }
  pitl += "  }\n";
  for (const auto& v : ins) {
    pitl += "  arc in_" + v + " -> t var=" + v + " bytes=8\n";
  }
  for (const auto& v : outs) {
    pitl += "  arc t -> out_" + v + " var=" + v + " bytes=8\n";
  }
  return pitl;
}

/// "CODE:line:column" of each diagnostic, in report order.
std::vector<std::string> spots(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  for (const Diagnostic& d : diags) {
    out.push_back(d.code + ":" + std::to_string(d.pos.line) + ":" +
                  std::to_string(d.pos.column));
  }
  return out;
}

// Names that stress the parser's symbol ids must keep every report the
// analysis has always made, at the same spots.
TEST(SymbolEdgeCases, DiagnosticsAreUnchanged) {
  using Spots = std::vector<std::string>;
  // Long names (past a string's inline buffer).
  EXPECT_EQ(spots(check(one_task(
                "long", {"input_with_a_long_name"},
                {"another_rather_long_name"},
                "a_rather_long_variable_name := input_with_a_long_name + 1\n"
                "another_rather_long_name := a_rather_long_variable_name * 2\n"
                "unused_but_quite_long_name := another_rather_long_name\n"))),
            (Spots{"BAN009:5:1", "BAN102:9:5"}));
  // Variables and inputs shadowing calculator constants.
  EXPECT_EQ(spots(check(one_task("consts", {"r", "pi"}, {"area", "y"},
                                 "area := pi * r * r\n"
                                 "e := e + 1\n"
                                 "y := e + golden / 0\n"))),
            (Spots{"BAN009:7:1", "BAN009:7:1", "BAN104:11:23"}));
  // Formula parameters named like task variables.
  EXPECT_EQ(spots(check(one_task("params", {}, {"y", "z"},
                                 "x := 5\n"
                                 "formula f(x, y) := x * 2 + y\n"
                                 "y := f(3, x) + x\n"
                                 "z := f(y)\n"))),
            (Spots{"BAN107:10:10"}));
  // For variables read after their loops.
  EXPECT_EQ(spots(check(one_task("forvar", {"n"}, {"y", "z"},
                                 "s := 0\n"
                                 "for i := 1 to n do\n"
                                 "  s := s + i\n"
                                 "end\n"
                                 "y := i + s\n"
                                 "for j := 1 to 3 do\n"
                                 "  s := s + j\n"
                                 "end\n"
                                 "z := j\n"))),
            (Spots{"BAN009:6:1", "BAN101:12:10"}));
  // Names that differ only in case.
  EXPECT_EQ(spots(check(one_task("case", {}, {"ABC", "y"},
                                 "Abc := 1\n"
                                 "abc := 2\n"
                                 "ABC := Abc - abc\n"
                                 "y := aBc\n"))),
            (Spots{"BAN004:5:1"}));
  // A declared output the routine never mentions but receives as input.
  EXPECT_EQ(spots(check("design passthru\n"
                        "graph passthru\n"
                        "  store src bytes=8\n"
                        "  store mid bytes=8\n"
                        "  store dst bytes=8\n"
                        "  task p work=1 out=v\n"
                        "  pits {\n"
                        "    v := 5\n"
                        "  }\n"
                        "  task t work=1 in=v out=v,z\n"
                        "  pits {\n"
                        "    z := 1\n"
                        "  }\n"
                        "  task c work=1 in=v out=w\n"
                        "  pits {\n"
                        "    w := v[0] + len(v)\n"
                        "  }\n"
                        "  arc p -> src var=v bytes=8\n"
                        "  arc src -> t var=v bytes=8\n"
                        "  arc t -> mid var=v bytes=8\n"
                        "  arc mid -> c var=v bytes=8\n"
                        "  arc c -> dst var=w bytes=8\n")),
            (Spots{"BAN006:10:1", "BAN005:10:1"}));
  // Interval and cross-task shape reports through long names.
  EXPECT_EQ(
      spots(check("design shape\n"
                  "graph shape\n"
                  "  store a_rather_long_output_name bytes=8\n"
                  "  store result bytes=8\n"
                  "  task producer_with_a_long_name work=1 "
                  "out=a_rather_long_output_name\n"
                  "  pits {\n"
                  "    a_rather_long_output_name := 5\n"
                  "    k := 0\n"
                  "    for i := 1 to 3 do\n"
                  "      k := k * 0\n"
                  "    end\n"
                  "    q := 1 / k\n"
                  "  }\n"
                  "  task consumer work=1 in=a_rather_long_output_name out=w\n"
                  "  pits {\n"
                  "    w := a_rather_long_output_name[2] + 1\n"
                  "  }\n"
                  "  arc producer_with_a_long_name -> "
                  "a_rather_long_output_name "
                  "var=a_rather_long_output_name bytes=8\n"
                  "  arc a_rather_long_output_name -> consumer "
                  "var=a_rather_long_output_name bytes=8\n"
                  "  arc consumer -> result var=w bytes=8\n")),
      (Spots{"BAN301:12:14", "BAN306:16:35", "BAN102:12:5"}));
}

// ------------------------------------------------------------- scaling
//
// Each test times a small and a large input, alternating, and bounds the
// ratio of their best-of-seven times, so the bound holds in optimised
// and sanitizer builds alike. The inputs are single-task designs, which
// analyze_design runs on the calling thread, so the clock is that
// thread's CPU time: other processes on a busy machine do not count.

template <typename Small, typename Large>
std::pair<double, double> best_seconds(Small&& small, Large&& large) {
  auto seconds = [](auto&& fn) {
    auto now = [] {
      timespec ts{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
      return static_cast<double>(ts.tv_sec) +
             1e-9 * static_cast<double>(ts.tv_nsec);
    };
    const double start = now();
    fn();
    return now() - start;
  };
  double best_small = 1e30;
  double best_large = 1e30;
  for (int rep = 0; rep < 7; ++rep) {
    best_small = std::min(best_small, seconds(small));
    best_large = std::min(best_large, seconds(large));
  }
  return {best_small, best_large};
}

// One routine of `n` lines `x := a / 0`: every line is a BAN104, and
// absint must find the earlier report at each site without rescanning
// all of them (quadratic before).
TEST(CheckScaling, DivisionReportsAreLinearInRoutineSize) {
  auto design = [](int n) {
    std::string body;
    for (int k = 0; k < n; ++k) body += "x := a / 0\n";
    return graph::parse_design(one_task("divs", {"a"}, {"x"}, body));
  };
  const graph::Design small = design(10000);
  const graph::Design large = design(40000);
  std::vector<Diagnostic> large_diags;
  const auto [t_small, t_large] =
      best_seconds([&] { (void)analyze_design(small); },
                   [&] { large_diags = analyze_design(large); });
  EXPECT_LE(t_large, 6 * t_small)
      << "10k lines: " << t_small << " s, 40k lines: " << t_large << " s";
  ASSERT_EQ(large_diags.size(), 40001u);  // one BAN104 per line + BAN009
  EXPECT_EQ(large_diags.front().code, "BAN009");
  for (std::size_t i = 1; i < large_diags.size(); ++i) {
    ASSERT_EQ(large_diags[i].code, "BAN104") << i;
    ASSERT_EQ(large_diags[i].pos.line, static_cast<int>(i) + 6);
  }
}

// One routine assigning `n` distinct variables once each: analysis and
// a run on the VM stay linear.
TEST(CheckScaling, DistinctNamesAreLinearInRoutineSize) {
  auto routine = [](int n) {
    std::string body;
    for (int k = 0; k < n; ++k) {
      body += "v" + std::to_string(k) + " := " + std::to_string(k) + "\n";
    }
    return body;
  };
  const std::string small_src = routine(7000);
  const std::string large_src = routine(70000);
  const graph::Design small =
      graph::parse_design(one_task("names", {}, {"v0"}, small_src));
  const graph::Design large =
      graph::parse_design(one_task("names", {}, {"v0"}, large_src));
  auto run = [](const std::string& src) {
    pits::Env env;
    pits::Program::parse(src).execute(env);
    return env.size();
  };
  std::size_t warnings = 0;
  std::size_t bound = 0;
  const auto [t_small, t_large] = best_seconds(
      [&] {
        (void)analyze_design(small);
        (void)run(small_src);
      },
      [&] {
        warnings = analyze_design(large).size();
        bound = run(large_src);
      });
  EXPECT_LE(t_large, 20 * t_small)
      << "7k names: " << t_small << " s, 70k names: " << t_large << " s";
  EXPECT_EQ(warnings, 69999u);  // a BAN102 for every v but the output v0
  EXPECT_EQ(bound, 70000u);
}

// One formula per line, each called once: formula frames and scopes
// hold only their parameters, whatever the routine's size.
TEST(CheckScaling, FormulasAreLinearInRoutineSize) {
  auto routine = [](int n) {
    std::string body;
    for (int k = 0; k < n; ++k) {
      const std::string f = "f" + std::to_string(k);
      body += "formula " + f + "(x) := x + " + std::to_string(k) + "\n";
      body += "y" + std::to_string(k) + " := " + f + "(1)\n";
    }
    return body;
  };
  const std::string small_src = routine(2000);
  const std::string large_src = routine(20000);
  const graph::Design small =
      graph::parse_design(one_task("formulas", {}, {"y0"}, small_src));
  const graph::Design large =
      graph::parse_design(one_task("formulas", {}, {"y0"}, large_src));
  auto run = [](const std::string& src) {
    pits::Env env;
    const pits::Program program = pits::Program::parse(src);
    precompile_optimized(program);
    program.execute(env);
    return env;
  };
  std::size_t warnings = 0;
  pits::Env env;
  const auto [t_small, t_large] = best_seconds(
      [&] {
        (void)analyze_design(small);
        (void)run(small_src);
      },
      [&] {
        warnings = analyze_design(large).size();
        env = run(large_src);
      });
  EXPECT_LE(t_large, 20 * t_small)
      << "2k formulas: " << t_small << " s, 20k formulas: " << t_large
      << " s";
  EXPECT_EQ(warnings, 19999u);  // a BAN102 for every y but the output y0
  EXPECT_EQ(env.at("y19999"), pits::Value(20000.0));
}

}  // namespace
}  // namespace banger::analyze

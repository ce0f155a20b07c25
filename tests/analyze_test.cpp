// Golden tests for the static-analysis engine: every diagnostic code
// fires on a minimal fixture and stays silent on the clean variant,
// the emitters produce well-shaped output, and the lint wrapper stays
// deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "analyze/analyze.hpp"
#include "cli/cli.hpp"
#include "core/lint.hpp"
#include "exec/executor.hpp"
#include "graph/serialize.hpp"
#include "pits/ast.hpp"
#include "scoped_env.hpp"
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
    const auto issues1 = lint_design(design);
    std::vector<LintIssue> issues2;
    {
      const tests::ScopedEnv one_worker("BANGER_JOBS", "1");
      issues2 = lint_design(design);
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

}  // namespace
}  // namespace banger::analyze

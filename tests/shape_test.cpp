// Routine shapes (pits/shape.hpp): renamed copies of one routine share
// one compiled chunk and one analysis, and every task still reads them
// through its own text. Three groups of tests:
//   * the key itself — what splits shapes and what does not — and
//     the token lookup that maps a shared chunk to each text;
//   * positions and names across one shape — two tasks whose names
//     differ in length, one with an extra comment line, must report
//     exactly what each reports on its own;
//   * sharing matches per-task work — analyze_design against the
//     per-task layers, and trials of renamed fuzz programs against
//     per-task Program runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/absint.hpp"
#include "analyze/analyze.hpp"
#include "exec/executor.hpp"
#include "graph/serialize.hpp"
#include "obs/trace.hpp"
#include "pits/ast.hpp"
#include "pits/bytecode.hpp"
#include "pits/interp.hpp"
#include "pits/shape.hpp"
#include "program_gen.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads/designs.hpp"
#include "workloads/lu.hpp"

namespace banger {
namespace {

using pits::shape_of;

// ---- the key ---------------------------------------------------------

TEST(ShapeKey, ConsistentRenamingKeepsTheKey) {
  EXPECT_EQ(shape_of("x := y + 1\nz := x * y\n").key,
            shape_of("a_long_name_17 := b + 1\nc := a_long_name_17 * b\n").key);
}

TEST(ShapeKey, InconsistentRenamingChangesTheKey) {
  EXPECT_NE(shape_of("x := y + 1\n").key, shape_of("x := x + 1\n").key);
  EXPECT_NE(shape_of("x := y\nz := y\n").key, shape_of("x := y\nz := x\n").key);
}

TEST(ShapeKey, NamesWhoseSpellingIsTheirMeaningStaySpelled) {
  // `len` is a calculator button, `pi` a constant, `when` the special
  // form: renaming to (or from) any of them changes the routine.
  EXPECT_NE(shape_of("x := v\n").key, shape_of("len := v\n").key);
  EXPECT_NE(shape_of("y := x\n").key, shape_of("y := pi\n").key);
  EXPECT_NE(shape_of("y := f(1, 2, 3)\n").key,
            shape_of("y := when(1, 2, 3)\n").key);
  EXPECT_NE(shape_of("y := sqrt(x)\n").key, shape_of("y := cbrt(x)\n").key);
}

TEST(ShapeKey, CommentsAndBlankLinesDoNotSplitShapes) {
  EXPECT_EQ(shape_of("x := 1\ny := x\n").key,
            shape_of("-- a note\n\nx := 1   -- one\n\n\n  y := x").key);
}

TEST(ShapeKey, LiteralsStaySpelledByValue) {
  EXPECT_NE(shape_of("x := 0.0\n").key, shape_of("x := -0.0\n").key);
  EXPECT_NE(shape_of("x := 1\n").key, shape_of("x := 2\n").key);
  EXPECT_EQ(shape_of("x := 1.50\n").key, shape_of("x := 1.5\n").key);
  EXPECT_NE(shape_of("x := \"a\"\n").key, shape_of("x := \"b\"\n").key);
  EXPECT_NE(shape_of("x := \"ab\"\n").key, shape_of("x := \"a\" + b\n").key);
}

TEST(ShapeKey, ShapeNumbersAreTheParsersSymIds) {
  // The parser numbers identifiers in token order, so a shape number
  // names the same symbol in every routine of the shape.
  const std::string src =
      "formula sq(t) := t * t\n"
      "for i := 0 to len(xs) - 1 do\n"
      "  acc[i] := sq(xs[i]) + when(i > 0, acc[i - 1], pi)\n"
      "end\n"
      "out := acc\n";
  const pits::Shape shape = shape_of(src);
  const pits::Block block = pits::parse_block(src);
  const std::vector<std::string_view> names = pits::symbol_names(block);
  ASSERT_EQ(shape.names.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(shape.names[i], names[i]) << "symbol " << i;
  }
  const pits::Binding tokens(pits::lex(src));
  ASSERT_EQ(tokens.first().size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(tokens.name(tokens.first()[i]), names[i]) << "symbol " << i;
  }
}

TEST(ShapeKey, ChunksCarryTokenIndicesNotPositions) {
  // A token index is half a SourcePos: the shared chunk's instructions
  // shrank from 28 to 24 bytes when they stopped carrying positions.
  EXPECT_EQ(sizeof(pits::bc::Instr), 24u);
}

TEST(ShapeBinding, OneLongLineCompilesInNearLinearTime) {
  // The compiler finds the token of every AST position, and one line
  // may hold a whole routine: a lookup that scanned the line made a
  // 70k-argument call take seconds to compile.
  const auto compile_seconds = [](int args) {
    std::string src = "y := max(x0";
    for (int i = 1; i < args; ++i) src += ", x" + std::to_string(i);
    src += ")\n";
    double best = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
      const auto begin = std::chrono::steady_clock::now();
      (void)pits::Program::parse(src).compiled_chunk();
      const std::chrono::duration<double> took =
          std::chrono::steady_clock::now() - begin;
      best = std::min(best, took.count());
    }
    return best;
  };
  const double small = compile_seconds(4000);
  const double large = compile_seconds(40000);
  // Ten times the tokens cost about ten times the time when a lookup is
  // logarithmic, and about a hundred when it scans the line.
  EXPECT_LT(large, 40 * small) << small << " s, then " << large << " s";
}

// ---- designs from text ---------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) ADD_FAILURE() << "cannot read " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct TaskText {
  std::string name;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::string pits;
  double work = 1;
};

/// A one-graph design with a store per variable its tasks read or
/// write, named after the variable: a task's output feeds every task
/// that reads the same name.
graph::FlattenResult design_of(const std::vector<TaskText>& tasks) {
  std::string text = "design shapes\ngraph shapes\n";
  std::set<std::string> stores;
  for (const TaskText& t : tasks) {
    for (const auto* vars : {&t.inputs, &t.outputs}) {
      for (const std::string& v : *vars) {
        if (stores.insert(v).second) text += "  store " + v + " bytes=8\n";
      }
    }
  }
  for (const TaskText& t : tasks) {
    text += "  task " + t.name + " work=" + util::format_double(t.work);
    if (!t.inputs.empty()) text += " in=" + util::join(t.inputs, ",");
    if (!t.outputs.empty()) text += " out=" + util::join(t.outputs, ",");
    text += "\n  pits {\n";
    std::istringstream lines(t.pits);
    for (std::string line; std::getline(lines, line);) {
      text += "    " + line + "\n";
    }
    text += "  }\n";
    for (const std::string& v : t.inputs) {
      text += "  arc " + v + " -> " + t.name + " var=" + v + " bytes=8\n";
    }
    for (const std::string& v : t.outputs) {
      text += "  arc " + t.name + " -> " + v + " var=" + v + " bytes=8\n";
    }
  }
  return graph::parse_design(text).validate();
}

/// `src` with each whole-word identifier of `names` respelled.
std::string rename(std::string src,
                   const std::map<std::string, std::string>& names) {
  std::string out;
  const std::regex word("[A-Za-z_][A-Za-z_0-9]*");
  auto last = src.cbegin();
  for (std::sregex_iterator it(src.begin(), src.end(), word), end; it != end;
       ++it) {
    out.append(last, (*it)[0].first);
    const auto found = names.find(it->str());
    out += found == names.end() ? it->str() : found->second;
    last = (*it)[0].second;
  }
  out.append(last, src.cend());
  return out;
}

// ---- the per-task oracle -------------------------------------------

/// analyze_design as it ran before shapes were shared: every task's
/// routine layers on its own, merged in the same order.
std::vector<analyze::Diagnostic> per_task_analysis(
    const graph::FlattenResult& flat, const analyze::AnalyzeOptions& options) {
  using namespace analyze;
  const graph::TaskGraph& g = flat.graph;
  std::vector<std::vector<Diagnostic>> interface(g.num_tasks());
  std::vector<std::vector<Diagnostic>> routine(g.num_tasks());
  std::map<graph::TaskId, ShapeSummary> summaries;
  for (graph::TaskId t = 0; t < g.num_tasks(); ++t) {
    const graph::Task& task = g.task(t);
    std::optional<pits::Program> program;
    if (options.interface_rules) {
      program = check_task_interface(task, options, interface[t]);
    } else if (!util::trim(task.pits).empty()) {
      try {
        program = pits::Program::parse(task.pits);
      } catch (const Error&) {
      }
    }
    if (!program || !options.pits_rules) continue;
    RoutineContext ctx;
    ctx.subject = task.name;
    ctx.inputs = task.inputs;
    ctx.outputs = task.outputs;
    ctx.pits_line = task.pits_line;
    ctx.pits_indent = task.pits_indent;
    analyze_routine(program->body(), ctx, routine[t]);
    if (options.absint_rules) {
      summaries.emplace(t, run_absint_rules(program->body(), ctx, routine[t]));
    }
  }
  std::vector<Diagnostic> out;
  auto append = [&](std::vector<Diagnostic>& from) {
    out.insert(out.end(), from.begin(), from.end());
  };
  if (options.interface_rules) {
    for (auto& d : interface) append(d);
    run_store_rules(flat, out);
  }
  if (options.pits_rules) {
    for (auto& d : routine) append(d);
    if (options.absint_rules) run_shape_rules(flat, summaries, out);
  }
  if (options.determinacy_rules) run_determinacy_rules(flat, out);
  sort_and_dedupe(out);
  return out;
}

/// What one routine does on its own: its error (message and position)
/// or its final variables, and its trace echo.
struct Solo {
  bool ok = true;
  std::string error;
  SourcePos pos;
  pits::Env env;
  std::string trace;
};

Solo run_alone(const std::string& src, pits::Env env) {
  Solo solo;
  std::ostringstream trace;
  pits::ExecOptions opts;
  opts.trace = &trace;
  try {
    pits::Program::parse(src).execute(env, opts);
  } catch (const Error& e) {
    solo.ok = false;
    solo.error = e.message();
    solo.pos = e.pos();
  }
  solo.env = std::move(env);
  solo.trace = trace.str();
  return solo;
}

// ---- positions and names across one shape ----------------------------

// One routine, two spellings: every identifier of the long copy is
// longer, and it starts with a comment line, so each of its positions
// differs from the short copy's. `mode` picks the failure.
const char* const kRoutine =
    "formula f(k) := k + m\n"
    "r := 1\n"
    "if a = 1 then\n"
    "  r := 10 / d\n"
    "end\n"
    "if a = 2 then\n"
    "  r := v[5]\n"
    "end\n"
    "if a = 3 then\n"
    "  r := f(2)\n"
    "end\n"
    "if a = 4 then\n"
    "  r := 1 / 0\n"
    "end\n";

const std::map<std::string, std::string> kLong = {
    {"f", "f_long_formula"}, {"k", "kk_param"},  {"m", "missing_long"},
    {"r", "result_long"},    {"a", "a_long_name_17"}, {"d", "d_long_denom"},
    {"v", "v_long_vector"},
};

std::vector<TaskText> two_spellings() {
  return {
      {"short", {"a", "d", "v"}, {"r"}, kRoutine},
      {"long", {"a_long_name_17", "d_long_denom", "v_long_vector"},
       {"result_long"}, "-- the same routine, renamed\n" +
                            rename(kRoutine, kLong)},
  };
}

/// The inputs that make `task` (0 or 1) fail with `mode`, the other run
/// clean.
std::map<std::string, pits::Value> inputs_for(int task, int mode) {
  return {{"a", pits::Value(task == 0 ? mode : 0.0)},
          {"d", pits::Value(0.0)},
          {"v", pits::Value(pits::Vector{1, 2})},
          {"a_long_name_17", pits::Value(task == 1 ? mode : 0.0)},
          {"d_long_denom", pits::Value(0.0)},
          {"v_long_vector", pits::Value(pits::Vector{1, 2})}};
}

pits::Env env_of(const TaskText& t,
                 const std::map<std::string, pits::Value>& inputs) {
  pits::Env env;
  for (const std::string& v : t.inputs) env[v] = inputs.at(v);
  return env;
}

TEST(ShapePositions, CheckFindingsSitInEachTasksOwnText) {
  const auto flat = design_of(two_spellings());
  const auto diagnostics = analyze::analyze_design(flat);
  EXPECT_EQ(analyze::emit_text(diagnostics),
            analyze::emit_text(per_task_analysis(flat, {})));
  std::map<std::string, SourcePos> ban104;
  for (const analyze::Diagnostic& d : diagnostics) {
    if (d.code == "BAN104") ban104[d.subject] = d.pos;
  }
  ASSERT_EQ(ban104.size(), 2u) << analyze::emit_text(diagnostics);
  // Within its routine, the long copy's `1 / 0` sits one line lower (the
  // comment) and further right (`result_long := 1 / 0`).
  const int short_line = flat.graph.task(0).pits_line;
  const int long_line = flat.graph.task(1).pits_line;
  EXPECT_EQ(ban104["long"].line - long_line,
            ban104["short"].line - short_line + 1);
  EXPECT_GT(ban104["long"].column, ban104["short"].column);
}

TEST(ShapePositions, TrialErrorsCarryEachTasksNamesAndPositions) {
  const std::vector<TaskText> tasks = two_spellings();
  const auto flat = design_of(tasks);
  const std::pair<int, const char*> modes[] = {
      {1, "division by zero"},
      {2, "out of range"},
      {3, "undefined variable"},
      {4, "division by zero"}};
  for (const auto& [mode, what] : modes) {
    for (int t = 0; t < 2; ++t) {
      const auto inputs = inputs_for(t, mode);
      const Solo solo = run_alone(tasks[t].pits, env_of(tasks[t], inputs));
      ASSERT_FALSE(solo.ok) << "mode " << mode;
      EXPECT_NE(solo.error.find(what), std::string::npos) << solo.error;
      const auto outcome = exec::run_trials(flat, {inputs}).front();
      ASSERT_FALSE(outcome.ok) << "mode " << mode << " task " << t;
      EXPECT_EQ(outcome.error,
                "in task `" + tasks[t].name + "`: " + solo.error);
      EXPECT_EQ(outcome.error_pos, solo.pos)
          << "mode " << mode << " task " << t << ": " << outcome.error;
    }
  }
  // The long copy names its own variable.
  const auto outcome = exec::run_trials(flat, {inputs_for(1, 3)}).front();
  EXPECT_NE(outcome.error.find("undefined variable `missing_long`"),
            std::string::npos)
      << outcome.error;
}

TEST(ShapePositions, TraceEchoesEachTasksLinesAndNames) {
  const std::vector<TaskText> tasks = two_spellings();
  const auto flat = design_of(tasks);
  const auto inputs = inputs_for(0, 0);
  std::string want;
  for (const TaskText& t : tasks) {
    const Solo solo = run_alone(t.pits, env_of(t, inputs));
    ASSERT_TRUE(solo.ok) << solo.error;
    want += solo.trace;
  }
  EXPECT_NE(want.find("line 3: result_long = 1"), std::string::npos) << want;
  std::ostringstream trace;
  exec::RunOptions options;
  options.pits.trace = &trace;
  (void)exec::run_sequential(flat, inputs, options);
  EXPECT_EQ(trace.str(), want);
}

TEST(ShapePositions, CleanRunsDoNotLexTheirText) {
  // A shared chunk reads a task's names and positions through a binding
  // lexed from the task's text, and a run needs one only to report an
  // error or echo a trace line: a clean run of formula calls lexes
  // nothing. samples/sqrt_fanout.pitl calls its formula once per element.
  const auto flat =
      graph::parse_design(read_file(std::string(BANGER_SOURCE_DIR) +
                                    "/samples/sqrt_fanout.pitl"))
          .validate();
  {
    obs::TraceRecorder rec;
    const obs::ScopedRecorder scope(rec);
    const pits::Value xs(pits::Vector{4, 9, 16, 25, 36, 49, 64, 81});
    const auto outcome = exec::run_trials(flat, {{{"xs", xs}}}).front();
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(rec.metric("pits.vm.runs"), 6.0);
    EXPECT_EQ(rec.metric("pits.vm.binds"), 0.0);
  }
  // A string argument fails inside the formula, whose name the error
  // spells: that run binds its text, once.
  const auto bad = design_of({{"nr_task", {"a"}, {"r"},
                               "formula nr(v) := sqrt(v)\n"
                               "r := nr(a) + nr(a)\n"}});
  obs::TraceRecorder rec;
  const obs::ScopedRecorder scope(rec);
  const auto outcome =
      exec::run_trials(bad, {{{"a", pits::Value(pits::Str("no"))}}}).front();
  ASSERT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("in formula `nr`"), std::string::npos)
      << outcome.error;
  EXPECT_EQ(rec.metric("pits.vm.binds"), 1.0);
}

// ---- sharing matches per-task work -----------------------------------

/// heat 16x16 with each of the benchmark's defect kinds injected at
/// three positions.
graph::FlattenResult defective_heat() {
  graph::FlattenResult flat = workloads::heat_design(16, 16, 4).flatten();
  const std::size_t n = flat.graph.num_tasks();
  const std::size_t at[] = {n / 5, n / 2, n - 2};
  for (std::size_t i = 0; i < std::size(at); ++i) {
    const auto t = [&](std::size_t k) {
      return static_cast<graph::TaskId>(at[i] - k);
    };
    flat.graph.task(t(0)).pits += "zz := 1 / 0\n";       // BAN104
    flat.graph.task(t(1)).pits += "zz := frobnicate(1)\n";  // BAN106
    flat.graph.task(t(2)).outputs.push_back("ghost");      // BAN006
    flat.graph.task(t(3)).pits += "zz := sqrt(1, 2)\n";  // BAN107
  }
  return flat;
}

/// Two consumers of one shape, the second one line and four columns
/// further on in its routine, both indexing a store whose producer
/// sends a number: BAN306 reports each at its own `[`.
std::vector<TaskText> shifted_consumers() {
  return {{"p", {}, {"x", "y"}, "x := 1\ny := 2\n"},
          {"c1", {"x"}, {"r1"}, "r1 := x[0] + 1\n"},
          {"c2", {"y"}, {"r2"}, "-- shifted\n    r2 := y[0] + 1\n"}};
}

/// Routines of one shape whose tasks differ in what the key must also
/// hold: an extra declared input (BAN005), and a work estimate or line
/// count that puts them past BAN007's factor.
std::vector<TaskText> same_body_other_tasks() {
  return {{"w1", {"a"}, {"b"}, "b := a + 1\n"},
          {"w2", {"c"}, {"d"}, "d := c + 1\n", 50},
          {"w3", {"m", "unused"}, {"f"}, "f := m + 1\n"},
          {"w4", {"g"}, {"h"}, "\n\n\nh := g + 1\n"}};
}

TEST(ShapeSharing, AnalysisMatchesPerTaskLayers) {
  std::vector<std::pair<std::string, graph::FlattenResult>> designs;
  const std::string root = BANGER_SOURCE_DIR;
  for (const char* path :
       {"/samples/analysis/absint_showcase.pitl",
        "/samples/analysis/clean_loops.pitl",
        "/samples/analysis/shape_mismatch.pitl", "/samples/sqrt_fanout.pitl"}) {
    designs.emplace_back(
        path, graph::parse_design(read_file(root + path)).validate());
  }
  designs.emplace_back("lu3x3", workloads::lu3x3_design().flatten());
  designs.emplace_back("heat 3x6x8", workloads::heat_design(3, 6, 8).flatten());
  designs.emplace_back("heat 16x16 with defects", defective_heat());
  designs.emplace_back("two spellings", design_of(two_spellings()));
  designs.emplace_back("shifted consumers", design_of(shifted_consumers()));
  designs.emplace_back("same body, other tasks",
                       design_of(same_body_other_tasks()));

  analyze::AnalyzeOptions interface_only;
  interface_only.pits_rules = false;
  interface_only.absint_rules = false;
  interface_only.determinacy_rules = false;
  analyze::AnalyzeOptions work;
  work.work_estimate_factor = 2;
  analyze::AnalyzeOptions no_absint;
  no_absint.absint_rules = false;
  for (const auto& [name, flat] : designs) {
    for (const analyze::AnalyzeOptions& options :
         {analyze::AnalyzeOptions{}, interface_only, work, no_absint}) {
      EXPECT_EQ(analyze::emit_text(analyze::analyze_design(flat, options)),
                analyze::emit_text(per_task_analysis(flat, options)))
          << name;
    }
  }
}

TEST(ShapeSharing, SharedSummariesKeepEachTasksDemandPositions) {
  const auto flat = design_of(shifted_consumers());
  const auto diagnostics = analyze::analyze_design(flat);
  EXPECT_EQ(analyze::emit_text(diagnostics),
            analyze::emit_text(per_task_analysis(flat, {})));
  std::map<std::string, SourcePos> ban306;
  for (const analyze::Diagnostic& d : diagnostics) {
    if (d.code == "BAN306") ban306[d.subject] = d.pos;
  }
  ASSERT_EQ(ban306.size(), 2u) << analyze::emit_text(diagnostics);
  EXPECT_EQ(ban306["c1"].line, flat.graph.task(1).pits_line);
  EXPECT_EQ(ban306["c2"].line, flat.graph.task(2).pits_line + 1);
  EXPECT_EQ(ban306["c2"].column, ban306["c1"].column + 4);
}

TEST(ShapeSharing, PortsWorkAndLinesSplitGroups) {
  const auto flat = design_of(same_body_other_tasks());
  analyze::AnalyzeOptions options;
  options.work_estimate_factor = 2;
  std::map<std::string, std::string> codes;
  for (const analyze::Diagnostic& d : analyze::analyze_design(flat, options)) {
    codes[d.subject] += d.code + " ";
  }
  EXPECT_EQ(codes["w1"], "");
  EXPECT_EQ(codes["w2"], "BAN007 ");
  EXPECT_NE(codes["w3"].find("BAN005"), std::string::npos) << codes["w3"];
  EXPECT_EQ(codes["w4"], "BAN007 ");
}

TEST(ShapeSharing, DefectsKeepTheirOwnReports) {
  const auto diagnostics = analyze::analyze_design(defective_heat());
  std::map<std::string, int> count;
  for (const analyze::Diagnostic& d : diagnostics) ++count[d.code];
  EXPECT_EQ(count["BAN104"], 3);
  EXPECT_EQ(count["BAN106"], 3);
  EXPECT_EQ(count["BAN006"], 3);
  EXPECT_EQ(count["BAN107"], 3);
}

/// A spelling for each variable the fuzz programs use, `long_names`
/// making every one longer.
std::map<std::string, std::string> fuzz_renaming(util::Rng& rng,
                                                 bool long_names) {
  std::map<std::string, std::string> out;
  int k = 0;
  for (const char* v : {"v0", "v1", "v2", "v3", "w", "it", "cnt"}) {
    std::string name = std::string(long_names ? "var_long_" : "q") +
                       std::to_string(k++) + "_" +
                       std::to_string(rng.next_below(1000));
    out.emplace(v, std::move(name));
  }
  return out;
}

TEST(ShapeSharing, RenamedFuzzProgramsRunLikeEachCopyAlone) {
  util::Rng rng(2024);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    pits::ProgramGen gen(seed ^ 0x5a17eull);
    const std::string program = gen.program(6);
    // Two designs of the same renamed copies in opposite orders: the
    // second one's chunk was compiled from the first one's text.
    std::vector<TaskText> copies;
    for (int c = 0; c < 3; ++c) {
      const auto names = fuzz_renaming(rng, c == 1);
      TaskText t;
      t.name = "t" + std::to_string(seed) + "_" + std::to_string(c);
      t.pits = (c == 1 ? "-- renamed copy\n" : "") + rename(program, names);
      for (const char* v : {"v0", "v1", "v2", "v3", "w"}) {
        t.outputs.push_back(names.at(v));
      }
      copies.push_back(std::move(t));
    }
    for (const bool reversed : {false, true}) {
      std::vector<TaskText> tasks = copies;
      if (reversed) std::reverse(tasks.begin(), tasks.end());
      const auto flat = design_of(tasks);
      const exec::TrialOutcome outcome = exec::run_trials(flat, {{}}).front();
      // Copies are independent and fail alike, so the first task's
      // error is the trial's.
      const Solo first = run_alone(tasks.front().pits, {});
      ASSERT_EQ(outcome.ok, first.ok) << program << outcome.error;
      if (!first.ok) {
        EXPECT_EQ(outcome.error,
                  "in task `" + tasks.front().name + "`: " + first.error)
            << program;
        EXPECT_EQ(outcome.error_pos, first.pos) << program;
        continue;
      }
      for (const TaskText& t : tasks) {
        const Solo solo = run_alone(t.pits, {});
        ASSERT_TRUE(solo.ok) << t.pits;
        for (const std::string& v : t.outputs) {
          EXPECT_EQ(outcome.result.outputs.at(v), solo.env.at(v))
              << v << " in\n" << t.pits;
        }
      }
    }
  }
}

}  // namespace
}  // namespace banger

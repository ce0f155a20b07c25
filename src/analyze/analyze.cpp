#include "analyze/analyze.hpp"

#include <iterator>
#include <map>
#include <optional>

#include "analyze/absint.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace banger::analyze {

namespace {

/// One task's findings from the per-routine layers. Each worker writes
/// only its own task's slot.
struct TaskFindings {
  std::vector<Diagnostic> interface;  ///< BAN001-BAN007
  std::vector<Diagnostic> routine;    ///< BAN101-BAN108, BAN301-BAN305
  std::optional<ShapeSummary> shape;  ///< absint summary, for BAN306
};

std::optional<pits::Program> parse_quietly(const graph::Task& task) {
  if (util::trim(task.pits).empty()) return std::nullopt;
  try {
    return pits::Program::parse(task.pits);
  } catch (const Error&) {
    return std::nullopt;  // BAN003 is the interface layer's report
  }
}

void analyze_task(const graph::Task& task, const AnalyzeOptions& options,
                  TaskFindings& found) {
  const std::optional<pits::Program> program =
      options.interface_rules
          ? check_task_interface(task, options, found.interface)
          : parse_quietly(task);
  if (!program || !options.pits_rules) return;
  RoutineContext ctx;
  ctx.subject = task.name;
  ctx.inputs = task.inputs;
  ctx.outputs = task.outputs;
  ctx.pits_line = task.pits_line;
  ctx.pits_indent = task.pits_indent;
  analyze_routine(program->body(), ctx, found.routine);
  if (options.absint_rules) {
    // Runs after the dataflow pass on purpose: the interval engine
    // both defers to its reports (BAN104/105/108 win over BAN30x at
    // the same spot) and prunes BAN101s it proves false. Both look
    // only at this task's diagnostics.
    found.shape = run_absint_rules(program->body(), ctx, found.routine);
  }
}

void append(std::vector<Diagnostic>& sink, std::vector<Diagnostic>& from) {
  sink.insert(sink.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
}

}  // namespace

std::vector<Diagnostic> analyze_design(const graph::Design& design,
                                       const AnalyzeOptions& options) {
  return analyze_design(design.flatten(), options);
}

std::vector<Diagnostic> analyze_design(const graph::FlattenResult& flat,
                                       const AnalyzeOptions& options) {
  const graph::TaskGraph& g = flat.graph;

  std::vector<TaskFindings> found;
  if (options.interface_rules || options.pits_rules) {
    found.resize(g.num_tasks());
    util::parallel_for(found.size(), util::default_jobs(), [&](std::size_t t) {
      analyze_task(g.task(static_cast<graph::TaskId>(t)), options, found[t]);
    });
  }

  // Merged in the order the layers have always pushed in, so the stable
  // sort below sees the same sequence whatever the worker count.
  std::vector<Diagnostic> diagnostics;
  if (options.interface_rules) {
    for (TaskFindings& f : found) append(diagnostics, f.interface);
    run_store_rules(flat, diagnostics);
  }
  if (options.pits_rules) {
    std::map<graph::TaskId, ShapeSummary> summaries;
    for (graph::TaskId t = 0; t < g.num_tasks(); ++t) {
      append(diagnostics, found[t].routine);
      if (found[t].shape) summaries.emplace(t, std::move(*found[t].shape));
    }
    if (options.absint_rules) {
      run_shape_rules(flat, summaries, diagnostics);
    }
  }

  if (options.determinacy_rules) {
    run_determinacy_rules(flat, diagnostics);
  }

  sort_and_dedupe(diagnostics);
  return diagnostics;
}

}  // namespace banger::analyze

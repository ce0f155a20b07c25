#include "analyze/analyze.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <map>
#include <optional>
#include <unordered_map>

#include "analyze/absint.hpp"
#include "pits/shape.hpp"
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

/// What the per-routine layers see of one task, as a key: its routine's
/// shape (pits/shape.hpp) plus its ports in the body's numbering, so two
/// tasks with equal keys differ only in consistent renaming and in what
/// reports carry (name, positions). `key` is empty when the task is
/// analysed on its own: no routine, or one that does not lex.
struct CheckKey {
  std::string key;
  pits::Shape shape;  ///< its key moved into `key`
};

CheckKey check_key(const graph::Task& task, const AnalyzeOptions& options) {
  CheckKey out;
  if (util::trim(task.pits).empty()) return out;
  try {
    out.shape = pits::shape_of(task.pits);
  } catch (const Error&) {
    return out;
  }
  std::string key = std::move(out.shape.key);
  // Ports the body never names are numbered after it, in port order,
  // unless their spelling is their meaning, as in the shape key.
  std::vector<std::string_view> absent;
  auto add_port = [&](const std::string& port) {
    const auto& names = out.shape.names;
    if (auto it = std::find(names.begin(), names.end(), port);
        it != names.end()) {
      pits::append_u32(key, static_cast<std::uint32_t>(it - names.begin()));
    } else if (pits::spelled_in_shape(port)) {
      pits::append_u32(key, ~std::uint32_t{0});
      pits::append_u32(key, static_cast<std::uint32_t>(port.size()));
      key += port;
    } else {
      auto it = std::find(absent.begin(), absent.end(), port);
      if (it == absent.end()) it = absent.insert(absent.end(), port);
      pits::append_u32(key, static_cast<std::uint32_t>(
                                names.size() + (it - absent.begin())));
    }
  };
  for (const auto* ports : {&task.inputs, &task.outputs}) {
    pits::append_u32(key, static_cast<std::uint32_t>(ports->size()));
    for (const std::string& port : *ports) add_port(port);
  }
  if (options.work_estimate_factor > 0) {
    // BAN007 compares the work estimate with the raw line count.
    const auto work = std::bit_cast<std::uint64_t>(task.work);
    key.append(reinterpret_cast<const char*>(&work), sizeof work);
    pits::append_u32(key, static_cast<std::uint32_t>(std::count(
                              task.pits.begin(), task.pits.end(), '\n')));
  }
  out.key = std::move(key);
  return out;
}

/// Whether any demand of `summary` carries a position.
bool has_positions(const ShapeSummary& summary) {
  return std::any_of(summary.demands.begin(), summary.demands.end(),
                     [](const auto& d) { return d.second.pos.valid(); });
}

/// The representative's summary as task `to` would have computed it:
/// names renamed through the shared shape numbers and the ports,
/// demand positions moved to the same token of `to`'s own text.
/// `from_tokens` binds the representative's text; it is only read when
/// a demand carries a position.
ShapeSummary rename_summary(const ShapeSummary& summary,
                            const graph::Task& from, const CheckKey& fk,
                            const pits::Binding& from_tokens,
                            const graph::Task& to, const CheckKey& tk) {
  auto rename = [&](const std::string& name) -> std::string {
    const auto& names = fk.shape.names;
    if (auto it = std::find(names.begin(), names.end(), name);
        it != names.end()) {
      return std::string(tk.shape.names[static_cast<std::size_t>(
          it - names.begin())]);
    }
    for (const auto* ports : {&from.inputs, &from.outputs}) {
      if (auto it = std::find(ports->begin(), ports->end(), name);
          it != ports->end()) {
        const auto& to_ports = ports == &from.inputs ? to.inputs : to.outputs;
        return to_ports[static_cast<std::size_t>(it - ports->begin())];
      }
    }
    return name;
  };
  // A positioned demand sits at the same token of `to`'s text as of the
  // representative's.
  auto token_of = [&](SourcePos p) {
    if (from.pits_line > 0) {
      p = {p.line - from.pits_line + 1, p.column - from.pits_indent};
    }
    return from_tokens.token_at(p);
  };
  // Most summaries carry none, and then `to`'s text is not lexed.
  std::optional<pits::Binding> to_tokens;
  if (has_positions(summary)) to_tokens.emplace(to.pits);
  auto move_pos = [&](SourcePos p) -> SourcePos {
    if (!p.valid()) return p;
    SourcePos q = to_tokens->pos(token_of(p));
    if (to.pits_line > 0) {
      q = {to.pits_line + q.line - 1, q.column + to.pits_indent};
    }
    return q;
  };
  ShapeSummary out;
  for (const auto& [name, value] : summary.outputs) {
    out.outputs.emplace(rename(name), value);
  }
  for (const auto& [name, demand] : summary.demands) {
    ShapeDemand d = demand;
    d.pos = move_pos(d.pos);
    out.demands.emplace(rename(name), d);
  }
  return out;
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
    const std::size_t n = g.num_tasks();
    const int jobs = util::default_jobs();
    auto task = [&](std::size_t t) -> const graph::Task& {
      return g.task(static_cast<graph::TaskId>(t));
    };
    std::vector<CheckKey> keys(n);
    util::parallel_for(n, jobs, [&](std::size_t t) {
      keys[t] = check_key(task(t), options);
    });
    // Group equal keys in task order; the first task of each group is
    // its representative, and a task without a key is a group of its own.
    std::vector<std::size_t> group(n);
    std::vector<std::size_t> reps;
    {
      std::unordered_map<std::string_view, std::size_t> first;
      for (std::size_t t = 0; t < n; ++t) {
        if (keys[t].key.empty()) {
          group[t] = reps.size();
        } else {
          group[t] = first.try_emplace(keys[t].key, reps.size()).first->second;
        }
        if (group[t] == reps.size()) reps.push_back(t);
      }
    }
    for (CheckKey& k : keys) std::string().swap(k.key);
    found.resize(n);
    // A representative whose summary has positions is bound once, for
    // its group to map them through.
    std::vector<pits::Binding> rep_tokens(reps.size());
    util::parallel_for(reps.size(), jobs, [&](std::size_t g) {
      const std::size_t r = reps[g];
      analyze_task(task(r), options, found[r]);
      if (found[r].shape && has_positions(*found[r].shape)) {
        rep_tokens[g] = pits::Binding(task(r).pits);
      }
    });
    // A representative that reports nothing speaks for its group: every
    // renamed copy reports nothing too and has the renamed summary. One
    // that reports anything has each copy analysed on its own.
    util::parallel_for(n, jobs, [&](std::size_t t) {
      const std::size_t r = reps[group[t]];
      if (r == t) return;
      const TaskFindings& rf = found[r];
      if (!rf.interface.empty() || !rf.routine.empty()) {
        analyze_task(task(t), options, found[t]);
      } else if (rf.shape) {
        found[t].shape = rename_summary(*rf.shape, task(r), keys[r],
                                        rep_tokens[group[t]], task(t),
                                        keys[t]);
      }
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

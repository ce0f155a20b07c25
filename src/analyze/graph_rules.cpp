// Drawing-level interface rules (BAN001-BAN010) and graph determinacy
// rules (BAN201-BAN203).
//
// The interface layer is the original `lint_design` rule set rewired
// into the diagnostic engine; the message text is kept verbatim so the
// legacy lint output (and its golden tests) are a pure projection of
// these diagnostics. Its per-task half (BAN001-BAN007) runs inside
// analyze_design's parallel pass over the tasks and hands the routine
// it parsed on to the PITS layers; the store and shape half
// (BAN008-BAN010) runs once over the whole graph.
//
// The determinacy layer asks the question the paper's environment must
// answer before promising users a deterministic trial run: can two tasks
// touch the same storage in an order the schedule gets to choose?
// Ordering is the transitive closure of the flattened dataflow edges,
// computed once as reachability bitsets in reverse topological order.
#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "analyze/analyze.hpp"
#include "pits/interp.hpp"
#include "util/strings.hpp"

namespace banger::analyze {

namespace {

using graph::FlatStore;
using graph::FlattenResult;
using graph::TaskId;

Diagnostic make(std::string code, std::string subject_kind,
                std::string subject, std::string message,
                SourcePos pos = {}, std::string hint = {}) {
  const DiagnosticRule* rule = find_rule(code);
  Diagnostic d;
  d.code = std::move(code);
  d.severity = rule != nullptr ? rule->severity : Severity::Warning;
  d.subject_kind = std::move(subject_kind);
  d.subject = std::move(subject);
  d.message = std::move(message);
  d.hint = std::move(hint);
  d.pos = pos;
  return d;
}

// ---------------------------------------------------------------------
// Interface layer (BAN001-BAN010) — legacy lint rules, verbatim text.
// ---------------------------------------------------------------------

void check_stores(const FlattenResult& flat, std::vector<Diagnostic>& sink) {
  for (const FlatStore& store : flat.stores) {
    if (store.writers.empty() && store.readers.empty()) {
      sink.push_back(make("BAN008", "store", store.name,
                          "is never read or written (dead store)", store.pos,
                          "delete the store or connect it with arcs"));
    }
  }
  for (TaskId t = 0; t < flat.graph.num_tasks(); ++t) {
    const graph::Task& task = flat.graph.task(t);
    for (const std::string& var : task.inputs) {
      bool supplied = false;
      for (graph::EdgeId e : flat.graph.in_edges(t)) {
        const auto& outputs = flat.graph.task(flat.graph.edge(e).from).outputs;
        if (std::find(outputs.begin(), outputs.end(), var) != outputs.end()) {
          supplied = true;
          break;
        }
      }
      if (!supplied) {
        const FlatStore* store = flat.find_store(var);
        supplied = store != nullptr && store->writers.empty();
      }
      if (!supplied) {
        sink.push_back(make("BAN009", "task", task.name,
                            "input `" + var + "` is bound to nothing",
                            flat.graph.task(t).pos,
                            "draw an arc from a producer or an input store "
                            "carrying `" + var + "`"));
      }
    }
  }
}

void check_graph_shape(const FlattenResult& flat,
                       std::vector<Diagnostic>& sink) {
  // Tasks disconnected from every output store do work nobody observes.
  std::set<TaskId> useful;
  std::vector<TaskId> frontier;
  for (const FlatStore& store : flat.stores) {
    if (store.readers.empty()) {
      for (TaskId w : store.writers) frontier.push_back(w);
    }
  }
  for (TaskId t = 0; t < flat.graph.num_tasks(); ++t) {
    if (flat.graph.out_edges(t).empty() &&
        !flat.graph.task(t).outputs.empty()) {
      frontier.push_back(t);
    }
  }
  while (!frontier.empty()) {
    const TaskId t = frontier.back();
    frontier.pop_back();
    if (!useful.insert(t).second) continue;
    for (TaskId p : flat.graph.preds(t)) frontier.push_back(p);
  }
  if (!useful.empty()) {
    for (TaskId t = 0; t < flat.graph.num_tasks(); ++t) {
      if (!useful.contains(t)) {
        sink.push_back(make("BAN010", "task", flat.graph.task(t).name,
                            "contributes to no output store",
                            flat.graph.task(t).pos));
      }
    }
  }
}

// ---------------------------------------------------------------------
// Determinacy layer (BAN201-BAN203).
// ---------------------------------------------------------------------

/// Reachability of the flattened DAG as one bitset row per task:
/// reach(a) contains b iff there is a nonempty path a -> b.
class Reachability {
 public:
  explicit Reachability(const graph::TaskGraph& g)
      : n_(g.num_tasks()), words_((n_ + 63) / 64), rows_(n_ * words_, 0) {
    const auto topo = g.topo_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const TaskId t = *it;
      for (const TaskId s : g.succs(t)) {
        set(t, s);
        std::uint64_t* row = rows_.data() + static_cast<std::size_t>(t) * words_;
        const std::uint64_t* srow =
            rows_.data() + static_cast<std::size_t>(s) * words_;
        for (std::size_t w = 0; w < words_; ++w) row[w] |= srow[w];
      }
    }
  }

  [[nodiscard]] bool reaches(TaskId a, TaskId b) const {
    return (rows_[static_cast<std::size_t>(a) * words_ + b / 64] >>
            (b % 64)) &
           1U;
  }
  /// True when the schedule may not reorder a and b.
  [[nodiscard]] bool ordered(TaskId a, TaskId b) const {
    return a == b || reaches(a, b) || reaches(b, a);
  }

 private:
  void set(TaskId a, TaskId b) {
    rows_[static_cast<std::size_t>(a) * words_ + b / 64] |=
        std::uint64_t{1} << (b % 64);
  }

  std::size_t n_;
  std::size_t words_;
  std::vector<std::uint64_t> rows_;
};

/// Writer pairs sorted by task name so reports are stable across graph
/// construction orders.
std::vector<std::pair<TaskId, TaskId>> unordered_pairs(
    const std::vector<TaskId>& tasks, const graph::TaskGraph& g,
    const Reachability& reach) {
  std::vector<TaskId> sorted = tasks;
  std::sort(sorted.begin(), sorted.end(), [&](TaskId a, TaskId b) {
    return g.task(a).name < g.task(b).name;
  });
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<std::pair<TaskId, TaskId>> out;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    for (std::size_t j = i + 1; j < sorted.size(); ++j) {
      if (!reach.ordered(sorted[i], sorted[j])) {
        out.emplace_back(sorted[i], sorted[j]);
      }
    }
  }
  return out;
}

}  // namespace

std::optional<pits::Program> check_task_interface(
    const graph::Task& task, const AnalyzeOptions& options,
    std::vector<Diagnostic>& sink) {
  if (util::trim(task.pits).empty()) {
    if (!task.outputs.empty()) {
      sink.push_back(make("BAN001", "task", task.name,
                          "declares outputs but has no PITS routine",
                          task.pos,
                          "add a `pits { ... }` block that assigns " +
                              util::join(task.outputs, ", ")));
    } else if (options.require_pits) {
      sink.push_back(make("BAN002", "task", task.name,
                          "has no PITS routine (skeleton node)", task.pos));
    }
    return std::nullopt;
  }

  std::optional<pits::Program> program;
  try {
    program = pits::Program::parse(task.pits);
  } catch (const Error& e) {
    SourcePos pos = task.pos;
    if (task.pits_line > 0 && e.pos().valid()) {
      pos = {task.pits_line + e.pos().line - 1,
             e.pos().column + task.pits_indent};
    }
    sink.push_back(make("BAN003", "task", task.name,
                        std::string("PITS does not parse: ") + e.what(),
                        pos));
    return std::nullopt;
  }

  // Reads the routine performs but the node does not declare.
  const auto reads = program->inputs();
  for (const std::string& var : reads) {
    if (std::find(task.inputs.begin(), task.inputs.end(), var) ==
        task.inputs.end()) {
      sink.push_back(make(
          "BAN004", "task", task.name,
          "routine reads `" + var + "` which is not a declared input",
          task.pos, "add `" + var + "` to the task's in= list"));
    }
  }
  // Declared inputs the routine never touches. A bound input shadows
  // the calculator constant of its name, so reading `e` reads input `e`.
  const auto free = pits::free_variables(program->body());
  for (const std::string& var : task.inputs) {
    if (std::find(free.begin(), free.end(), var) == free.end()) {
      sink.push_back(make("BAN005", "task", task.name,
                          "declared input `" + var + "` is never read",
                          task.pos));
    }
  }
  // Declared outputs the routine never assigns.
  const auto writes = program->outputs();
  for (const std::string& var : task.outputs) {
    if (std::find(writes.begin(), writes.end(), var) == writes.end()) {
      sink.push_back(make(
          "BAN006", "task", task.name,
          "declared output `" + var + "` is never assigned", task.pos,
          "assign `" + var + "` in the routine or drop it from out="));
    }
  }

  if (options.work_estimate_factor > 0) {
    // Crude but useful: statement count as a work proxy.
    const auto statements = static_cast<double>(
        std::count(task.pits.begin(), task.pits.end(), '\n'));
    if (statements > 0 && task.work > 0) {
      const double ratio = task.work / statements;
      if (ratio > options.work_estimate_factor ||
          ratio < 1.0 / options.work_estimate_factor) {
        sink.push_back(
            make("BAN007", "task", task.name,
                 "work estimate " + util::format_double(task.work) +
                     " looks far from routine size (" +
                     util::format_double(statements) + " lines)",
                 task.pos));
      }
    }
  }
  return program;
}

void run_store_rules(const FlattenResult& flat,
                     std::vector<Diagnostic>& sink) {
  check_stores(flat, sink);
  check_graph_shape(flat, sink);
}

void run_determinacy_rules(const FlattenResult& flat,
                           std::vector<Diagnostic>& sink) {
  const graph::TaskGraph& g = flat.graph;
  const Reachability reach(g);

  for (const FlatStore& store : flat.stores) {
    if (store.writers.size() < 2) continue;
    const auto races = unordered_pairs(store.writers, g, reach);
    for (const auto& [a, b] : races) {
      if (!store.readers.empty()) {
        sink.push_back(make(
            "BAN201", "store", store.name,
            "write-write race: `" + g.task(a).name + "` and `" +
                g.task(b).name + "` both write `" + store.var +
                "` with no ordering between them",
            store.pos,
            "add an arc between the writers, or split the store"));
      } else {
        sink.push_back(make(
            "BAN203", "store", store.name,
            "output merge order is schedule-dependent: `" + g.task(a).name +
                "` and `" + g.task(b).name + "` write it concurrently",
            store.pos,
            "order the writers, or give each its own output store"));
      }
    }
  }

  // Var-aliased stores: two stores of the same variable name at different
  // hierarchy levels alias one value cell at bind time (find_store picks
  // the first match), so a reader of one store unordered with a writer of
  // a sibling store observes a schedule-dependent value.
  std::map<std::string, std::vector<std::size_t>> by_var;
  for (std::size_t i = 0; i < flat.stores.size(); ++i) {
    by_var[flat.stores[i].var].push_back(i);
  }
  for (const auto& [var, indices] : by_var) {
    if (indices.size() < 2) continue;
    for (const std::size_t ri : indices) {
      for (const std::size_t wi : indices) {
        if (ri == wi) continue;
        const FlatStore& rstore = flat.stores[ri];
        const FlatStore& wstore = flat.stores[wi];
        for (const TaskId r : rstore.readers) {
          for (const TaskId w : wstore.writers) {
            if (reach.ordered(r, w)) continue;
            sink.push_back(make(
                "BAN202", "store", rstore.name,
                "read-write conflict on `" + var + "`: `" + g.task(r).name +
                    "` reads `" + rstore.name + "` unordered with `" +
                    g.task(w).name + "` writing aliased store `" +
                    wstore.name + "`",
                rstore.pos,
                "rename one of the `" + var + "` stores or order the tasks"));
          }
        }
      }
    }
  }
}

}  // namespace banger::analyze

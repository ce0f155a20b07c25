// banger/analyze/analyze.hpp
//
// The before-run static-analysis engine — the paper's "instant feedback
// ... major contributor to early defect removal" grown from interface
// lint into a real analyser. Three rule layers over a validated design:
//
//   interface   (BAN001-BAN010): drawing-level checks — routine/port
//               mismatches, unbound inputs, dead stores, unobservable
//               work (the original `lint_design` rules, rewired);
//   pits        (BAN101-BAN108): dataflow over each routine's AST —
//               use-before-def, dead stores, unreachable code, constant
//               folding (guaranteed div/mod-by-zero, out-of-range vector
//               indices), unknown functions, arity mismatches, trivially
//               non-terminating loops;
//   absint      (BAN301-BAN306): abstract interpretation over each
//               routine (analyze/absint.hpp) — interval-proven division
//               by zero and out-of-bounds indices, dead branches,
//               non-terminating loops, elementwise length mismatches,
//               plus graph-level producer/consumer shape checking;
//   determinacy (BAN201-BAN203): races over the flattened task graph —
//               unordered writers to a store, readers unordered with
//               writers (var-aliased stores), schedule-dependent output
//               merges. Ordering is the transitive closure of the
//               flattened dataflow dependences.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "graph/design.hpp"
#include "pits/ast.hpp"
#include "pits/interp.hpp"

namespace banger::analyze {

struct AnalyzeOptions {
  /// Rule layers; `banger lint` runs interface only (compatibility),
  /// `banger check` runs everything.
  bool interface_rules = true;
  bool pits_rules = true;
  /// Abstract-interpretation layer (BAN301-BAN306); runs per routine
  /// after the dataflow layer and once more across the task graph.
  /// Requires pits_rules-style parsing, so it is gated on pits_rules.
  bool absint_rules = true;
  bool determinacy_rules = true;

  /// BAN002: complain about tasks whose PITS body is empty (skeleton
  /// designs are legal while sketching).
  bool require_pits = true;
  /// BAN007: warn when a task's work estimate deviates from the
  /// statement count of its routine by more than this factor (0 = off).
  double work_estimate_factor = 0.0;
};

/// Runs the enabled rule layers over a design. The design must flatten
/// (Error{Graph} propagates otherwise). Returns diagnostics sorted and
/// deduplicated by sort_and_dedupe().
///
/// The per-routine layers (interface BAN001-BAN007, pits, absint) run on
/// util::default_jobs() workers, so BANGER_JOBS sets the width. Tasks
/// are grouped by their routine's shape (pits/shape.hpp) plus their
/// ports in the body's numbering, and the layers run on the first task
/// of each group. When it reports nothing, so does every task of the
/// group, each with its renamed shape summary; otherwise each task is
/// analysed on its own. Each task's findings go to its own buffer, and
/// the buffers merge in task order, so the output is byte-identical for
/// any number of workers, and to analysing every task on its own.
std::vector<Diagnostic> analyze_design(const graph::Design& design,
                                       const AnalyzeOptions& options = {});

/// The same analysis over a flattening the caller already holds (what
/// Design::validate() returned, as Project and serve keep it), so the
/// design is not flattened again.
std::vector<Diagnostic> analyze_design(const graph::FlattenResult& flat,
                                       const AnalyzeOptions& options = {});

/// Context for analysing one PITS routine on its own (the calculator's
/// per-routine feedback, and the per-task step of analyze_design).
struct RoutineContext {
  /// Qualified task name used as the diagnostic subject.
  std::string subject = "routine";
  /// Declared inputs: defined before the routine starts.
  std::vector<std::string> inputs;
  /// Declared outputs: assignments to them are never dead.
  std::vector<std::string> outputs;
  /// File line of the routine's first source line (0 = positions stay
  /// routine-relative) and the indentation stripped from the block.
  int pits_line = 0;
  int pits_indent = 0;
};

/// PITS dataflow layer (BAN101-BAN108) over one parsed routine.
/// Appends to `sink`.
void analyze_routine(const pits::Block& body, const RoutineContext& context,
                     std::vector<Diagnostic>& sink);

/// Per-task interface rules (BAN001-BAN007), appended to `sink`.
/// Returns the routine parsed along the way so the PITS layers can reuse
/// it; nullopt when the body is empty or does not parse (BAN003).
std::optional<pits::Program> check_task_interface(
    const graph::Task& task, const AnalyzeOptions& options,
    std::vector<Diagnostic>& sink);

/// Graph-level interface rules over stores and reachability of outputs
/// (BAN008-BAN010), and the determinacy layer (BAN201-BAN203). Append to
/// `sink`; `flat` must be `design.flatten()`.
void run_store_rules(const graph::FlattenResult& flat,
                     std::vector<Diagnostic>& sink);
void run_determinacy_rules(const graph::FlattenResult& flat,
                           std::vector<Diagnostic>& sink);

}  // namespace banger::analyze

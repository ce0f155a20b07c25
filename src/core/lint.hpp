// banger/core/lint.hpp
//
// Whole-design linting: the environment-level half of the paper's
// "instant feedback ... major contributor to early defect removal".
// The calculator panel lints one routine; this checks the *drawing*:
// interface mismatches between a task's declared variables and what its
// PITS routine actually reads/writes, dead stores, skeleton tasks,
// unreachable work, suspicious estimates.
#pragma once

#include <string>
#include <vector>

#include "graph/design.hpp"

namespace banger {

enum class LintSeverity : std::uint8_t {
  Warning,  ///< probably a mistake, the design still runs
  Error,    ///< will fail at trial-run/generate time
};

struct LintIssue {
  LintSeverity severity = LintSeverity::Warning;
  /// "task", "store", "graph" — what the issue is attached to.
  std::string subject_kind;
  /// Qualified name of the subject.
  std::string subject;
  std::string message;

  [[nodiscard]] std::string to_string() const;
};

struct LintOptions {
  /// Complain about tasks whose PITS body is empty (skeleton designs
  /// are legal while sketching, so this is optional).
  bool require_pits = true;
  /// Warn when a task's work estimate deviates from the statement count
  /// of its routine by more than this factor (0 disables).
  double work_estimate_factor = 0.0;
};

/// Runs the interface-layer checks (BAN001-BAN010 in the analysis
/// engine) over a design's flattening (what Design::validate() returned,
/// as Project::flattened() holds it). Returns issues in a fully
/// deterministic order — severity (errors first), subject kind, subject,
/// source position, rule code, message — with exact duplicates removed.
/// This is a compatibility wrapper over analyze::analyze_design; new
/// callers should use the engine directly for positions, hints, and the
/// dataflow/determinacy layers.
std::vector<LintIssue> lint_design(const graph::FlattenResult& flat,
                                   const LintOptions& options = {});

/// True if any issue is an Error.
bool has_errors(const std::vector<LintIssue>& issues);

}  // namespace banger

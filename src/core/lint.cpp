#include "core/lint.hpp"

#include <algorithm>

#include "analyze/analyze.hpp"

namespace banger {

// lint_design is now a compatibility projection of the analysis engine's
// interface layer (src/analyze): same rules, same message text, but the
// engine owns rule logic, ordering, and deduplication. The projection
// drops positions and hints; callers who want those (or the PITS
// dataflow / determinacy layers) use analyze::analyze_design directly.

std::string LintIssue::to_string() const {
  return std::string(severity == LintSeverity::Error ? "error" : "warning") +
         ": " + subject_kind + " `" + subject + "`: " + message;
}

std::vector<LintIssue> lint_design(const graph::FlattenResult& flat,
                                   const LintOptions& options) {
  analyze::AnalyzeOptions opts;
  opts.interface_rules = true;
  opts.pits_rules = false;
  opts.determinacy_rules = false;
  opts.require_pits = options.require_pits;
  opts.work_estimate_factor = options.work_estimate_factor;

  auto diagnostics = analyze::analyze_design(flat, opts);
  std::vector<LintIssue> issues;
  issues.reserve(diagnostics.size());
  for (auto& d : diagnostics) {
    issues.push_back({d.severity == analyze::Severity::Error
                          ? LintSeverity::Error
                          : LintSeverity::Warning,
                      std::move(d.subject_kind), std::move(d.subject),
                      std::move(d.message)});
  }
  return issues;
}

bool has_errors(const std::vector<LintIssue>& issues) {
  return std::any_of(issues.begin(), issues.end(), [](const LintIssue& i) {
    return i.severity == LintSeverity::Error;
  });
}

}  // namespace banger

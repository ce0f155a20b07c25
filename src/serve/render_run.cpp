// The run-result renderers of serve/render.hpp, apart from the others:
// a generated program (cli/program.cpp) prints its run through
// render_run_result, and linking this file alone keeps the check
// pipeline, the schedulers, the simulator and viz out of it.
#include "serve/render.hpp"

#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace banger::serve {

namespace {

/// render_run_result appended to `out`: each value is written in place
/// rather than built as its own string first.
void append_run_result(std::string& out, const exec::RunResult& result,
                       bool include_wall) {
  for (const auto& [name, value] : result.outputs) {
    out += name;
    out += " = ";
    value.append_display(out);
    out += '\n';
  }
  if (!result.transcript.empty()) {
    out += "--- transcript ---\n";
    out += result.transcript;
  }
  out += '(';
  out += std::to_string(result.runs.size());
  out += " task executions";
  if (include_wall) {
    out += ", wall ";
    util::append_double(out, result.wall_seconds, 4);
    out += 's';
  }
  out += ")\n";
}

/// One `=== LABEL K of N ===` block per outcome. Each block is rendered
/// into its own string on `jobs` workers and the blocks are joined in
/// order, so the bytes do not depend on the worker count.
TrialBatchRender render_blocks(const std::vector<exec::TrialOutcome>& outcomes,
                               std::string_view label, int jobs) {
  const std::string total = std::to_string(outcomes.size());
  std::vector<std::string> blocks(outcomes.size());
  util::parallel_for(outcomes.size(), jobs, [&](std::size_t i) {
    const exec::TrialOutcome& outcome = outcomes[i];
    std::string& text = blocks[i];
    text += "=== ";
    text += label;
    text += ' ';
    text += std::to_string(i + 1);
    text += " of ";
    text += total;
    text += " ===\n";
    if (outcome.ok) {
      append_run_result(text, outcome.result, /*include_wall=*/false);
      return;
    }
    text += "error[" + std::string(to_string(outcome.error_code)) + "]: " +
            outcome.error;
    if (outcome.error_pos.valid()) {
      text += " (line " + std::to_string(outcome.error_pos.line) +
              ", column " + std::to_string(outcome.error_pos.column) + ")";
    }
    text += "\n";
  });
  TrialBatchRender r;
  std::size_t bytes = 0;
  for (const std::string& block : blocks) bytes += block.size();
  r.text.reserve(bytes);
  for (std::string& block : blocks) {
    r.text += block;
    std::string().swap(block);  // never hold the whole batch twice
  }
  for (const exec::TrialOutcome& outcome : outcomes) {
    if (!outcome.ok) r.exit_code = 1;
  }
  return r;
}

}  // namespace

std::string render_run_result(const exec::RunResult& result,
                              bool include_wall) {
  std::string out;
  append_run_result(out, result, include_wall);
  return out;
}

TrialBatchRender render_trial_batch(
    const std::vector<exec::TrialOutcome>& outcomes, int jobs) {
  return render_blocks(outcomes, "trial", jobs);
}

TrialBatchRender render_stream_batches(
    const std::vector<exec::TrialOutcome>& outcomes, int jobs) {
  return render_blocks(outcomes, "batch", jobs);
}

}  // namespace banger::serve

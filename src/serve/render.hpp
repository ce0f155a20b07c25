// banger/serve/render.hpp
//
// Renderers shared by the one-shot CLI commands and the serve daemon.
// Both paths MUST go through these helpers: the service's contract is
// that a `schedule`/`trial`/`check`/`trace` request returns bytes
// identical to the equivalent `banger <command>` invocation, and the
// only way to keep that true over time is a single rendering site.
#pragma once

#include <string>

#include "exec/executor.hpp"
#include "fault/fault.hpp"
#include "graph/design.hpp"
#include "machine/machine.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace banger::serve {

/// `banger schedule` output, split the way the CLI splits it: `artifact`
/// is what `-o FILE` would capture (chart/table/SVG/trace JSON) and
/// `trailer` is the metrics + utilization summary that always goes to
/// stdout (empty for the svg/trace formats).
struct ScheduleRender {
  std::string artifact;
  std::string trailer;
};
ScheduleRender render_schedule(const sched::Schedule& schedule,
                               const graph::TaskGraph& graph,
                               const machine::Machine& machine,
                               const std::string& format);

/// `banger trial` / `banger run` result text. `include_wall` keeps the
/// wall-clock seconds in the footer; pass false for deterministic output
/// (trial runs and every serve response).
std::string render_run_result(const exec::RunResult& result,
                              bool include_wall);

/// Batched trial output, shared by `banger trial --inputs` and the
/// serve batch envelope: one `=== trial K of N ===` block per input in
/// order, each the one-shot rendering (or the error the one-shot run
/// would have raised). `exit_code` is 1 when any trial failed. The
/// blocks are rendered on `jobs` workers (1 = inline, < 1 =
/// util::default_jobs()); the bytes are the same for any value.
struct TrialBatchRender {
  std::string text;
  int exit_code = 0;
};
TrialBatchRender render_trial_batch(
    const std::vector<exec::TrialOutcome>& outcomes, int jobs);

/// Streaming output, shared by `banger stream --inputs` and the serve
/// `inputs_stream` envelope: one `=== batch K of N ===` block per input
/// batch in push order, each rendered exactly like the equivalent
/// one-shot `banger run` (or the error that run would have raised).
/// `exit_code` is 1 when any batch failed; `jobs` as above.
TrialBatchRender render_stream_batches(
    const std::vector<exec::TrialOutcome>& outcomes, int jobs);

/// `banger check` output plus its exit status (1 when diagnostics at or
/// above the --fail-on threshold exist). `file_label` is the file name
/// stamped into diagnostics; `format` is text|json|sarif. The severity
/// counts back the structured `summary` object in serve responses and
/// match the trailer of the text format. `flat` is the design's
/// flattening as Design::validate() returned it.
struct CheckRender {
  std::string text;
  int exit_code = 0;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t notes = 0;
};
CheckRender render_check(const graph::FlattenResult& flat,
                         const std::string& format,
                         const std::string& fail_on,
                         const std::string& file_label);

/// `banger trace` artifact: schedules fresh (so scheduler internals are
/// recorded), replays, exports deterministic domains only. When `reuse`
/// is non-null the events are recorded into it (the CLI's --metrics
/// recorder); otherwise a private recorder keeps the request isolated.
struct TraceRender {
  std::string artifact;
  std::size_t events = 0;
};
TraceRender render_trace(const graph::TaskGraph& graph,
                         const machine::Machine& machine,
                         const std::string& scheduler,
                         const sim::SimOptions& sim_opts,
                         const fault::FaultPlan* plan,
                         obs::TraceRecorder* reuse);

}  // namespace banger::serve

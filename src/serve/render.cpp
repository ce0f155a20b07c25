#include "serve/render.hpp"

#include "analyze/analyze.hpp"
#include "core/recovery.hpp"
#include "util/strings.hpp"
#include "viz/charts.hpp"
#include "viz/gantt.hpp"
#include "viz/trace.hpp"

namespace banger::serve {

ScheduleRender render_schedule(const sched::Schedule& schedule,
                               const graph::TaskGraph& graph,
                               const machine::Machine& machine,
                               const std::string& format) {
  ScheduleRender r;
  if (format == "svg") {
    r.artifact = viz::render_gantt_svg(schedule, graph);
    return r;
  }
  if (format == "trace") {
    r.artifact = viz::to_chrome_trace(schedule, graph);
    return r;
  }
  r.artifact = format == "table" ? viz::schedule_table(schedule, graph)
                                 : viz::render_gantt(schedule, graph);
  const auto metrics = sched::compute_metrics(schedule, graph, machine);
  r.trailer = "makespan " + util::format_double(metrics.makespan, 6) +
              "  speedup " + util::format_double(metrics.speedup, 4) +
              "  efficiency " + util::format_double(metrics.efficiency, 4) +
              "  procs used " + std::to_string(metrics.procs_used) + "/" +
              std::to_string(metrics.procs) + "\n" +
              viz::render_utilization(schedule);
  return r;
}

CheckRender render_check(const graph::FlattenResult& flat,
                         const std::string& format,
                         const std::string& fail_on,
                         const std::string& file_label) {
  const auto diagnostics =
      analyze::analyze_design(flat, analyze::AnalyzeOptions{});
  analyze::EmitOptions emit;
  emit.file = file_label;
  CheckRender r;
  if (format == "json") {
    r.text = analyze::emit_json(diagnostics, emit);
  } else if (format == "sarif") {
    r.text = analyze::emit_sarif(diagnostics, emit);
  } else {
    r.text = analyze::emit_text(diagnostics, emit);
  }
  const auto threshold = fail_on == "warning" ? analyze::Severity::Warning
                                              : analyze::Severity::Error;
  r.exit_code = analyze::has_severity(diagnostics, threshold) ? 1 : 0;
  for (const analyze::Diagnostic& d : diagnostics) {
    switch (d.severity) {
      case analyze::Severity::Error: ++r.errors; break;
      case analyze::Severity::Warning: ++r.warnings; break;
      case analyze::Severity::Note: ++r.notes; break;
    }
  }
  return r;
}

TraceRender render_trace(const graph::TaskGraph& graph,
                         const machine::Machine& machine,
                         const std::string& scheduler,
                         const sim::SimOptions& sim_opts,
                         const fault::FaultPlan* plan,
                         obs::TraceRecorder* reuse) {
  obs::TraceRecorder local;
  obs::TraceRecorder* rec = reuse != nullptr ? reuse : &local;
  // Install on this thread for the duration so the scheduler's internal
  // instrumentation (rounds, list updates) lands in the same artifact.
  obs::ScopedRecorder scope(*rec);

  const auto sch = sched::make_scheduler(scheduler);
  sched::Schedule schedule = sch->run(graph, machine);
  schedule.validate(graph, machine);
  viz::record_schedule(*rec, schedule, graph);

  if (plan != nullptr) {
    core::FaultRunOptions fopts;
    fopts.sim = sim_opts;
    const auto report =
        core::run_with_faults(graph, machine, schedule, *plan, fopts);
    sim::SimResult replay = report.faulty;
    replay.events = report.events;  // includes repair/re-exec events
    viz::record_sim(*rec, replay, graph);
  } else {
    viz::record_sim(*rec, sim::simulate(graph, machine, schedule, sim_opts),
                    graph);
  }

  obs::ExportOptions export_opts;
  export_opts.include_wall = false;  // determinism over wall-clock noise
  TraceRender r;
  r.artifact = rec->to_chrome_json(export_opts);
  r.events = rec->size();
  return r;
}

}  // namespace banger::serve

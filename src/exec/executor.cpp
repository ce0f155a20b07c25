#include "exec/executor.hpp"

#include <chrono>
#include <optional>

#include "exec/plan.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace banger::exec {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One trial: every task once, in topological order, on the calling
/// thread. Throws the first task error.
RunResult run_trial(const FlattenResult& flat, const DesignPlan& plan,
                    const std::vector<TaskId>& order,
                    const ExternalInputs& external, const RunOptions& options,
                    TaskScratch& scratch) {
  const auto t0 = Clock::now();
  RunResult result;
  std::vector<std::optional<TaskOutputs>> task_outputs(flat.graph.num_tasks());
  for (TaskId t : order) {
    bind_task(flat, plan, t, external, task_outputs, scratch);
    TaskRun run;
    run.task = t;
    run.proc = 0;
    run.wall_start = seconds_since(t0);
    task_outputs[t] = execute_task(flat, plan, t, scratch, options, external,
                                   task_outputs, &result.transcript);
    run.wall_finish = seconds_since(t0);
    result.runs.push_back(run);
  }
  collect_stores(flat, plan, task_outputs, external, result);
  result.wall_seconds = seconds_since(t0);
  return result;
}

}  // namespace

void record_run(obs::TraceRecorder& rec, const graph::TaskGraph& g,
                const RunResult& result) {
  // Where each task's first copy finished: the source of its flows.
  std::vector<const TaskRun*> first(g.num_tasks(), nullptr);
  for (const TaskRun& run : result.runs) {
    const TaskRun*& f = first[run.task];
    if (f == nullptr || run.wall_finish < f->wall_finish) f = &run;
  }
  for (const TaskRun& run : result.runs) {
    std::string args = "\"proc\": " + std::to_string(run.proc);
    if (run.duplicate) args += ", \"duplicate\": true";
    if (run.rescued) args += ", \"rescued\": true";
    rec.span(obs::Domain::Wall, obs::kTrackExec, run.proc, run.wall_start,
             run.wall_finish, g.task(run.task).name, "task", args);
    for (graph::EdgeId e : g.in_edges(run.task)) {
      const TaskRun* from = first[g.edge(e).from];
      if (from == nullptr || from->proc == run.proc) continue;
      const std::string name = "edge" + std::to_string(e);
      rec.flow_point(obs::Domain::Wall, obs::kTrackExec, from->proc,
                     from->wall_finish, true, static_cast<int>(e), name,
                     "msg");
      rec.flow_point(obs::Domain::Wall, obs::kTrackExec, run.proc,
                     run.wall_start, false, static_cast<int>(e), name, "msg");
      rec.bump("exec.messages");
    }
  }
  rec.bump("exec.tasks", static_cast<double>(result.runs.size()));
  rec.bump("exec.runs");
  rec.bump("exec.wall_seconds", result.wall_seconds);
  rec.bump("exec.workers_died", static_cast<double>(result.workers_died));
  rec.bump("exec.tasks_rescued", static_cast<double>(result.tasks_rescued));
}

RunResult run_sequential(const FlattenResult& flat,
                         const std::map<std::string, pits::Value>& inputs,
                         const RunOptions& options) {
  const DesignPlan plan = build_plan(flat);
  obs::TraceRecorder* rec = obs::current();
  TaskScratch scratch;
  RunResult result;
  try {
    result = run_trial(flat, plan, flat.graph.topo_order(), inputs, options,
                       scratch);
  } catch (const Error&) {
    if (rec) rec->bump("exec.worker_failures");
    throw;
  }
  if (rec) record_run(*rec, flat.graph, result);
  return result;
}

std::vector<TrialOutcome> run_trials(
    const FlattenResult& flat,
    const std::vector<std::map<std::string, pits::Value>>& inputs,
    const RunOptions& options, int jobs) {
  const DesignPlan plan = build_plan(flat);
  const std::vector<TaskId> order = flat.graph.topo_order();
  obs::TraceRecorder* rec = obs::current();

  auto one_trial = [&](const ExternalInputs& external,
                       TaskScratch& scratch) -> TrialOutcome {
    TrialOutcome out;
    try {
      out.result = run_trial(flat, plan, order, external, options, scratch);
      out.ok = true;
    } catch (const Error& e) {
      // Exactly what the one-shot run would have thrown for this input;
      // neighbouring trials are unaffected.
      out.error_code = e.code();
      out.error = e.message();
      out.error_pos = e.pos();
    }
    return out;
  };

  std::vector<TrialOutcome> results(inputs.size());
  if (jobs == 1) {
    TaskScratch scratch;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      results[i] = one_trial(inputs[i], scratch);
    }
  } else {
    util::parallel_for(inputs.size(), jobs, [&](std::size_t i) {
      static thread_local TaskScratch scratch;
      results[i] = one_trial(inputs[i], scratch);
    });
  }
  if (rec) {
    rec->bump("exec.trial_batches");
    rec->bump("exec.trials", static_cast<double>(inputs.size()));
  }
  return results;
}

Executor::Executor(const FlattenResult& flat, const Machine& machine)
    : flat_(flat), machine_(machine) {}

RunResult Executor::run(const Schedule& schedule,
                        const std::map<std::string, pits::Value>& inputs,
                        const RunOptions& options) const {
  TrialOutcome out = run_batch(flat_, schedule, machine_, inputs, options);
  obs::TraceRecorder* rec = obs::current();
  if (!out.ok) {
    if (rec) rec->bump("exec.worker_failures");
    fail(out.error_code, std::move(out.error), out.error_pos);
  }
  if (rec) record_run(*rec, flat_.graph, out.result);
  return std::move(out.result);
}

}  // namespace banger::exec

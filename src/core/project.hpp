// banger/core/project.hpp
//
// The environment facade: one object per Banger "project" that walks the
// paper's four-step workflow —
//   1. draw the hierarchical dataflow graph      (graph::Design)
//   2. define the target machine                 (machine::Machine)
//   3. program each node with the calculator     (calc / pits)
//   4. generate: schedule, predict, simulate,
//      trial-run, emit code                      (sched/sim/exec/codegen)
// — with instant-feedback accessors that recompute lazily and cache.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "exec/executor.hpp"
#include "exec/stream.hpp"
#include "graph/design.hpp"
#include "machine/machine.hpp"
#include "sched/scheduler.hpp"
#include "sched/speedup.hpp"
#include "sim/simulator.hpp"

namespace banger {

class Project {
 public:
  /// Takes the finished design (validated here). The design is immutable
  /// afterwards: editing means building a new Project, exactly like
  /// re-entering the editor.
  explicit Project(graph::Design design);

  /// Loads a `.pitl` file.
  static Project load(const std::string& path);

  [[nodiscard]] const graph::Design& design() const noexcept { return design_; }
  [[nodiscard]] const graph::FlattenResult& flattened() const noexcept {
    return flat_;
  }

  /// Step 2: pick the target machine. Clears cached schedules.
  void set_machine(machine::Machine machine);
  [[nodiscard]] bool has_machine() const noexcept {
    return machine_.has_value();
  }
  /// Throws Error{Machine} if no machine was defined yet.
  [[nodiscard]] const machine::Machine& machine() const;

  /// Step 4a: schedule with a named heuristic (default: the MH production
  /// scheduler). Validated and cached per heuristic name.
  const sched::Schedule& schedule(const std::string& heuristic = "mh") const;
  [[nodiscard]] sched::ScheduleMetrics metrics(
      const std::string& heuristic = "mh") const;

  /// Step 4b: speedup prediction over machines of the same family as the
  /// current machine (same parameters, topology resized). `sizes` are
  /// processor counts; hypercubes round up to the next power of two.
  /// `jobs` > 1 schedules the sizes concurrently (<= 0 means
  /// util::default_jobs()); the curve is identical for every value.
  [[nodiscard]] sched::SpeedupCurve speedup(
      const std::vector<int>& sizes, const std::string& heuristic = "mh",
      int jobs = 1) const;

  /// Step 4c: discrete-event replay of a schedule.
  [[nodiscard]] sim::SimResult simulate(
      const std::string& heuristic = "mh",
      const sim::SimOptions& options = {}) const;

  /// Trial run of the whole program, sequentially (no machine needed).
  [[nodiscard]] exec::RunResult trial_run(
      const std::map<std::string, pits::Value>& inputs,
      const exec::RunOptions& options = {}) const;

  /// Batched trial runs: one sequential run per input map, in order,
  /// amortising parse/analysis/compilation and reusing execution frames
  /// across the batch (see exec::run_trials). Each outcome is
  /// byte-identical to the matching one-shot trial_run, including
  /// errors; `jobs` fans trials across threads deterministically.
  [[nodiscard]] std::vector<exec::TrialOutcome> trial_runs(
      const std::vector<std::map<std::string, pits::Value>>& inputs,
      const exec::RunOptions& options = {}, int jobs = 1) const;

  /// Real parallel execution on host threads following a schedule.
  [[nodiscard]] exec::RunResult run(
      const std::map<std::string, pits::Value>& inputs,
      const std::string& heuristic = "mh",
      const exec::RunOptions& options = {}) const;

  /// Streaming (pipeline) execution: runs the scheduled graph
  /// continuously over a sequence of input batches through persistent
  /// stages on bounded queues (see exec::run_stream). Each outcome is
  /// byte-identical to the matching one-shot run(); the report carries
  /// per-block and per-queue statistics.
  [[nodiscard]] exec::StreamResult run_stream(
      const std::vector<std::map<std::string, pits::Value>>& batches,
      const std::string& heuristic = "mh",
      const exec::StreamOptions& options = {}) const;

  /// Step 4d: emit the C++ program that runs this design, scheduled by
  /// `heuristic`, with `inputs` on banger's engine (codegen/codegen.hpp).
  [[nodiscard]] std::string generate_code(
      const std::map<std::string, pits::Value>& inputs,
      const std::string& heuristic = "mh") const;

  /// Quick design diagnostics shown by the environment: leaf tasks,
  /// hierarchy depth, critical path, average parallelism.
  struct DesignSummary {
    std::size_t leaf_tasks = 0;
    std::size_t edges = 0;
    std::size_t stores = 0;
    int depth = 0;
    double total_work = 0.0;
    double critical_path_work = 0.0;
    double average_parallelism = 0.0;
  };
  [[nodiscard]] DesignSummary summary() const;

 private:
  /// Builds a machine of the current family with ~`procs` processors.
  [[nodiscard]] machine::Machine resized_machine(int procs) const;

  graph::Design design_;
  graph::FlattenResult flat_;
  std::optional<machine::Machine> machine_;
  mutable std::map<std::string, sched::Schedule> schedule_cache_;
};

}  // namespace banger

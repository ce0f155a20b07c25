// banger/exec/executor.hpp
//
// Actually *runs* a flattened PITL/PITS program. Two modes:
//
//   run_sequential  — one thread, topological order: the environment's
//                     "trial run of an entire program" feedback feature.
//                     It is one trial of run_trials.
//   Executor::run   — the schedule's placements as per-processor lanes,
//                     run in schedule order on worker threads as a
//                     stream of one batch (exec/stream.hpp): the
//                     stand-in for the code generators the paper left as
//                     future work.
//
// Task semantics: a task's PITS routine sees its declared input variables
// bound (from predecessor outputs or from the design's input stores) and
// must assign every declared output. Duplicate copies re-execute the
// routine; the executor cross-checks that copies produce identical
// outputs (they must: PITS is deterministic, rand() is seeded per task).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "graph/design.hpp"
#include "pits/interp.hpp"
#include "sched/schedule.hpp"
#include "util/error.hpp"

namespace banger::exec {

using graph::FlattenResult;
using graph::TaskId;
using machine::Machine;
using machine::ProcId;
using sched::Schedule;

struct RunOptions {
  pits::ExecOptions pits;  ///< step limit / seed base for task routines
  /// Optional fault plan: a worker whose processor has a registered
  /// crash fail-stops at the first lane placement whose *scheduled*
  /// start is at or past the crash time, so injection does not depend
  /// on wall-clock jitter. The rest of its lane is rescued by the
  /// lowest-numbered processor whose lane did not crash. Not owned; must
  /// outlive run().
  const fault::FaultPlan* faults = nullptr;
};

struct TaskRun {
  TaskId task = graph::kNoTask;
  ProcId proc = -1;
  bool duplicate = false;
  bool rescued = false;      ///< run by a survivor after a worker died
  double wall_start = 0.0;   ///< seconds since the run (batch) started
  double wall_finish = 0.0;
};

struct RunResult {
  /// Final value of every store (inputs echoed, outputs computed).
  std::map<std::string, pits::Value> stores;
  /// Output-store values only (the program's results).
  std::map<std::string, pits::Value> outputs;
  double wall_seconds = 0.0;
  std::vector<TaskRun> runs;
  std::string transcript;
  // ---- Fault recovery accounting (non-zero only with RunOptions::faults).
  int workers_died = 0;
  std::size_t tasks_rescued = 0;
  /// Wall seconds survivors spent running rescued work.
  double recovery_overhead_seconds = 0.0;
};

/// One-thread reference execution in topological order: one trial of
/// run_trials. Throws the first task error (Error{Runtime}/Error{Type}/
/// ...) with the task name in the message.
RunResult run_sequential(const FlattenResult& flat,
                         const std::map<std::string, pits::Value>& inputs,
                         const RunOptions& options = {});

/// Outcome of one trial in a batched run: either a full RunResult or
/// exactly the error the equivalent one-shot run_sequential would have
/// thrown for that input (code, message, position). Erroring inputs
/// mid-batch do not disturb their neighbours.
struct TrialOutcome {
  bool ok = false;
  RunResult result;
  ErrorCode error_code = ErrorCode::Runtime;
  std::string error;
  SourcePos error_pos;
};

/// Batched trial runs: executes the design once per input map, in input
/// order, amortising parse/analysis/compilation and reusing VM register
/// frames and transcript buffers across the whole batch. Per-trial
/// stores/outputs/transcript are byte-identical to run_sequential on the
/// same input. `jobs` fans trials across the shared thread pool with a
/// deterministic order-preserving merge (1 = inline on the caller,
/// < 1 = util::default_jobs()); results are identical for any value.
std::vector<TrialOutcome> run_trials(
    const FlattenResult& flat,
    const std::vector<std::map<std::string, pits::Value>>& inputs,
    const RunOptions& options = {}, int jobs = 1);

/// Parallel execution honouring a schedule's placement and lane order.
class Executor {
 public:
  Executor(const FlattenResult& flat, const Machine& machine);

  /// Runs each processor's lane in schedule order on worker threads, no
  /// more than the lanes or util::default_jobs(). Throws the
  /// earliest-scheduled task error as "worker P: " + the message
  /// run_sequential gives, P being the processor that ran the task. Stores and outputs are bitwise identical to
  /// run_sequential's, also under an injected crash as long as one
  /// processor's lane survives (all crashed is Error{Runtime}); the
  /// transcript and `runs` follow schedule order.
  [[nodiscard]] RunResult run(
      const Schedule& schedule,
      const std::map<std::string, pits::Value>& inputs,
      const RunOptions& options = {}) const;

 private:
  const FlattenResult& flat_;
  const Machine& machine_;
};

}  // namespace banger::exec

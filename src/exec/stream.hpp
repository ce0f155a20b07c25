// banger/exec/stream.hpp
//
// Streaming (pipeline) execution: runs a scheduled PITL graph
// continuously over an unbounded sequence of input batches instead of
// once. Every scheduled placement becomes a persistent pipeline stage;
// the schedule's processor assignment becomes the stage-to-core
// placement; values cross processors through bounded single-producer
// single-consumer queues with backpressure. Compilation, slot interning,
// input-binding resolution, and VM register frames are set up once (the
// shared DesignPlan) and reused for every batch.
//
// Guarantees:
//   - Per-batch results (stores, outputs, transcript, runs, errors) are
//     exactly what Executor::run gives for that batch with the same
//     schedule and options: Executor::run is this runtime on a stream
//     of one batch. Stores and outputs equal
//     run_sequential's; a batch where several tasks fail reports the
//     earliest-scheduled failure.
//   - A fault plan splits every crashed lane the same way in every
//     batch (see RunOptions::faults).
//   - Outcomes are delivered strictly in push order.
//   - A failing batch does not disturb its neighbours (run_trials
//     semantics): the error that Executor::run would have thrown is
//     captured in that batch's TrialOutcome.
//   - Memory is bounded: queues hold at most `queue_capacity` packets,
//     and at most `window` batches are in flight at once (push blocks).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/executor.hpp"

namespace banger::obs {
class TraceRecorder;
}  // namespace banger::obs

namespace banger::exec {

struct Pipeline;  ///< the lanes, queues and batches (stream.cpp)

struct StreamOptions {
  /// Per-batch execution options, fault plan included.
  RunOptions run;
  /// Bounded capacity of every inter-stage queue, in packets (>= 1).
  /// One packet crosses each queue per batch, so capacity is the number
  /// of batches a producer may run ahead of one consumer.
  std::size_t queue_capacity = 8;
  /// Maximum batches admitted but not yet fully executed; push() blocks
  /// at the limit (backpressure). 0 = auto (2x worker threads, min 4).
  std::size_t window = 0;
  /// Worker threads driving the lanes. <= 0 = util::default_jobs()
  /// (BANGER_JOBS, else one per core); always clamped to the number of
  /// lanes. Outputs are identical for every value.
  int jobs = 0;
};

/// Per-stage counters for the execution report (cler-style): one row per
/// scheduled placement.
struct BlockStats {
  std::string name;  ///< "task@proc", "+dup" suffixed for duplicates
  TaskId task = graph::kNoTask;
  ProcId proc = -1;
  bool duplicate = false;
  std::uint64_t processed = 0;  ///< batches executed
  std::uint64_t skipped = 0;    ///< batches skipped (upstream failed)
  double busy_seconds = 0.0;    ///< time spent inside the task routine
  double dead_seconds = 0.0;    ///< stream wall time minus busy time
};

/// Per-queue counters: one row per cross-lane producer->consumer edge.
struct QueueStats {
  std::string name;  ///< "producer@p->consumer@q:var"
  std::size_t capacity = 0;
  std::uint64_t pushes = 0;
  std::uint64_t max_occupancy = 0;
  double avg_occupancy = 0.0;   ///< mean occupancy observed at push time
  std::uint64_t full_stalls = 0;   ///< producer found the queue full
  std::uint64_t empty_stalls = 0;  ///< consumer found the queue empty
};

struct StreamReport {
  std::uint64_t batches = 0;  ///< batches fully executed
  double wall_seconds = 0.0;
  std::size_t threads = 0;
  std::vector<BlockStats> blocks;
  std::vector<QueueStats> queues;

  [[nodiscard]] double batches_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(batches) / wall_seconds
                              : 0.0;
  }
  /// Human-readable execution report (block + queue tables).
  [[nodiscard]] std::string render() const;
  /// Publishes every counter as `stream.*` metrics on the recorder.
  void record(obs::TraceRecorder& rec) const;
};

struct StreamResult {
  /// One outcome per input batch, in input order; exactly what
  /// Executor::run would have produced (or thrown) for that batch.
  std::vector<TrialOutcome> outcomes;
  StreamReport report;
};

/// Incremental push/drain streaming API. Typical use:
///
///   StreamExecutor ex(flat, schedule, machine, options);
///   for (auto& batch : feed) {
///     ex.push(std::move(batch));                 // blocks on backpressure
///     while (auto out = ex.try_pop()) consume(*out);
///   }
///   // drain what is still in flight, then stop the workers:
///   while (outstanding) consume(ex.pop());
///   StreamReport report = ex.finish();
///
/// push/try_pop/pop may be called from one driver thread (the class
/// serialises internally, but pop-after-close ordering is the caller's
/// responsibility). `flat`, `schedule`, and `machine` must outlive the
/// executor.
class StreamExecutor {
 public:
  StreamExecutor(const FlattenResult& flat, const Schedule& schedule,
                 const Machine& machine, StreamOptions options = {});
  ~StreamExecutor();

  StreamExecutor(const StreamExecutor&) = delete;
  StreamExecutor& operator=(const StreamExecutor&) = delete;

  /// Admits one input batch. Blocks while `window` batches are already
  /// in flight (bounded-memory backpressure).
  void push(std::map<std::string, pits::Value> inputs);

  /// Next outcome in push order, if its batch has finished.
  [[nodiscard]] std::optional<TrialOutcome> try_pop();

  /// Blocks for the next outcome in push order. At least one pushed
  /// batch must still be undelivered.
  [[nodiscard]] TrialOutcome pop();

  /// Outcomes pushed but not yet popped (delivered).
  [[nodiscard]] std::uint64_t outstanding() const;

  /// Stops the workers (after they finish every admitted batch) and
  /// returns the execution report. Remaining outcomes stay poppable.
  /// Also publishes the report to the ambient obs recorder, if any.
  StreamReport finish();

 private:
  std::unique_ptr<Pipeline> impl_;
};

/// One-shot wrapper: streams `batches` through the pipeline and returns
/// every outcome plus the execution report.
StreamResult run_stream(const FlattenResult& flat, const Schedule& schedule,
                        const Machine& machine,
                        const std::vector<std::map<std::string, pits::Value>>& batches,
                        const StreamOptions& options = {});

}  // namespace banger::exec

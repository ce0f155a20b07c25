// Streaming executor tests: differential byte-identity against
// per-batch Executor::run (the same runtime on one batch) and against
// run_sequential as an independent oracle; mid-stream error isolation,
// bounded-queue backpressure, duplicate schedules, crashes, and the
// incremental push/drain API.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>

#include "exec/executor.hpp"
#include "exec/stream.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sched/heuristics.hpp"
#include "workloads/designs.hpp"
#include "workloads/graphs.hpp"
#include "workloads/lu.hpp"
#include "workloads/synth.hpp"

namespace banger::exec {
namespace {

using pits::Value;
using pits::Vector;

Machine make_machine(int procs) {
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = 0.01;
  p.bytes_per_second = 1e6;
  return Machine(machine::Topology::fully_connected(procs), p);
}

std::map<std::string, Value> lu_inputs(double scale) {
  // Scaled variant of the exec_test system: x = [s, 2s, 3s].
  return {{"A", Value(Vector{4, 3, 2, 8, 8, 5, 4, 7, 9})},
          {"b", Value(Vector{scale * 16, scale * 39, scale * 45})}};
}

std::vector<std::map<std::string, Value>> lu_batches(int n) {
  std::vector<std::map<std::string, Value>> batches;
  for (int i = 0; i < n; ++i) {
    batches.push_back(lu_inputs(1.0 + i));
  }
  return batches;
}

/// The acceptance contract: every per-batch result must match what one
/// Executor::run on the same schedule produces, field by field.
void expect_same_result(const RunResult& stream, const RunResult& ref,
                        const std::string& label) {
  EXPECT_EQ(stream.outputs, ref.outputs) << label;
  EXPECT_EQ(stream.stores, ref.stores) << label;
  EXPECT_EQ(stream.transcript, ref.transcript) << label;
  EXPECT_EQ(stream.runs.size(), ref.runs.size()) << label;
}

/// Executor::run is the stream on one batch, so run_sequential is the
/// independent oracle: stores and outputs are bit-identical to it.
void expect_sequential_values(const RunResult& got, const RunResult& seq,
                              const std::string& label) {
  EXPECT_EQ(got.outputs, seq.outputs) << label;
  EXPECT_EQ(got.stores, seq.stores) << label;
}

/// The error run_sequential throws for `inputs`, prefixed as a scheduled
/// run reports it when processor `proc` ran the failing task.
std::string sequential_error(const FlattenResult& flat,
                             const std::map<std::string, Value>& inputs,
                             const RunOptions& options, ProcId proc) {
  try {
    (void)run_sequential(flat, inputs, options);
  } catch (const Error& e) {
    return "worker " + std::to_string(proc) + ": " + e.message();
  }
  ADD_FAILURE() << "expected run_sequential to throw";
  return {};
}

/// The processor of `name`'s primary placement.
ProcId primary_proc(const FlattenResult& flat, const Schedule& schedule,
                    const std::string& name) {
  for (TaskId t = 0; t < flat.graph.num_tasks(); ++t) {
    if (flat.graph.task(t).name != name) continue;
    for (const sched::Placement& pl : schedule.copies_of(t)) {
      if (!pl.duplicate) return pl.proc;
    }
  }
  ADD_FAILURE() << "no primary placement of " << name;
  return -1;
}

TEST(Stream, MatchesPerBatchRunAllJobCounts) {
  auto flat = workloads::lu3x3_design().flatten();
  auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  const auto batches = lu_batches(6);

  std::vector<RunResult> refs;
  for (const auto& b : batches) {
    refs.push_back(executor.run(schedule, b));
    expect_sequential_values(refs.back(), run_sequential(flat, b), "run");
  }
  for (const int jobs : {1, 2, 8, 0}) {
    StreamOptions opts;
    opts.jobs = jobs;
    const StreamResult sr = run_stream(flat, schedule, m, batches, opts);
    ASSERT_EQ(sr.outcomes.size(), batches.size());
    for (std::size_t i = 0; i < batches.size(); ++i) {
      ASSERT_TRUE(sr.outcomes[i].ok);
      expect_same_result(sr.outcomes[i].result, refs[i],
                         "jobs=" + std::to_string(jobs) +
                             " batch=" + std::to_string(i));
    }
    EXPECT_EQ(sr.report.batches, batches.size());
  }
}

TEST(Stream, TranscriptsMatchAcrossProcessors) {
  // A 3-task chain with prints, split over two processors: streaming
  // must stitch the transcript exactly like Executor::run (a chain has
  // a deterministic completion order, so the bytes are well-defined).
  graph::TaskGraph g;
  graph::Task a;
  a.name = "first";
  a.work = 1;
  a.pits = "print(\"one\")\nx := 1\n";
  a.outputs = {"x"};
  const graph::TaskId ta = g.add_task(std::move(a));
  graph::Task b;
  b.name = "second";
  b.work = 1;
  b.inputs = {"x"};
  b.pits = "print(\"two\")\ny := x + 1\n";
  b.outputs = {"y"};
  const graph::TaskId tb = g.add_task(std::move(b));
  graph::Task c;
  c.name = "third";
  c.work = 1;
  c.inputs = {"y"};
  c.pits = "print(\"three\")\nz := y + 1\n";
  c.outputs = {"z"};
  const graph::TaskId tc = g.add_task(std::move(c));
  g.add_edge(ta, tb, 8.0, "x");
  g.add_edge(tb, tc, 8.0, "y");
  auto flat = workloads::as_flatten(std::move(g));

  auto m = make_machine(2);
  const double d = m.task_time(1.0, 0);
  const double gap = 0.02;
  sched::Schedule schedule(2, "manual");
  schedule.place(ta, 0, 0.0, d);
  schedule.place(tb, 1, d + gap, 2 * d + gap);
  schedule.place(tc, 0, 2 * d + 2 * gap, 3 * d + 2 * gap);
  schedule.validate(flat.graph, m);

  Executor executor(flat, m);
  const auto ref = executor.run(schedule, {});
  EXPECT_EQ(ref.transcript, "[first]\none\n[second]\ntwo\n[third]\nthree\n");

  const StreamResult sr = run_stream(flat, schedule, m,
                                     {{}, {}, {}}, StreamOptions{});
  ASSERT_EQ(sr.outcomes.size(), 3u);
  for (const TrialOutcome& out : sr.outcomes) {
    ASSERT_TRUE(out.ok);
    expect_same_result(out.result, ref, "chain");
  }
}

TEST(Stream, MidStreamErrorMatchesExecutorAndIsolatesNeighbours) {
  auto flat = workloads::lu3x3_design().flatten();
  auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);

  auto bad = lu_inputs(1.0);
  bad["A"] = Value(Vector{0, 3, 2, 8, 8, 5, 4, 7, 9});  // zero pivot
  ErrorCode ref_code{};
  std::string ref_message;
  SourcePos ref_pos;
  try {
    (void)executor.run(schedule, bad);
    FAIL() << "expected the zero-pivot run to throw";
  } catch (const Error& e) {
    ref_code = e.code();
    ref_message = e.message();
    ref_pos = e.pos();
  }

  StreamOptions opts;
  std::vector<std::map<std::string, Value>> batches = {
      lu_inputs(1.0), bad, lu_inputs(3.0)};
  const StreamResult sr = run_stream(flat, schedule, m, batches, opts);
  ASSERT_EQ(sr.outcomes.size(), 3u);
  // The failing batch carries exactly the error Executor::run threw,
  // which is run_sequential's, prefixed with fan1's processor.
  EXPECT_FALSE(sr.outcomes[1].ok);
  EXPECT_EQ(sr.outcomes[1].error_code, ref_code);
  EXPECT_EQ(sr.outcomes[1].error, ref_message);
  EXPECT_EQ(sr.outcomes[1].error,
            sequential_error(flat, bad, opts.run,
                             primary_proc(flat, schedule, "fan1")));
  EXPECT_EQ(sr.outcomes[1].error_pos.line, ref_pos.line);
  EXPECT_EQ(sr.outcomes[1].error_pos.column, ref_pos.column);
  // Its neighbours are untouched.
  ASSERT_TRUE(sr.outcomes[0].ok);
  ASSERT_TRUE(sr.outcomes[2].ok);
  const auto ref0 = executor.run(schedule, batches[0]);
  const auto ref2 = executor.run(schedule, batches[2]);
  expect_same_result(sr.outcomes[0].result, ref0, "before error");
  expect_same_result(sr.outcomes[2].result, ref2, "after error");
}

TEST(Stream, MissingExternalInputFailsPerBatch) {
  // A batch with bad external inputs fails with exactly the error the
  // one-shot executor raises for the same inputs.
  auto flat = workloads::lu3x3_design().flatten();
  auto m = make_machine(2);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  const std::map<std::string, Value> bad = {{"A", Value(Vector{1})}};

  Executor executor(flat, m);
  ErrorCode ref_code{};
  std::string ref_message;
  try {
    (void)executor.run(schedule, bad);
    FAIL() << "expected the under-supplied run to throw";
  } catch (const Error& e) {
    ref_code = e.code();
    ref_message = e.message();
  }

  const StreamResult sr = run_stream(flat, schedule, m, {bad}, StreamOptions{});
  ASSERT_EQ(sr.outcomes.size(), 1u);
  EXPECT_FALSE(sr.outcomes[0].ok);
  EXPECT_EQ(sr.outcomes[0].error_code, ref_code);
  EXPECT_EQ(sr.outcomes[0].error, ref_message);
}

TEST(Stream, BoundedQueueBackpressureNeverOverflowsOrDeadlocks) {
  // Fast producer, slow consumer, queue capacity 1: the producer must
  // stall instead of overflowing, and the pipeline must still drain
  // every batch.
  graph::TaskGraph g;
  graph::Task prod;
  prod.name = "prod";
  prod.work = 1;
  prod.inputs = {"x"};
  prod.pits = "v := x * 2\n";
  prod.outputs = {"v"};
  const graph::TaskId tp = g.add_task(std::move(prod));
  graph::Task cons;
  cons.name = "cons";
  cons.work = 4;
  cons.inputs = {"v"};
  cons.pits =
      "s := 0\nfor i := 1 to 2000 do\n  s := s + i\nend\nr := v + s - s\n";
  cons.outputs = {"r"};
  const graph::TaskId tc = g.add_task(std::move(cons));
  g.add_edge(tp, tc, 8.0, "v");
  auto flat = workloads::as_flatten(std::move(g));
  graph::FlatStore in_store;
  in_store.name = "x";
  in_store.var = "x";
  in_store.readers = {tp};
  flat.stores.push_back(std::move(in_store));
  graph::FlatStore out_store;
  out_store.name = "r";
  out_store.var = "r";
  out_store.writers = {tc};
  flat.stores.push_back(std::move(out_store));

  auto m = make_machine(2);
  const double dp = m.task_time(1.0, 0);
  const double dc = m.task_time(4.0, 1);
  sched::Schedule schedule(2, "manual");
  schedule.place(tp, 0, 0.0, dp);
  schedule.place(tc, 1, dp + 0.02, dp + 0.02 + dc);
  schedule.validate(flat.graph, m);

  StreamOptions opts;
  opts.queue_capacity = 1;
  opts.window = 16;
  opts.jobs = 2;
  std::vector<std::map<std::string, Value>> batches;
  for (int i = 0; i < 32; ++i) {
    batches.push_back({{"x", Value(static_cast<double>(i))}});
  }
  const StreamResult sr = run_stream(flat, schedule, m, batches, opts);
  ASSERT_EQ(sr.outcomes.size(), batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    ASSERT_TRUE(sr.outcomes[i].ok);
    EXPECT_EQ(sr.outcomes[i].result.outputs.at("r").as_scalar(),
              2.0 * static_cast<double>(i));
  }
  ASSERT_EQ(sr.report.queues.size(), 1u);
  EXPECT_EQ(sr.report.queues[0].capacity, 1u);
  EXPECT_LE(sr.report.queues[0].max_occupancy, 1u);
  EXPECT_EQ(sr.report.queues[0].pushes, batches.size());
}

TEST(Stream, DuplicateScheduleStreams) {
  // A hand-built schedule with an explicit duplicate copy (the
  // exec_test idiom): the consumer reads its local copy, outputs still
  // match the reference run per batch.
  auto g = workloads::chain_graph(2, 1.0, 8.0);
  workloads::synthesize_pits(g);
  auto flat = workloads::as_flatten(std::move(g));
  auto m = make_machine(2);
  const double dur = m.task_time(1.0, 0);
  sched::Schedule schedule(2, "manual");
  schedule.place(0, 0, 0.0, dur);
  schedule.place(0, 1, 0.0, dur, /*duplicate=*/true);
  schedule.place(1, 1, dur, 2.0 * dur);
  schedule.validate(flat.graph, m);
  ASSERT_EQ(schedule.num_duplicates(), 1);

  Executor executor(flat, m);
  const auto ref = executor.run(schedule, {});
  const StreamResult sr =
      run_stream(flat, schedule, m, {{}, {}, {}, {}}, StreamOptions{});
  ASSERT_EQ(sr.outcomes.size(), 4u);
  for (const TrialOutcome& out : sr.outcomes) {
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.result.outputs, ref.outputs);
    EXPECT_EQ(out.result.runs.size(), 3u);  // both copies plus the chain tail
  }
  // Duplicate stages appear as their own pipeline blocks.
  bool saw_duplicate_block = false;
  for (const BlockStats& b : sr.report.blocks) {
    saw_duplicate_block = saw_duplicate_block || b.duplicate;
  }
  EXPECT_TRUE(saw_duplicate_block);
}

TEST(Stream, IncrementalPushDrainApi) {
  auto flat = workloads::lu3x3_design().flatten();
  auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);

  StreamExecutor ex(flat, schedule, m, StreamOptions{});
  std::vector<TrialOutcome> outcomes;
  for (int i = 0; i < 5; ++i) {
    ex.push(lu_inputs(1.0 + i));
    while (auto out = ex.try_pop()) outcomes.push_back(std::move(*out));
  }
  while (ex.outstanding() > 0) outcomes.push_back(ex.pop());
  const StreamReport report = ex.finish();

  ASSERT_EQ(outcomes.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(outcomes[static_cast<std::size_t>(i)].ok);
    const auto ref = executor.run(schedule, lu_inputs(1.0 + i));
    expect_same_result(outcomes[static_cast<std::size_t>(i)].result, ref,
                       "push " + std::to_string(i));
  }
  EXPECT_EQ(report.batches, 5u);
  EXPECT_GT(report.threads, 0u);
  ASSERT_FALSE(report.blocks.empty());
  for (const BlockStats& b : report.blocks) {
    EXPECT_EQ(b.processed, 5u) << b.name;
    EXPECT_EQ(b.skipped, 0u) << b.name;
  }
  // finish() is idempotent and outcomes arrive strictly in push order.
  EXPECT_EQ(ex.finish().batches, 5u);
  EXPECT_THROW((void)ex.pop(), Error);
}

TEST(Stream, CrashedStreamMatchesSequentialPerBatch) {
  // The fault plan splits the crashed lane once, at wiring time, and
  // every batch runs the same rescue.
  auto flat = workloads::lu3x3_design().flatten();
  auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  const sched::Placement last = schedule.lane(0).back();
  const auto plan = fault::plan_crash(0, last.start);
  StreamOptions opts;
  opts.run.faults = &plan;
  const auto batches = lu_batches(3);
  const StreamResult sr = run_stream(flat, schedule, m, batches, opts);
  ASSERT_EQ(sr.outcomes.size(), batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    ASSERT_TRUE(sr.outcomes[i].ok) << sr.outcomes[i].error;
    const RunResult& got = sr.outcomes[i].result;
    const std::string label = "batch " + std::to_string(i);
    expect_sequential_values(got, run_sequential(flat, batches[i]), label);
    EXPECT_EQ(got.workers_died, 1) << label;
    EXPECT_GE(got.tasks_rescued, 1u) << label;
    std::size_t rescued = 0;
    for (const TaskRun& r : got.runs) rescued += r.rescued;
    EXPECT_EQ(rescued, got.tasks_rescued) << label;
  }
  EXPECT_EQ(sr.outcomes[0].result.tasks_rescued,
            sr.outcomes[2].result.tasks_rescued);
}

TEST(Stream, RunTimesLieWithinTheirBatch) {
  // Each batch's task runs are timed from that batch's admission, like
  // its wall_seconds, however late in the stream it comes.
  auto flat = workloads::lu3x3_design().flatten();
  auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  const StreamResult sr =
      run_stream(flat, schedule, m, lu_batches(64), StreamOptions{});
  ASSERT_EQ(sr.outcomes.size(), 64u);
  for (std::size_t i = 0; i < sr.outcomes.size(); ++i) {
    ASSERT_TRUE(sr.outcomes[i].ok);
    const RunResult& r = sr.outcomes[i].result;
    ASSERT_EQ(r.runs.size(), flat.graph.num_tasks());
    for (const TaskRun& run : r.runs) {
      EXPECT_LE(0.0, run.wall_start) << "batch " << i;
      EXPECT_LE(run.wall_start, run.wall_finish) << "batch " << i;
      EXPECT_LE(run.wall_finish, r.wall_seconds) << "batch " << i;
    }
  }
}

TEST(Stream, ReportRendersAndPublishesMetrics) {
  auto flat = workloads::lu3x3_design().flatten();
  auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  obs::TraceRecorder rec;
  StreamReport report;
  {
    obs::ScopedRecorder scope(rec);
    report = run_stream(flat, schedule, m, lu_batches(4), StreamOptions{})
                 .report;
  }
  const std::string text = report.render();
  EXPECT_NE(text.find("streaming execution report: 4 batches"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("processed"), std::string::npos);
  EXPECT_EQ(rec.metric("stream.batches"), 4.0);
  EXPECT_EQ(rec.metric("exec.stream_batches"), 4.0);
  EXPECT_GT(rec.metric("stream.threads"), 0.0);
}

TEST(Stream, CallerWakesOncePerBatch) {
  // Heat 32x32 runs 1057 tiny stages per batch on one worker. The
  // calling thread blocks in push() (window full) and pop(), and must be
  // woken when a batch finishes, not when a stage does: its voluntary
  // context switches grow by at most two per batch.
  const auto flat = workloads::heat_design(32, 32, 4).flatten();
  machine::MachineParams params;
  params.processor_speed = 1.0;
  params.message_startup = 0.05;
  params.bytes_per_second = 1024;
  const Machine m(machine::Topology::hypercube(2), params);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  constexpr int kBatches = 16;
  std::vector<std::map<std::string, Value>> batches;
  for (int i = 0; i < kBatches; ++i) {
    Vector rod(128, 0.0);
    for (std::size_t c = static_cast<std::size_t>(i); c < rod.size(); c += 16) {
      rod[c] = 100.0;
    }
    batches.push_back({{"rod", Value(std::move(rod))}});
  }
  StreamOptions opts;
  opts.jobs = 1;
  StreamExecutor ex(flat, schedule, m, opts);
  auto voluntary_switches = [] {
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return ru.ru_nvcsw;
  };
  std::vector<TrialOutcome> outcomes;
  const long before = voluntary_switches();
  for (auto& batch : batches) {
    ex.push(std::move(batch));
    while (auto out = ex.try_pop()) outcomes.push_back(std::move(*out));
  }
  while (ex.outstanding() > 0) outcomes.push_back(ex.pop());
  const long woken = voluntary_switches() - before;
  (void)ex.finish();
  ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kBatches));
  for (const TrialOutcome& out : outcomes) ASSERT_TRUE(out.ok) << out.error;
  EXPECT_LE(woken, 2 * kBatches + 8);
}

TEST(Stream, ManyBatchesStressBothDirections) {
  // Larger sweep shaking out lane multiplexing races: every batch must
  // agree with the reference for a thread-starved (1) and an
  // oversubscribed (8) worker count.
  auto flat = workloads::montecarlo_design(4, 100).flatten();
  auto m = make_machine(4);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  const auto ref = executor.run(schedule, {});
  std::vector<std::map<std::string, Value>> batches(24);
  for (const int jobs : {1, 8}) {
    StreamOptions opts;
    opts.jobs = jobs;
    opts.queue_capacity = 2;
    const StreamResult sr = run_stream(flat, schedule, m, batches, opts);
    ASSERT_EQ(sr.outcomes.size(), batches.size());
    for (const TrialOutcome& out : sr.outcomes) {
      ASSERT_TRUE(out.ok);
      EXPECT_EQ(out.result.outputs.at("pi_est"), ref.outputs.at("pi_est"));
    }
  }
}

}  // namespace
}  // namespace banger::exec

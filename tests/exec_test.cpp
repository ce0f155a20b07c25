// Runtime executor tests: sequential trial runs, parallel execution on
// real threads, value routing, determinism, error propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "exec/executor.hpp"
#include "exec/plan.hpp"
#include "exec/stream.hpp"
#include "graph/serialize.hpp"
#include "obs/trace.hpp"
#include "scoped_env.hpp"
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

std::map<std::string, Value> lu_inputs() {
  // A = [[4,3,2],[8,8,5],[4,7,9]]  (no pivoting needed), b chosen so x = [1,2,3].
  return {{"A", Value(Vector{4, 3, 2, 8, 8, 5, 4, 7, 9})},
          {"b", Value(Vector{4 + 6 + 6, 8 + 16 + 15, 4 + 14 + 27})}};
}

TEST(Sequential, LuSolvesSystem) {
  auto flat = workloads::lu3x3_design().flatten();
  const auto result = run_sequential(flat, lu_inputs());
  ASSERT_TRUE(result.outputs.contains("x"));
  const auto& x = result.outputs.at("x").as_vector();
  ASSERT_EQ(x.size(), 3u);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
  EXPECT_NEAR(x[2], 3.0, 1e-9);
}

TEST(Sequential, StoresEchoInputsAndIntermediates) {
  auto flat = workloads::lu3x3_design().flatten();
  const auto result = run_sequential(flat, lu_inputs());
  EXPECT_TRUE(result.stores.contains("A"));
  EXPECT_TRUE(result.stores.contains("L"));
  EXPECT_TRUE(result.stores.contains("U"));
  // L's diagonal is ones.
  const auto& L = result.stores.at("L").as_vector();
  EXPECT_DOUBLE_EQ(L[0], 1.0);
  EXPECT_DOUBLE_EQ(L[4], 1.0);
  EXPECT_DOUBLE_EQ(L[8], 1.0);
}

TEST(Sequential, RunsRecordTopologicalOrder) {
  auto flat = workloads::lu3x3_design().flatten();
  const auto result = run_sequential(flat, lu_inputs());
  ASSERT_EQ(result.runs.size(), flat.graph.num_tasks());
  // fan1 precedes upd2 and solve.back comes last-ish: check precedence.
  std::map<graph::TaskId, std::size_t> position;
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    position[result.runs[i].task] = i;
  }
  for (const auto& e : flat.graph.edges()) {
    EXPECT_LT(position.at(e.from), position.at(e.to));
  }
}

TEST(Sequential, MissingInputStoreValueFails) {
  auto flat = workloads::lu3x3_design().flatten();
  EXPECT_THROW((void)run_sequential(flat, {{"A", Value(Vector{1})}}), Error);
}

TEST(Sequential, TaskErrorNamesTheTask) {
  auto flat = workloads::lu3x3_design().flatten();
  auto inputs = lu_inputs();
  inputs["A"] = Value(Vector{0, 3, 2, 8, 8, 5, 4, 7, 9});  // zero pivot
  try {
    (void)run_sequential(flat, inputs);
    FAIL() << "expected division by zero";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Runtime);
    EXPECT_NE(std::string(e.what()).find("fan1"), std::string::npos);
  }
}

TEST(Parallel, MatchesSequentialOnLu) {
  auto flat = workloads::lu3x3_design().flatten();
  auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  const auto par = executor.run(schedule, lu_inputs());
  const auto seq = run_sequential(flat, lu_inputs());
  ASSERT_TRUE(par.outputs.contains("x"));
  EXPECT_EQ(par.outputs.at("x"), seq.outputs.at("x"));
  EXPECT_EQ(par.stores.at("U"), seq.stores.at("U"));
}

TEST(Parallel, EveryScheduleGivesSameAnswer) {
  auto flat = workloads::lu3x3_design().flatten();
  auto m = make_machine(4);
  const auto seq = run_sequential(flat, lu_inputs());
  for (const char* heuristic :
       {"mh", "etf", "hlfet", "dls", "dsh", "cluster", "serial",
        "roundrobin"}) {
    const auto scheduler = sched::make_scheduler(heuristic);
    const auto schedule = scheduler->run(flat.graph, m);
    Executor executor(flat, m);
    const auto par = executor.run(schedule, lu_inputs());
    EXPECT_EQ(par.outputs.at("x"), seq.outputs.at("x")) << heuristic;
  }
}

TEST(Parallel, MontecarloDeterministicAcrossModes) {
  auto flat = workloads::montecarlo_design(4, 500).flatten();
  auto m = make_machine(4);
  const auto seq = run_sequential(flat, {});
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  const auto par = executor.run(schedule, {});
  // rand() streams are task-seeded: parallel == sequential exactly.
  EXPECT_EQ(par.outputs.at("pi_est"), seq.outputs.at("pi_est"));
  const double pi_est = seq.outputs.at("pi_est").as_scalar();
  EXPECT_NEAR(pi_est, 3.14159, 0.3);
}

TEST(Parallel, SignalPipelineRuns) {
  auto flat = workloads::signal_pipeline_design(3).flatten();
  auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  pits::Vector signal;
  for (int i = 0; i < 32; ++i) signal.push_back(std::sin(i * 0.3));
  const auto result =
      executor.run(schedule, {{"signal", Value(signal)}});
  ASSERT_TRUE(result.outputs.contains("energy"));
  const auto& energy = result.outputs.at("energy").as_vector();
  ASSERT_EQ(energy.size(), 3u);
  // Channel scales are 1, 2, 3: energies must increase quadratically.
  EXPECT_NEAR(energy[1] / energy[0], 4.0, 1e-9);
  EXPECT_NEAR(energy[2] / energy[0], 9.0, 1e-9);
}

TEST(Parallel, PolyevalConcatenatesSlices) {
  auto flat = workloads::polyeval_design(3).flatten();
  auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  // p(x) = 1 + 2x + x^2 over xs = 0..7
  pits::Vector xs;
  for (int i = 0; i < 8; ++i) xs.push_back(i);
  const auto result = executor.run(
      schedule, {{"coeffs", Value(Vector{1, 2, 1})}, {"xs", Value(xs)}});
  const auto& ys = result.outputs.at("ys").as_vector();
  ASSERT_EQ(ys.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NEAR(ys[static_cast<std::size_t>(i)], (i + 1.0) * (i + 1.0), 1e-9);
  }
}

TEST(Parallel, HeatDiffusionConservesAndSpreads) {
  auto flat = workloads::heat_design(3, 6, 8).flatten();
  auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  pits::Vector rod(24, 0.0);
  rod[12] = 60.0;
  const auto result = executor.run(schedule, {{"rod", pits::Value(rod)}});
  const auto& out = result.outputs.at("result").as_vector();
  ASSERT_EQ(out.size(), 24u);
  double total = 0;
  double peak = 0;
  for (double v : out) {
    EXPECT_GE(v, 0.0);
    total += v;
    peak = std::max(peak, v);
  }
  // Interior spike: no boundary loss yet, heat conserved, peak flattened.
  EXPECT_NEAR(total, 60.0, 1e-9);
  EXPECT_LT(peak, 60.0);
  EXPECT_GT(out[11], 0.0);  // spread to the neighbours across segments
  EXPECT_GT(out[13], 0.0);
  // Agreement with the sequential trial run.
  const auto seq = run_sequential(flat, {{"rod", pits::Value(rod)}});
  EXPECT_EQ(seq.outputs.at("result"), result.outputs.at("result"));
}

TEST(Parallel, SynthesizedGraphExecutes) {
  auto g = workloads::fft_taskgraph(4, 0.05, 8.0);
  workloads::synthesize_pits(g);
  auto flat = workloads::as_flatten(std::move(g));
  auto m = make_machine(4);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  const auto result = executor.run(schedule, {});
  EXPECT_EQ(result.runs.size(), flat.graph.num_tasks());
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(Parallel, ErrorPropagatesFromWorkerThread) {
  auto flat = workloads::lu3x3_design().flatten();
  auto m = make_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  auto inputs = lu_inputs();
  inputs["A"] = Value(Vector{0, 3, 2, 8, 8, 5, 4, 7, 9});
  EXPECT_THROW((void)executor.run(schedule, inputs), Error);
}

TEST(Parallel, DuplicateCopiesAgree) {
  auto g = workloads::fork_join(6, 0.05, 8.0);
  workloads::synthesize_pits(g);
  auto flat = workloads::as_flatten(std::move(g));
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = 2.0;  // force DSH to duplicate
  Machine m(machine::Topology::fully_connected(4), p);
  const auto schedule = sched::DshScheduler().run(flat.graph, m);
  // The whole point is exercising duplicate copies: fail loudly if the
  // machine params stop forcing DSH to duplicate.
  ASSERT_GT(schedule.num_duplicates(), 0);
  Executor executor(flat, m);
  const auto result = executor.run(schedule, {});
  // Runs include duplicates, all successfully cross-checked.
  EXPECT_GT(result.runs.size(), flat.graph.num_tasks());
  std::size_t duplicates = 0;
  for (const auto& r : result.runs) duplicates += r.duplicate;
  EXPECT_EQ(duplicates,
            static_cast<std::size_t>(schedule.num_duplicates()));
  // Values still agree with the one-thread reference.
  const auto seq = run_sequential(flat, {});
  for (const auto& [name, value] : seq.outputs) {
    EXPECT_EQ(result.outputs.at(name), value) << name;
  }
}

TEST(Parallel, ManualDuplicateScheduleCrossChecks) {
  // A hand-built schedule with an explicit duplicate copy: the producer
  // runs on both processors, the consumer reads the local copy, and the
  // executor cross-checks that both copies computed the same value.
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
  const auto par = executor.run(schedule, {});
  EXPECT_EQ(par.runs.size(), 3u);  // two copies of task 0 plus task 1
  const auto seq = run_sequential(flat, {});
  for (const auto& [name, value] : seq.outputs) {
    EXPECT_EQ(par.outputs.at(name), value) << name;
  }
}

TEST(Parallel, DuplicateCopiesDoNotMoveSharedVectorInputs) {
  // Regression: the sole-use move optimization must stay disabled in
  // scheduled runs. `mid` is the only consumer of `src`'s vector, so a
  // one-shot plan would mark the binding take=true — but here two
  // copies of `mid` bind it, and whichever binds second would read a
  // moved-from (empty) vector: an out-of-bounds error or a spurious
  // "duplicate copies produced different outputs" failure.
  graph::TaskGraph g;
  graph::Task src;
  src.name = "src";
  src.work = 1;
  src.pits = "v := zeros(3)\nfor i := 0 to 2 do\n  v[i] := i + 1\nend\n";
  src.outputs = {"v"};
  const graph::TaskId t_src = g.add_task(std::move(src));
  graph::Task mid;
  mid.name = "mid";
  mid.work = 1;
  mid.inputs = {"v"};
  mid.pits = "w := v[0] + v[1] + v[2]\n";
  mid.outputs = {"w"};
  const graph::TaskId t_mid = g.add_task(std::move(mid));
  graph::Task sink;
  sink.name = "sink";
  sink.work = 1;
  sink.inputs = {"w"};
  sink.pits = "r := w * 2\n";
  sink.outputs = {"r"};
  const graph::TaskId t_sink = g.add_task(std::move(sink));
  g.add_edge(t_src, t_mid, 8.0, "v");
  g.add_edge(t_mid, t_sink, 8.0, "w");
  auto flat = workloads::as_flatten(std::move(g));

  auto m = make_machine(2);
  const double d = m.task_time(1.0, 0);
  const double gap = 0.02;  // > cross-processor message time for 8 bytes
  sched::Schedule schedule(2, "manual");
  schedule.place(t_src, 0, 0.0, d);
  schedule.place(t_mid, 0, d + gap, 2 * d + gap);
  schedule.place(t_mid, 1, d + gap, 2 * d + gap, /*duplicate=*/true);
  schedule.place(t_sink, 1, 2 * d + gap, 3 * d + gap);
  schedule.validate(flat.graph, m);
  ASSERT_EQ(schedule.num_duplicates(), 1);

  Executor executor(flat, m);
  for (int round = 0; round < 10; ++round) {
    const auto result = executor.run(schedule, {});
    EXPECT_EQ(result.runs.size(), 4u);  // both copies of mid ran and agreed
  }
}

TEST(Parallel, TranscriptCapturedOnce) {
  graph::TaskGraph g;
  graph::Task t;
  t.name = "talker";
  t.work = 1;
  t.pits = "print(\"from task\")\nout := 1\n";
  t.outputs = {"out"};
  g.add_task(std::move(t));
  auto flat = workloads::as_flatten(std::move(g));
  auto m = make_machine(2);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  const auto result = executor.run(schedule, {});
  EXPECT_EQ(result.transcript, "[talker]\nfrom task\n");
}

TEST(Parallel, EmptyPitsWithOutputsRejected) {
  graph::TaskGraph g;
  graph::Task t;
  t.name = "hollow";
  t.outputs = {"x"};
  g.add_task(std::move(t));
  auto flat = workloads::as_flatten(std::move(g));
  EXPECT_THROW((void)run_sequential(flat, {}), Error);
}

TEST(Parallel, StressRepeatedRunsStayDeterministic) {
  // Shake out races: many parallel runs of the same program must agree
  // exactly with each other and with the sequential reference.
  auto flat = workloads::montecarlo_design(6, 200).flatten();
  auto m = make_machine(6);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  Executor executor(flat, m);
  const auto reference = run_sequential(flat, {});
  for (int round = 0; round < 25; ++round) {
    const auto result = executor.run(schedule, {});
    ASSERT_EQ(result.outputs.at("pi_est"), reference.outputs.at("pi_est"))
        << "round " << round;
  }
}

/// Bytes one cached entry of `source` is charged.
std::uint64_t entry_bytes(const std::string& source) {
  ProgramCache probe;
  (void)probe.get(source);
  return probe.stats().bytes;
}

/// `n` distinct one-line routines of one shape, so each is charged the
/// same bytes: `var := first`, `var := first + 1`, ...
std::vector<std::string> routines(char var, int first, int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(std::string(1, var) + " := " + std::to_string(first + i) +
                  "\n");
  }
  return out;
}

std::vector<const std::string*> batch_of(
    const std::vector<std::string>& sources) {
  std::vector<const std::string*> batch;
  for (const std::string& s : sources) batch.push_back(&s);
  return batch;
}

TEST(ProgramCache, HotEntrySurvivesCapPressure) {
  // Regression: the old policy cleared the ENTIRE cache at the cap, so
  // a long-lived serve/stream process recompiled its whole working set
  // the moment one design too many passed through. Under LRU an entry
  // that stays in use survives any amount of one-off traffic.
  const std::string hot = "x := 1\n";
  ProgramCache cache(/*budget=*/4 * entry_bytes(hot));
  (void)cache.get(hot);  // compile once
  EXPECT_EQ(cache.stats().misses, 1u);
  // Flood with one-off sources, re-touching the hot entry each round so
  // it keeps its place at the most-recent end.
  for (int i = 0; i < 40; ++i) {
    (void)cache.get("x := " + std::to_string(i + 2) + "\n");
    (void)cache.get(hot);
  }
  const ProgramCache::Stats s = cache.stats();
  EXPECT_GT(s.evictions, 0u);            // budget pressure really happened
  EXPECT_EQ(s.misses, 41u);              // hot was never recompiled
  (void)cache.get(hot);
  EXPECT_EQ(cache.stats().misses, 41u);  // still cached after the flood
}

TEST(ProgramCache, ColdEntryIsEvictedUnderPressure) {
  const std::string once = "y := 7\n";
  ProgramCache cache(/*budget=*/2 * entry_bytes(once));
  (void)cache.get(once);
  for (int i = 0; i < 10; ++i) {
    (void)cache.get("y := " + std::to_string(i + 100) + "\n");
  }
  const std::uint64_t before = cache.stats().misses;
  (void)cache.get(once);  // ten newer entries later: gone, recompiles
  EXPECT_EQ(cache.stats().misses, before + 1);
}

TEST(ProgramCache, BatchLargerThanBudgetCompilesEachRoutineOnce) {
  // A design bigger than the whole budget: the call never evicts what
  // it is using, so every routine compiles once and stays resident
  // until a later call needs the room.
  const std::vector<std::string> design = routines('a', 1000, 50);
  std::vector<const std::string*> batch = batch_of(design);
  batch.insert(batch.end(), batch.begin(), batch.end());  // each twice
  ProgramCache cache(/*budget=*/entry_bytes(design[0]));  // room for one
  for (const ProgramCache::Lookup& found : cache.get_all(batch)) {
    EXPECT_FALSE(found.error);
    EXPECT_NE(found.chunk, nullptr);
  }
  ProgramCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 50u);
  EXPECT_EQ(s.hits, 50u);  // the repeats share the first compile
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 50u);
  EXPECT_GT(s.bytes, cache.budget());

  (void)cache.get_all(batch);  // a second run is all hits
  s = cache.stats();
  EXPECT_EQ(s.misses, 50u);
  EXPECT_EQ(s.evictions, 0u);

  (void)cache.get("z := 1\n");  // a later call needs the room
  s = cache.stats();
  EXPECT_EQ(s.evictions, 50u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_LE(s.bytes, cache.budget());
}

TEST(ProgramCache, AlternatingDesignsThatFitCompileEachRoutineOnce) {
  // serve_mix in miniature: two designs whose routines fit the budget
  // together, though the larger alone overflowed one generation of the
  // old two-generation policy (which then recompiled thousands of
  // routines per alternation).
  const std::vector<std::string> large = routines('a', 1000, 30);
  const std::vector<std::string> small = routines('b', 2000, 20);
  ProgramCache cache(/*budget=*/50 * entry_bytes(large[0]));
  for (int round = 0; round < 10; ++round) {
    (void)cache.get_all(batch_of(large));
    (void)cache.get_all(batch_of(small));
  }
  const ProgramCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 50u);
  EXPECT_EQ(s.hits, 9u * 50u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 50u);
}

TEST(ProgramCache, BytesStayWithinBudgetAfterEveryBatchThatFits) {
  const std::uint64_t one = entry_bytes("c := 1000\n");
  ProgramCache cache(/*budget=*/10 * one + one / 2);
  int next = 1000;
  for (int batch = 0; batch < 20; ++batch) {
    const std::vector<std::string> design =
        routines('c', next, 1 + batch % 7);
    next += 1 + batch % 7;
    (void)cache.get_all(batch_of(design));
    EXPECT_LE(cache.stats().bytes, cache.budget()) << "batch " << batch;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(ProgramCache, ConcurrentBatchesKeepOneEntryPerSource) {
  // Threads resolving the same design at once may each compile a
  // source first seen by both; the cache still keeps one entry for it,
  // and every lookup gets a runnable chunk.
  const std::vector<std::string> design = routines('d', 1000, 40);
  ProgramCache cache;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        for (const ProgramCache::Lookup& found :
             cache.get_all(batch_of(design))) {
          if (found.error || found.chunk == nullptr) ++bad;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  const ProgramCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 40u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_GE(s.misses, 40u);
  EXPECT_EQ(s.hits + s.misses, 4u * 5u * 40u);  // each lookup counts once
}

TEST(ProgramCache, ReportsEntriesAndBytes) {
  ProgramCache cache;
  EXPECT_EQ(cache.budget(), ProgramCache::kDefaultBudget);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);

  (void)cache.get("x := 1\n");
  const std::uint64_t small = cache.stats().bytes;
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GT(small, 0u);

  std::string loop = "s := 0\nfor i := 1 to 10 do\n";
  for (int i = 0; i < 40; ++i) {
    loop += "  s := s + i * " + std::to_string(i) + "\n";
  }
  loop += "end\n";
  (void)cache.get(loop);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_GT(cache.stats().bytes - small, 10 * small);  // charged by size

  EXPECT_THROW((void)cache.get("x := ("), Error);  // failures stay out
  (void)cache.get("x := 1\n");                    // a hit adds nothing
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(Parallel, PureSyncTasksAllowed) {
  graph::TaskGraph g;
  g.add_task({"barrier", 1, "", {}, {}});
  auto flat = workloads::as_flatten(std::move(g));
  const auto result = run_sequential(flat, {});
  EXPECT_EQ(result.runs.size(), 1u);
}

// ---- parallel front end ------------------------------------------------
//
// build_plan compiles a design's cache misses across default_jobs()
// workers. Whatever the worker count, the error raised is the first in
// task order, and a fully cached design starts no workers at all.

/// In task order: a good routine (`salt` keeps its source new to the
/// process-wide cache), two routines that do not parse, and a task that
/// declares an output but has no routine — placed first among the three
/// failures when `hollow_first`.
std::string failing_design(int salt, bool hollow_first) {
  const std::string hollow = "  task hollow in=b out=h\n";
  std::string pitl = "design failing\ngraph g\n  store a\n"
                     "  task ok1 in=a out=b\n  pits {\n    b := a + " +
                     std::to_string(salt) + "\n  }\n";
  if (hollow_first) pitl += hollow;
  pitl +=
      "  task bad1 in=b out=c\n  pits {\n    c := b +\n  }\n"
      "  task bad2 in=b out=d\n  pits {\n    d := (b\n  }\n";
  if (!hollow_first) pitl += hollow;
  pitl +=
      "  store c\n  store d\n  store h\n"
      "  arc a -> ok1 var=a\n  arc ok1 -> bad1 var=b\n"
      "  arc ok1 -> bad2 var=b\n  arc ok1 -> hollow var=b\n"
      "  arc bad1 -> c var=c\n  arc bad2 -> d var=d\n"
      "  arc hollow -> h var=h\n";
  return pitl;
}

struct Failure {
  ErrorCode code{};
  std::string message;
  SourcePos pos;
};

template <class Fn>
Failure failure_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return {e.code(), e.message(), e.pos()};
  }
  ADD_FAILURE() << "expected an Error";
  return {};
}

TEST(FrontEnd, FirstErrorInTaskOrderForAnyJobs) {
  const Machine m = make_machine(2);
  const std::map<std::string, Value> inputs = {{"a", Value(1.0)}};
  int salt = 0;
  for (const bool hollow_first : {false, true}) {
    const Failure want =
        hollow_first
            ? Failure{ErrorCode::Runtime,
                      "task `hollow` declares outputs but has no PITS routine",
                      {}}
            : Failure{ErrorCode::Parse,
                      "in task `bad1`: expected an expression", {1, 9}};
    for (const char* jobs : {"1", "4"}) {
      const tests::ScopedEnv env("BANGER_JOBS", jobs);
      const auto flat =
          graph::parse_design(failing_design(++salt, hollow_first)).flatten();
      const auto schedule = sched::MhScheduler().run(flat.graph, m);
      const Failure got[] = {
          failure_of([&] { (void)run_sequential(flat, inputs); }),
          failure_of([&] { (void)Executor(flat, m).run(schedule, inputs); }),
          failure_of([&] {
            (void)run_stream(flat, schedule, m, {inputs}, StreamOptions{});
          }),
          failure_of([&] {
            (void)run_trials(flat, {inputs, inputs}, RunOptions{}, 0);
          }),
      };
      for (const Failure& f : got) {
        EXPECT_EQ(f.code, want.code) << "BANGER_JOBS=" << jobs;
        EXPECT_EQ(f.message, want.message) << "BANGER_JOBS=" << jobs;
        EXPECT_EQ(f.pos, want.pos) << "BANGER_JOBS=" << jobs;
      }
    }
  }
}

TEST(Parallel, IndependentFailuresReportTheEarliestScheduledError) {
  // Two tasks fail independently. `late` fails at once, `early` only
  // after a loop, but `early` is scheduled first, so every run reports
  // it, with the worker that ran it, whatever the thread count.
  graph::TaskGraph g;
  graph::Task early;
  early.name = "early";
  early.work = 1;
  early.pits =
      "s := 0\nfor i := 1 to 20000 do\n  s := s + i\nend\n"
      "v := [1, 2]\nx := v[s]\n";
  early.outputs = {"x"};
  g.add_task(std::move(early));
  graph::Task late;
  late.name = "late";
  late.work = 1;
  late.pits = "y := 1 / 0\n";
  late.outputs = {"y"};
  g.add_task(std::move(late));
  const auto flat = workloads::as_flatten(std::move(g));
  const Machine m = make_machine(2);
  sched::Schedule schedule(2, "manual");
  schedule.place(0, 1, 0.0, 1.0);
  schedule.place(1, 0, 0.5, 1.5);

  const Failure seq = failure_of([&] { (void)run_sequential(flat, {}); });
  ASSERT_NE(seq.message.find("`early`"), std::string::npos) << seq.message;
  for (const char* jobs : {"1", "4"}) {
    const tests::ScopedEnv env("BANGER_JOBS", jobs);
    for (int round = 0; round < 50; ++round) {
      const Failure f =
          failure_of([&] { (void)Executor(flat, m).run(schedule, {}); });
      EXPECT_EQ(f.code, seq.code);
      EXPECT_EQ(f.message, "worker 1: " + seq.message)
          << "BANGER_JOBS=" << jobs << " round " << round;
      EXPECT_EQ(f.pos, seq.pos);
    }
  }
}

TEST(FrontEnd, WarmRunStartsNoWorkers) {
  const tests::ScopedEnv env("BANGER_JOBS", "4");
  // A comment naming the run keeps every routine new to the
  // process-wide cache, so the first run is cold however often the test
  // repeats.
  static int run = 0;
  const std::string tag = "    -- run " + std::to_string(++run) + "\n";
  const auto flat =
      graph::parse_design(
          "design warm\ngraph g\n  store a\n"
          "  task s1 in=a out=b\n  pits {\n" + tag +
          "    b := a + 0.125\n  }\n  task s2 in=b out=c\n  pits {\n" +
          tag + "    c := b * 3.25\n  }\n  task s3 in=c out=d\n  pits {\n" +
          tag + "    d := c - 7.5\n  }\n  task s4 in=d out=e\n  pits {\n" +
          tag +
          "    e := d / 2.75\n  }\n  store e\n  arc a -> s1 var=a\n"
          "  arc s1 -> s2 var=b\n  arc s2 -> s3 var=c\n"
          "  arc s3 -> s4 var=d\n  arc s4 -> e var=e\n")
          .flatten();
  const std::map<std::string, Value> inputs = {{"a", Value(2.0)}};
  {
    obs::TraceRecorder rec;
    const obs::ScopedRecorder scope(rec);
    (void)run_sequential(flat, inputs);
    EXPECT_GT(rec.metric("pool.tasks"), 0.0) << "cold compiles fan out";
  }
  obs::TraceRecorder rec;
  const obs::ScopedRecorder scope(rec);
  const RunResult warm = run_sequential(flat, inputs);
  EXPECT_EQ(rec.metric("pool.tasks"), 0.0);
  EXPECT_DOUBLE_EQ(warm.outputs.at("e").as_scalar(),
                   ((2.0 + 0.125) * 3.25 - 7.5) / 2.75);
}

}  // namespace
}  // namespace banger::exec

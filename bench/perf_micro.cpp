// PERF — google-benchmark microbenchmarks of the environment's hot
// paths: scheduling throughput vs graph size, PITS interpretation rate,
// simulator event rate, flattening, parsing.
#include <benchmark/benchmark.h>

#include <cmath>

#include "analyze/absint.hpp"
#include "analyze/analyze.hpp"

#include "exec/executor.hpp"
#include "exec/stream.hpp"
#include "graph/serialize.hpp"
#include "obs/trace.hpp"
#include "pits/bytecode.hpp"
#include "pits/interp.hpp"
#include "pits/shape.hpp"
#include "sched/compare.hpp"
#include "sched/heuristics.hpp"
#include "serve/json.hpp"
#include "serve/render.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads/designs.hpp"
#include "workloads/graphs.hpp"
#include "workloads/lu.hpp"

namespace {

using namespace banger;

machine::Machine cube8() {
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = 0.1;
  p.bytes_per_second = 1e3;
  return machine::Machine(machine::Topology::hypercube(3), p);
}

graph::TaskGraph sized_graph(int n) {
  workloads::RandomGraphSpec spec;
  spec.layers = n / 8;
  spec.width = 8;
  spec.seed = 7;
  return workloads::random_layered(spec);
}

void BM_ScheduleMh(benchmark::State& state) {
  const auto g = sized_graph(static_cast<int>(state.range(0)));
  const auto m = cube8();
  sched::MhScheduler mh;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mh.run(g, m));
  }
  state.counters["tasks"] = static_cast<double>(g.num_tasks());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_tasks()));
}
BENCHMARK(BM_ScheduleMh)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536);

void BM_ScheduleEtf(benchmark::State& state) {
  const auto g = sized_graph(static_cast<int>(state.range(0)));
  const auto m = cube8();
  sched::EtfScheduler etf;
  for (auto _ : state) {
    benchmark::DoNotOptimize(etf.run(g, m));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_tasks()));
}
BENCHMARK(BM_ScheduleEtf)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536);

// Paired runs measuring the observability tax on the scheduler hot
// path: BM_Sched has no recorder installed (the default), while
// BM_SchedTraced schedules under an active TraceRecorder. The disabled
// case should track BM_Sched within run-to-run noise, since every
// instrumentation site reduces to one relaxed atomic load.
void BM_Sched(benchmark::State& state) {
  const auto g = sized_graph(static_cast<int>(state.range(0)));
  const auto m = cube8();
  sched::EtfScheduler etf;
  for (auto _ : state) {
    benchmark::DoNotOptimize(etf.run(g, m));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_tasks()));
}
BENCHMARK(BM_Sched)->Arg(1024);

void BM_SchedTraced(benchmark::State& state) {
  const auto g = sized_graph(static_cast<int>(state.range(0)));
  const auto m = cube8();
  sched::EtfScheduler etf;
  obs::TraceRecorder rec;
  obs::ScopedRecorder scope(rec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(etf.run(g, m));
    state.PauseTiming();
    rec.clear();  // keep memory flat across iterations
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_tasks()));
}
BENCHMARK(BM_SchedTraced)->Arg(1024);

void BM_ScheduleDsh(benchmark::State& state) {
  const auto g = sized_graph(static_cast<int>(state.range(0)));
  const auto m = cube8();
  sched::DshScheduler dsh;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsh.run(g, m));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_tasks()));
}
BENCHMARK(BM_ScheduleDsh)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384);

// Bake-off of all heuristics on one graph; range(1) is the worker
// count (0 = all cores), encoded in the benchmark name — a counter
// would abort the CSV reporter, which requires every run to share the
// same counter set. jobs=1 vs jobs=N shows the thread-pool win.
void BM_CompareSchedulers(benchmark::State& state) {
  const auto g = sized_graph(static_cast<int>(state.range(0)));
  const auto m = cube8();
  const auto names = sched::scheduler_names();
  const int jobs = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::compare_schedulers(g, m, names, {}, jobs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(names.size()));
}
BENCHMARK(BM_CompareSchedulers)
    ->Args({256, 1})
    ->Args({256, 0})
    ->Args({1024, 1})
    ->Args({1024, 0})
    ->Unit(benchmark::kMillisecond);

void BM_ScheduleValidate(benchmark::State& state) {
  const auto g = sized_graph(static_cast<int>(state.range(0)));
  const auto m = cube8();
  const auto s = sched::MhScheduler().run(g, m);
  for (auto _ : state) {
    s.validate(g, m);
  }
}
BENCHMARK(BM_ScheduleValidate)->Arg(256);

void BM_Simulate(benchmark::State& state) {
  const auto g = sized_graph(static_cast<int>(state.range(0)));
  const auto m = cube8();
  const auto s = sched::MhScheduler().run(g, m);
  sim::SimOptions opts;
  opts.record_events = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(g, m, s, opts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_tasks()));
}
BENCHMARK(BM_Simulate)->Arg(256)->Arg(1024);

void BM_PitsParse(benchmark::State& state) {
  const std::string src =
      "guess := a / 2\n"
      "i := 0\n"
      "while i < 20 do\n"
      "  guess := 0.5 * (guess + a / guess)\n"
      "  i := i + 1\n"
      "end\n"
      "x := guess\n";
  for (auto _ : state) {
    benchmark::DoNotOptimize(pits::Program::parse(src));
  }
}
BENCHMARK(BM_PitsParse);

void BM_PitsInterp(benchmark::State& state) {
  const auto program = pits::Program::parse(
      "s := 0\n"
      "for i := 1 to 1000 do\n"
      "  s := s + sin(i) * sin(i) + cos(i) * cos(i)\n"
      "end\n");
  for (auto _ : state) {
    pits::Env env;
    program.execute(env);
    benchmark::DoNotOptimize(env);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PitsInterp);

void BM_PitsVectorOps(benchmark::State& state) {
  const auto program = pits::Program::parse(
      "v := zeros(1000) + 1\n"
      "w := v * 3 + 2\n"
      "d := dot(v, w)\n");
  for (auto _ : state) {
    pits::Env env;
    program.execute(env);
    benchmark::DoNotOptimize(env);
  }
}
BENCHMARK(BM_PitsVectorOps);

// Deterministic PITS-heavy workload: `statements` generated assignments
// over 48 scalar variables (guarded division, builtin calls, branches),
// amplified by an outer repeat so execution dominates dispatch. Seeded
// Rng, no wall-clock — the same source every run, so the committed
// BENCH_pits.json numbers are reproducible.
std::string pits_heavy_source(int statements) {
  banger::util::Rng rng(2026);
  constexpr int kVars = 48;
  std::string src;
  for (int i = 0; i < kVars; ++i) {
    src += "x" + std::to_string(i) + " := " +
           std::to_string(0.37 * i + 1.0) + "\n";
  }
  src += "repeat 100 times\n";
  auto var = [&]() { return "x" + std::to_string(rng.next_below(kVars)); };
  for (int i = 0; i < statements; ++i) {
    const std::string a = var();
    const std::string b = var();
    const std::string c = var();
    const std::string d = var();
    switch (rng.next_below(6)) {
      case 0:
        src += "  " + a + " := (" + b + " + " + c + ") * 0.5\n";
        break;
      case 1:
        src += "  " + a + " := " + b + " - " + c + " + " +
               std::to_string(rng.uniform_int(1, 9)) + "\n";
        break;
      case 2:
        src += "  " + a + " := (" + b + " * " + c + ") / (" + d + " * " + d +
               " + 7)\n";
        break;
      case 3:
        src += "  " + a + " := abs(" + b + " - " + c + ") + 1\n";
        break;
      case 4:
        src += "  " + a + " := min(" + b + ", " + c + ") + max(" + c + ", " +
               d + ") * 0.25\n";
        break;
      default:
        src += "  if " + b + " > " + c + " then\n    " + a + " := " + a +
               " * 0.75 + 1\n  end\n";
        break;
    }
  }
  src += "end\n";
  return src;
}

void BM_PitsCompile(benchmark::State& state) {
  const std::string src = pits_heavy_source(1024);
  for (auto _ : state) {
    // Fresh Program each iteration: parse + bytecode lowering.
    auto program = pits::Program::parse(src);
    program.precompile();
    benchmark::DoNotOptimize(program);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(src.size()));
}
BENCHMARK(BM_PitsCompile);

// One 1024-statement routine on the bytecode VM, compiled with
// abstract-interpretation facts (check elision + tick batching),
// matching what the executor and calculator panel do.
void BM_PitsExecVm(benchmark::State& state) {
  const auto program = pits::Program::parse(pits_heavy_source(1024));
  analyze::precompile_optimized(program);
  for (auto _ : state) {
    pits::Env env;
    program.execute(env);
    benchmark::DoNotOptimize(env);
  }
  state.SetItemsProcessed(state.iterations() * 1024 * 100);
}
BENCHMARK(BM_PitsExecVm);

// Ablation: the same routine compiled without analysis facts — the gap
// to BM_PitsExecVm is what the proofs buy at run time.
void BM_PitsExecVmNoElide(benchmark::State& state) {
  const auto program = pits::Program::parse(pits_heavy_source(1024));
  program.precompile();
  for (auto _ : state) {
    pits::Env env;
    program.execute(env);
    benchmark::DoNotOptimize(env);
  }
  state.SetItemsProcessed(state.iterations() * 1024 * 100);
}
BENCHMARK(BM_PitsExecVmNoElide);

// The large-grain inner loop: one interior stencil routine of the
// sweep_coarse workload (perfbench/gen.py heat_design, 512 cells),
// compiled with analysis facts as the executor compiles it, run through
// bc::run_frame on one reused Frame the way a batch lane runs it.
// items/s is stencil iterations per second.
void BM_PitsStencilLoop(benchmark::State& state) {
  constexpr int kCells = 512;
  const std::string src =
      "n := len(u0_1)\n"
      "un := zeros(n)\n"
      "i := 0\n"
      "while i < n do\n"
      "  lft := when(i > 0, u0_1[i - 1], er0_0)\n"
      "  rgt := when(i < n - 1, u0_1[i + 1], el0_2)\n"
      "  un[i] := u0_1[i] + 0.21 * (lft - 2 * u0_1[i] + rgt)\n"
      "  i := i + 1\n"
      "end\n"
      "u1_1 := un\n"
      "el1_1 := un[0]\n"
      "er1_1 := un[n - 1]\n";
  const auto program = pits::Program::parse(src);
  analyze::precompile_optimized(program);
  const auto chunk = program.compiled_chunk();
  const pits::Binding binding(src);
  const auto slot = [&](std::string_view name) {
    std::uint32_t s = 0;
    while (binding.name(chunk->names[chunk->vars[s].name]) != name) ++s;
    return s;
  };
  const std::uint32_t rod_slot = slot("u0_1");
  const std::uint32_t left_slot = slot("er0_0");
  const std::uint32_t right_slot = slot("el0_2");
  pits::Vector rod(kCells);
  for (int c = 0; c < kCells; ++c) rod[c] = std::sin(0.01 * c);
  pits::bc::Frame frame;
  for (auto _ : state) {
    frame.prepare(*chunk);
    frame.bind(rod_slot, pits::Value(rod));
    frame.bind(left_slot, pits::Value(0.5));
    frame.bind(right_slot, pits::Value(0.25));
    pits::bc::run_frame(*chunk, src, frame, {});
    benchmark::DoNotOptimize(frame.regs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kCells);
}
BENCHMARK(BM_PitsStencilLoop);

// Whole-run view: the LU design end to end (flatten result reused, so
// this measures planning against the warm program cache + task
// execution + store routing).
void BM_ExecRunVm(benchmark::State& state) {
  const auto flat = workloads::lu3x3_design().flatten();
  const std::map<std::string, pits::Value> inputs = {
      {"A", pits::Value(pits::Vector{4, 3, 2, 8, 8, 5, 4, 7, 9})},
      {"b", pits::Value(pits::Vector{16, 39, 45})}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::run_sequential(flat, inputs));
  }
}
BENCHMARK(BM_ExecRunVm);

// Batched trials through run_trials: the design is planned and compiled
// once, then N input sets run against reused slot frames. items/s is
// trials per second — divide into BM_ExecRunVm's one-shot time to see
// the amortisation win at each batch size.
void BM_ExecRunBatch(benchmark::State& state) {
  const auto flat = workloads::lu3x3_design().flatten();
  const int n = static_cast<int>(state.range(0));
  std::vector<std::map<std::string, pits::Value>> inputs;
  inputs.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Vary b so trials are distinct work, deterministically.
    const double d = static_cast<double>(i % 7);
    inputs.push_back(
        {{"A", pits::Value(pits::Vector{4, 3, 2, 8, 8, 5, 4, 7, 9})},
         {"b", pits::Value(pits::Vector{16 + d, 39, 45 - d})}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::run_trials(flat, inputs));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExecRunBatch)->Arg(1)->Arg(64)->Arg(4096);

namespace {
machine::Machine stream_bench_machine(int procs) {
  machine::MachineParams params;
  params.processor_speed = 1.0;
  params.message_startup = 0.01;
  params.bytes_per_second = 1e6;
  return machine::Machine(machine::Topology::fully_connected(procs), params);
}

std::vector<std::map<std::string, pits::Value>> stream_bench_batches(int n) {
  std::vector<std::map<std::string, pits::Value>> batches;
  batches.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double d = static_cast<double>(i % 7);
    batches.push_back(
        {{"A", pits::Value(pits::Vector{4, 3, 2, 8, 8, 5, 4, 7, 9})},
         {"b", pits::Value(pits::Vector{16 + d, 39, 45 - d})}});
  }
  return batches;
}
}  // namespace

// The per-batch baseline for streaming: each batch pays the full
// scheduled-run setup (executor construction, plan, compile) before
// executing — what a loop of one-shot `banger run` calls costs. Both
// this and BM_ExecStream run on worker threads, so they report wall
// time: the benchmark thread's CPU time leaves most of the work out.
void BM_ExecPerBatchRun(benchmark::State& state) {
  const auto flat = workloads::lu3x3_design().flatten();
  const auto m = stream_bench_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  const int n = static_cast<int>(state.range(0));
  const auto batches = stream_bench_batches(n);
  for (auto _ : state) {
    for (const auto& inputs : batches) {
      exec::Executor executor(flat, m);
      benchmark::DoNotOptimize(executor.run(schedule, inputs));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExecPerBatchRun)->Arg(64)->UseRealTime();

// Streaming execution over the same schedule: the plan is compiled
// once, workers stay up, and batches flow through bounded queues.
// items/s is batches per second — compare against BM_ExecPerBatchRun
// to see the setup amortisation win.
void BM_ExecStream(benchmark::State& state) {
  const auto flat = workloads::lu3x3_design().flatten();
  const auto m = stream_bench_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  const int n = static_cast<int>(state.range(0));
  const auto batches = stream_bench_batches(n);
  exec::StreamOptions opts;
  opts.jobs = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exec::run_stream(flat, schedule, m, batches, opts));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExecStream)->Arg(64)->Arg(1024)->UseRealTime();

namespace {
/// The 4-processor hypercube the heat 32x32 runs below are scheduled on.
machine::Machine heat_run_machine() {
  machine::MachineParams params;
  params.processor_speed = 1.0;
  params.message_startup = 0.05;
  params.bytes_per_second = 1024;
  return machine::Machine(machine::Topology::hypercube(2), params);
}

/// `n` rods of 128 cells for heat 32x32, a hot cell every 16, shifted
/// by one cell per rod.
std::vector<std::map<std::string, pits::Value>> heat_rods(int n) {
  std::vector<std::map<std::string, pits::Value>> rods;
  for (int k = 0; k < n; ++k) {
    pits::Vector rod(128, 0.0);
    for (std::size_t i = static_cast<std::size_t>(k % 16); i < rod.size();
         i += 16) {
      rod[i] = 100.0;
    }
    rods.push_back({{"rod", pits::Value(std::move(rod))}});
  }
  return rods;
}
}  // namespace

// One warm scheduled run of heat 32x32 (1057 tiny tasks) under MH on a
// 4-processor hypercube: what `banger run` pays once the routines are
// compiled. Executor::run is the stream runtime on one batch, so this
// guards that path. Wall time: the lanes run on worker threads.
void BM_ExecRunScheduled(benchmark::State& state) {
  const auto flat = workloads::heat_design(32, 32, 4).flatten();
  const machine::Machine m = heat_run_machine();
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  const std::map<std::string, pits::Value> inputs = heat_rods(1)[0];
  const exec::Executor executor(flat, m);
  benchmark::DoNotOptimize(executor.run(schedule, inputs));  // compile once
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.run(schedule, inputs));
  }
}
BENCHMARK(BM_ExecRunScheduled)->Unit(benchmark::kMillisecond)->UseRealTime();

// Fine-grain streaming: 16 heat 32x32 rods through the same schedule on
// one worker, so each batch is 1057 tiny stages handed between four
// lanes on one thread, and the caller waits for batches. items/s is
// batches per second; BM_ExecTrialsFine is its floor.
void BM_ExecStreamFine(benchmark::State& state) {
  const auto flat = workloads::heat_design(32, 32, 4).flatten();
  const machine::Machine m = heat_run_machine();
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  const auto rods = heat_rods(16);
  exec::StreamOptions opts;
  opts.jobs = 1;
  benchmark::DoNotOptimize(
      exec::run_stream(flat, schedule, m, rods, opts));  // compile once
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::run_stream(flat, schedule, m, rods, opts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rods.size()));
}
BENCHMARK(BM_ExecStreamFine)->Unit(benchmark::kMillisecond)->UseRealTime();

// The same 16 rods as unscheduled trials on the calling thread: what
// BM_ExecStreamFine would cost if handing a stage on were free.
void BM_ExecTrialsFine(benchmark::State& state) {
  const auto flat = workloads::heat_design(32, 32, 4).flatten();
  const auto rods = heat_rods(16);
  benchmark::DoNotOptimize(exec::run_trials(flat, rods, {}, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::run_trials(flat, rods, {}, 1));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rods.size()));
}
BENCHMARK(BM_ExecTrialsFine)->Unit(benchmark::kMillisecond)->UseRealTime();

// FRONT END — the per-routine work of `banger check` and of a cold
// `banger trial` on the 32x32 heat rod: 1057 routines keyed, 36 routine
// shapes parsed, analysed and compiled, across util::default_jobs()
// workers (BANGER_JOBS sets the width). Wall time, since the benchmark
// thread only waits.

void BM_AnalyzeDesign(benchmark::State& state) {
  const graph::Design design = workloads::heat_design(32, 32, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze::analyze_design(design));
  }
}
BENCHMARK(BM_AnalyzeDesign)->Unit(benchmark::kMillisecond)->UseRealTime();

// A cold trial: each iteration gives every routine a leading line with a
// literal no earlier iteration used, so each of the design's 36 routine
// shapes misses the process-wide program cache. The run pays keying for
// all 1057 routines, then parse, facts and compile once per shape.
void BM_CompileDesignCold(benchmark::State& state) {
  pits::Vector rod(128, 0.0);
  for (std::size_t i = 0; i < rod.size(); i += 16) rod[i] = 100.0;
  const std::map<std::string, pits::Value> inputs = {
      {"rod", pits::Value(std::move(rod))}};
  const graph::FlattenResult base = workloads::heat_design(32, 32, 4).flatten();
  graph::FlattenResult flat;
  std::uint64_t iteration = 0;
  for (auto _ : state) {
    state.PauseTiming();
    flat = base;
    const std::string fresh =
        "cold := " + std::to_string(++iteration) + "\n";
    for (graph::TaskId t = 0; t < flat.graph.num_tasks(); ++t) {
      flat.graph.task(t).pits.insert(0, fresh);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(exec::run_sequential(flat, inputs));
  }
}
BENCHMARK(BM_CompileDesignCold)->Unit(benchmark::kMillisecond)->UseRealTime();

// The same per-routine front end on one thread: parse, analysis facts
// and compile of heat 32x32's 1057 routine texts, into fresh programs
// every iteration. What BM_CompileDesignCold fans out over the workers.
void BM_PitsFrontEnd(benchmark::State& state) {
  const auto flat = workloads::heat_design(32, 32, 4).flatten();
  std::vector<std::string> sources;
  for (graph::TaskId t = 0; t < flat.graph.num_tasks(); ++t) {
    if (!flat.graph.task(t).pits.empty())
      sources.push_back(flat.graph.task(t).pits);
  }
  for (auto _ : state) {
    for (const std::string& source : sources) {
      const pits::Program program = pits::Program::parse(source);
      program.precompile(analyze::compute_facts(program.body()));
      benchmark::DoNotOptimize(program.compiled_chunk());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(sources.size()));
}
BENCHMARK(BM_PitsFrontEnd)->Unit(benchmark::kMillisecond);

// Warm runs alternating between heat 64x64 and heat 32x32: 5.2k
// routines, more than one 4096-entry generation of the old
// count-bounded program cache, which recompiled thousands of them per
// pair. Their ~100 shapes stay resident, so every iteration is two warm
// runs, each keying all of its design's routines. Wall time, since the
// keying fans out.
void BM_ExecRunAlternating(benchmark::State& state) {
  const auto rod = [](std::size_t cells) {
    pits::Vector v(cells, 0.0);
    for (std::size_t i = 0; i < v.size(); i += 16) v[i] = 100.0;
    return std::map<std::string, pits::Value>{{"rod", pits::Value(v)}};
  };
  const auto large = workloads::heat_design(64, 64, 4).flatten();
  const auto small = workloads::heat_design(32, 32, 4).flatten();
  const auto large_inputs = rod(256);
  const auto small_inputs = rod(128);
  benchmark::DoNotOptimize(exec::run_sequential(large, large_inputs));
  benchmark::DoNotOptimize(exec::run_sequential(small, small_inputs));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::run_sequential(large, large_inputs));
    benchmark::DoNotOptimize(exec::run_sequential(small, small_inputs));
  }
}
BENCHMARK(BM_ExecRunAlternating)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FlattenLu(benchmark::State& state) {
  const auto design = workloads::lu3x3_design();
  for (auto _ : state) {
    benchmark::DoNotOptimize(design.flatten());
  }
}
BENCHMARK(BM_FlattenLu);

void BM_PitlRoundTrip(benchmark::State& state) {
  const auto design = workloads::lu3x3_design();
  const std::string text = graph::to_pitl(design);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::parse_design(text));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_PitlRoundTrip);

// GRAPH — `.pitl` text to a validated, flattened design: the graph
// layer every command starts with, on heat 32x32 (548 KB).
void BM_ParseDesign(benchmark::State& state) {
  const std::string text = graph::to_pitl(workloads::heat_design(32, 32, 4));
  for (auto _ : state) {
    const graph::Design design = graph::parse_design(text);
    benchmark::DoNotOptimize(design.validate());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseDesign)->Unit(benchmark::kMillisecond);

// GRAPH — flattening a hierarchy: 2000 supernodes over one child graph,
// each fed by its own task and writing its own store, which its own
// task reads. Each expansion and each store touches only its own arcs.
graph::Design hierarchy_design(int n) {
  graph::Design design("hierarchy");
  const graph::GraphId cell = design.add_graph("cell");
  graph::Node f;
  f.name = "f";
  f.inputs = {"x"};
  f.outputs = {"y"};
  design.graph(cell).add_node(f);
  graph::DataflowGraph& root = design.root_graph();
  for (int i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    graph::Node p;
    p.name = "p" + k;
    p.outputs = {"x"};
    root.add_node(p);
    graph::Node s;
    s.kind = graph::NodeKind::Super;
    s.name = "s" + k;
    s.subgraph = cell;
    s.inputs = {"x"};
    s.outputs = {"y"};
    root.add_node(s);
    graph::Node v;
    v.kind = graph::NodeKind::Storage;
    v.name = "v" + k;
    root.add_node(v);
    graph::Node c;
    c.name = "c" + k;
    c.inputs = {"v" + k};
    root.add_node(c);
    root.connect(p.name, s.name, "x");
    root.connect(s.name, v.name, "y");
    root.connect(v.name, c.name, v.name);
  }
  return design;
}

void BM_FlattenHierarchy(benchmark::State& state) {
  const graph::Design design = hierarchy_design(2000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(design.flatten());
  }
}
BENCHMARK(BM_FlattenHierarchy)->Unit(benchmark::kMillisecond);

void BM_TopologyHops(benchmark::State& state) {
  const auto t = machine::Topology::hypercube(6);
  for (auto _ : state) {
    int acc = 0;
    for (machine::ProcId a = 0; a < t.num_procs(); ++a)
      for (machine::ProcId b = 0; b < t.num_procs(); ++b)
        acc += t.hops(a, b);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_TopologyHops);

// SERVE — cold-vs-cached request latency through the design service on
// a ~1024-task workload. Cold issues each request against a fresh
// Server (every artifact parsed, flattened, scheduled, rendered from
// scratch); cached replays the identical request against a warmed
// Server, so only the content-hash lookup and envelope assembly remain.
// The cached/cold ratio is the headline number BENCH_serve.json pins.

/// The 32x32 heat rod: 1024 update tasks plus scatter/gather.
const std::string& serve_heat_design() {
  static const std::string text =
      graph::to_pitl(workloads::heat_design(32, 32, 4));
  return text;
}

const char* serve_machine_text() {
  return "machine cube8\n"
         "topology hypercube dim=3\n"
         "speed 1\n"
         "message_startup 0.1\n"
         "bandwidth 1000\n";
}

std::string serve_schedule_request() {
  serve::Json req = serve::Json::object();
  req.add("id", serve::Json::number(1));
  req.add("op", serve::Json::string("schedule"));
  req.add("design", serve::Json::string(serve_heat_design()));
  req.add("machine", serve::Json::string(serve_machine_text()));
  return req.dump();
}

std::string serve_trial_request() {
  // The rod input store: segments * cells = 128 initial temperatures.
  std::string rod = "[";
  for (int i = 0; i < 128; ++i) {
    if (i > 0) rod += ",";
    rod += (i % 16 == 0) ? "100" : "0";
  }
  rod += "]";
  serve::Json inputs = serve::Json::object();
  inputs.add("rod", serve::Json::string(rod));
  serve::Json req = serve::Json::object();
  req.add("id", serve::Json::number(1));
  req.add("op", serve::Json::string("trial"));
  req.add("design", serve::Json::string(serve_heat_design()));
  req.add("inputs", std::move(inputs));
  return req.dump();
}

void BM_ServeScheduleCold(benchmark::State& state) {
  const std::string request = serve_schedule_request();
  for (auto _ : state) {
    serve::Server server;
    benchmark::DoNotOptimize(server.handle_line(request));
  }
}
BENCHMARK(BM_ServeScheduleCold);

void BM_ServeScheduleCached(benchmark::State& state) {
  const std::string request = serve_schedule_request();
  serve::Server server;
  benchmark::DoNotOptimize(server.handle_line(request));  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handle_line(request));
  }
}
BENCHMARK(BM_ServeScheduleCached);

void BM_ServeTrialCold(benchmark::State& state) {
  const std::string request = serve_trial_request();
  for (auto _ : state) {
    serve::Server server;
    benchmark::DoNotOptimize(server.handle_line(request));
  }
}
BENCHMARK(BM_ServeTrialCold);

void BM_ServeTrialCached(benchmark::State& state) {
  const std::string request = serve_trial_request();
  serve::Server server;
  benchmark::DoNotOptimize(server.handle_line(request));  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handle_line(request));
  }
}
BENCHMARK(BM_ServeTrialCached);

/// One `inputs_batch` request carrying `trials` distinct rod inputs.
std::string serve_trial_batch_request(int trials) {
  serve::Json batch = serve::Json::array();
  for (int t = 0; t < trials; ++t) {
    std::string rod = "[";
    for (int i = 0; i < 128; ++i) {
      if (i > 0) rod += ",";
      rod += (i % 16 == t % 16) ? "100" : "0";
    }
    rod += "]";
    serve::Json inputs = serve::Json::object();
    inputs.add("rod", serve::Json::string(rod));
    batch.push(std::move(inputs));
  }
  serve::Json req = serve::Json::object();
  req.add("id", serve::Json::number(1));
  req.add("op", serve::Json::string("trial"));
  req.add("design", serve::Json::string(serve_heat_design()));
  req.add("inputs_batch", std::move(batch));
  return req.dump();
}

// A 256-trial batch against a fresh server each iteration: the design
// is parsed, planned and compiled once per request, so per-trial time
// should sit far below BM_ServeTrialCold. items/s is trials per second.
void BM_ServeTrialBatch(benchmark::State& state) {
  constexpr int kTrials = 256;
  const std::string request = serve_trial_batch_request(kTrials);
  for (auto _ : state) {
    serve::Server server;
    benchmark::DoNotOptimize(server.handle_line(request));
  }
  state.SetItemsProcessed(state.iterations() * kTrials);
}
BENCHMARK(BM_ServeTrialBatch);

// The JSON layer on its own: the ~548 KB heat 32x32 schedule request,
// parsed from its line and dumped back to one. Every serve request pays
// the parse; every response the dump.
void BM_JsonParse(benchmark::State& state) {
  const std::string request = serve_schedule_request();
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::Json::parse(request));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(request.size()));
}
BENCHMARK(BM_JsonParse);

void BM_JsonDump(benchmark::State& state) {
  const std::string request = serve_schedule_request();
  const serve::Json doc = serve::Json::parse(request);
  for (auto _ : state) {
    benchmark::DoNotOptimize(doc.dump());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(request.size()));
}
BENCHMARK(BM_JsonDump);

// ---------------------------------------------------------------------------
// Batch text I/O: the two per-input costs `trial --inputs` and `stream`
// pay outside the runtime, on sweep_coarse's shapes: one rod line of
// 4096 values in the `--inputs` file format, and one result of 4096
// values rendered as the trial and stream blocks render it.

std::vector<double> rod_values(std::size_t n) {
  util::Rng rng(17);
  std::vector<double> values(n);
  for (double& v : values) v = std::round(rng.uniform(0.0, 100.0) * 1e3) / 1e3;
  return values;
}

void BM_EvalInputLine(benchmark::State& state) {
  std::string expr = "[";
  for (double v : rod_values(4096)) {
    if (expr.size() > 1) expr += ", ";
    expr += util::format_double(v, 12);
  }
  expr += "]";
  for (auto _ : state) {
    benchmark::DoNotOptimize(pits::eval_expression(expr, {}));
  }
}
BENCHMARK(BM_EvalInputLine);

void BM_RenderRunResult(benchmark::State& state) {
  // Values with 12 significant digits, like a solver's output.
  exec::RunResult result;
  std::vector<double> values = rod_values(4096);
  for (double& v : values) v /= 3.0;
  result.outputs["result"] = pits::Value(std::move(values));
  result.runs.resize(137);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serve::render_run_result(result, /*include_wall=*/false));
  }
}
BENCHMARK(BM_RenderRunResult);

}  // namespace

BENCHMARK_MAIN();

// Golden determinism suite guarding the scheduler hot-path work: every
// heuristic must emit byte-identical schedules to the straightforward
// seed implementation (pinned in tests/golden/sched/ — small cases as
// full text, large cases as FNV-1a hashes), and every batch entry point
// (compare_schedulers, fault Monte Carlo, multi-restart annealing,
// speedup prediction) must return bit-identical results for any worker
// count. A brute-force Timeline reference cross-checks the gap-indexed
// earliest_slot on random occupancy patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "core/recovery.hpp"
#include "fault/fault.hpp"
#include "sched/anneal.hpp"
#include "sched/compare.hpp"
#include "sched/heuristics.hpp"
#include "sched/list_core.hpp"
#include "sched/serialize.hpp"
#include "sched/speedup.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads/graphs.hpp"
#include "workloads/lu.hpp"

#include "reference_dsh.hpp"

namespace banger::sched {
namespace {

// --- corpus (must match the generator that produced tests/golden/sched) ---

Machine cube8() {
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = 0.1;
  p.bytes_per_second = 1e3;
  return Machine(machine::Topology::hypercube(3), p);
}

graph::TaskGraph sized_graph(int n) {
  workloads::RandomGraphSpec spec;
  spec.layers = n / 8;
  spec.width = 8;
  spec.seed = 7;
  return workloads::random_layered(spec);
}

std::string golden_dir() {
  return std::string(BANGER_SOURCE_DIR) + "/tests/golden/sched";
}

/// With BANGER_UPDATE_GOLDEN=1 the golden tests rewrite the corpus from
/// the current implementation instead of comparing against it — for
/// changes that are *meant* to alter schedules. Diff the result before
/// committing it.
bool update_golden() {
  const char* env = std::getenv("BANGER_UPDATE_GOLDEN");
  return env != nullptr && env[0] == '1';
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary);
  ASSERT_TRUE(f.is_open()) << "cannot write " << path;
  f << data;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

/// FNV-1a 64-bit — matches the hash manifest generator (now the shared
/// util implementation the serve artifact cache keys with).
std::string fnv1a_hex(const std::string& data) {
  return util::fnv1a64_hex(data);
}

class SchedGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = golden_dir();
  }
  std::string dir_;
};

TEST_F(SchedGolden, SmallCasesMatchSeedTextByteForByte) {
  const auto m = cube8();
  const std::vector<std::pair<std::string, graph::TaskGraph>> cases = {
      {"lu8", workloads::lu_taskgraph(8, 8.0)}, {"rand64", sized_graph(64)}};
  for (const auto& [label, graph] : cases) {
    for (const std::string& name : scheduler_names()) {
      const auto s = make_scheduler(name)->run(graph, m);
      s.validate(graph, m);
      const std::string path = dir_ + "/" + label + "_" + name + ".sched";
      if (update_golden()) {
        write_file(path, to_text(s, graph));
        continue;
      }
      EXPECT_EQ(to_text(s, graph), read_file(path))
          << name << " diverged from the seed on " << label;
    }
  }
}

TEST_F(SchedGolden, LargeCasesMatchSeedHashes) {
  const auto m = cube8();
  std::map<std::string, graph::TaskGraph> graphs;
  graphs.emplace("rand256", sized_graph(256));
  graphs.emplace("rand1024", sized_graph(1024));

  if (update_golden()) {
    std::ostringstream out;
    for (const auto& [label, graph] : graphs) {
      for (const std::string& name : scheduler_names()) {
        const auto s = make_scheduler(name)->run(graph, m);
        out << label << '_' << name << ' ' << fnv1a_hex(to_text(s, graph))
            << '\n';
      }
    }
    write_file(dir_ + "/hashes.txt", out.str());
    return;
  }

  std::ifstream manifest(dir_ + "/hashes.txt");
  ASSERT_TRUE(manifest.is_open());
  std::string entry, expected;
  int checked = 0;
  while (manifest >> entry >> expected) {
    const auto underscore = entry.rfind('_');
    ASSERT_NE(underscore, std::string::npos) << entry;
    const std::string label = entry.substr(0, underscore);
    const std::string scheduler = entry.substr(underscore + 1);
    const auto it = graphs.find(label);
    ASSERT_NE(it, graphs.end()) << label;
    const auto s = make_scheduler(scheduler)->run(it->second, m);
    EXPECT_EQ(fnv1a_hex(to_text(s, it->second)), expected)
        << scheduler << " diverged from the seed on " << label;
    ++checked;
  }
  EXPECT_EQ(checked, 20);  // 10 heuristics x {rand256, rand1024}
}

TEST_F(SchedGolden, FaultRepairScheduleMatchesSeed) {
  const auto m = cube8();
  const auto g = workloads::lu_taskgraph(8, 8.0);
  const auto s = MhScheduler().run(g, m);
  const auto plan = fault::plan_crash_busiest(s, 0.5);
  const auto report = core::run_with_faults(g, m, s, plan);
  ASSERT_TRUE(report.crashed);
  if (update_golden()) {
    write_file(dir_ + "/lu8_mh_repair.sched",
               to_text(report.repair.schedule, g));
    return;
  }
  EXPECT_EQ(to_text(report.repair.schedule, g),
            read_file(dir_ + "/lu8_mh_repair.sched"));
}

// --- cross-jobs determinism of the batch layer ---

TEST(SchedParallel, CompareSchedulersIsIdenticalForAnyJobs) {
  const auto g = sized_graph(256);
  const auto m = cube8();
  const auto names = scheduler_names();
  const auto baseline = compare_schedulers(g, m, names, {}, 1);
  ASSERT_EQ(baseline.size(), names.size());
  for (int jobs : {2, 8}) {
    const auto entries = compare_schedulers(g, m, names, {}, jobs);
    ASSERT_EQ(entries.size(), baseline.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(entries[i].scheduler, baseline[i].scheduler);
      EXPECT_EQ(to_text(entries[i].schedule, g),
                to_text(baseline[i].schedule, g))
          << baseline[i].scheduler << " differs at jobs=" << jobs;
      EXPECT_EQ(entries[i].metrics.makespan, baseline[i].metrics.makespan);
    }
  }
}

TEST(SchedParallel, FaultMonteCarloIsIdenticalForAnyJobs) {
  const auto g = sized_graph(64);
  const auto m = cube8();
  const auto s = MhScheduler().run(g, m);
  fault::FaultPlan plan = fault::plan_crash_busiest(s, 0.5);
  plan.set_msg_loss({0.2, 3, 0.05});
  plan.set_msg_delay({0.25});

  core::FaultMonteCarloOptions mc;
  mc.trials = 16;
  mc.jobs = 1;
  const auto baseline = core::fault_monte_carlo(g, m, s, plan, mc);
  EXPECT_EQ(baseline.trials, 16);
  EXPECT_GT(baseline.worst_degraded, 0.0);
  EXPECT_GE(baseline.p95_degraded, baseline.p50_degraded);
  for (int jobs : {2, 8}) {
    mc.jobs = jobs;
    const auto stats = core::fault_monte_carlo(g, m, s, plan, mc);
    EXPECT_EQ(stats.crashed_runs, baseline.crashed_runs);
    EXPECT_EQ(stats.mean_degraded, baseline.mean_degraded);
    EXPECT_EQ(stats.p50_degraded, baseline.p50_degraded);
    EXPECT_EQ(stats.p95_degraded, baseline.p95_degraded);
    EXPECT_EQ(stats.worst_degraded, baseline.worst_degraded);
    EXPECT_EQ(stats.mean_overhead, baseline.mean_overhead);
  }
}

TEST(SchedParallel, AnnealRestartsAreIdenticalForAnyJobs) {
  const auto g = sized_graph(64);
  const auto m = cube8();
  AnnealOptions opts;
  opts.iterations = 200;
  opts.seed = 5;
  opts.restarts = 4;

  opts.jobs = 1;
  const auto baseline = AnnealScheduler(opts).run(g, m);
  for (int jobs : {2, 8}) {
    opts.jobs = jobs;
    const auto s = AnnealScheduler(opts).run(g, m);
    EXPECT_EQ(to_text(s, g), to_text(baseline, g)) << "jobs=" << jobs;
  }
}

TEST(SchedParallel, SingleRestartMatchesPlainAnnealing) {
  // restarts=1 must reproduce the original single-chain annealer: the
  // chain seed is exactly opts.seed.
  const auto g = sized_graph(64);
  const auto m = cube8();
  AnnealOptions multi;
  multi.iterations = 150;
  multi.seed = 9;
  multi.restarts = 1;
  multi.jobs = 8;  // jobs must not matter for a single chain
  AnnealOptions plain = multi;
  plain.jobs = 1;
  EXPECT_EQ(to_text(AnnealScheduler(multi).run(g, m), g),
            to_text(AnnealScheduler(plain).run(g, m), g));
}

TEST(SchedParallel, SpeedupCurveIsIdenticalForAnyJobs) {
  const auto g = workloads::lu_taskgraph(8, 8.0);
  MhScheduler mh;
  auto factory = [](int procs) {
    machine::MachineParams p;
    p.processor_speed = 1.0;
    p.message_startup = 0.1;
    p.bytes_per_second = 1e3;
    int dim = 0;
    while ((1 << dim) < procs) ++dim;
    return Machine(machine::Topology::hypercube(dim), p);
  };
  const std::vector<int> sizes{1, 2, 4, 8};
  const auto baseline = predict_speedup(g, mh, factory, sizes, 1);
  for (int jobs : {2, 8}) {
    const auto curve = predict_speedup(g, mh, factory, sizes, jobs);
    ASSERT_EQ(curve.points.size(), baseline.points.size());
    EXPECT_EQ(curve.machine_family, baseline.machine_family);
    for (std::size_t i = 0; i < curve.points.size(); ++i) {
      EXPECT_EQ(curve.points[i].procs, baseline.points[i].procs);
      EXPECT_EQ(curve.points[i].makespan, baseline.points[i].makespan);
      EXPECT_EQ(curve.points[i].speedup, baseline.points[i].speedup);
    }
  }
}

// --- Timeline gap index vs brute-force reference ---

/// The seed implementation's earliest_slot: linear left-to-right scan.
double reference_slot(const std::vector<std::pair<double, double>>& lane,
                      double ready, double duration, bool insertion) {
  double candidate = std::max(0.0, ready);
  if (!insertion) {
    for (const auto& [s, f] : lane) candidate = std::max(candidate, f);
    return candidate;
  }
  for (const auto& [s, f] : lane) {
    if (candidate + duration <= s + 1e-12) return candidate;
    candidate = std::max(candidate, f);
  }
  return candidate;
}

TEST(TimelineGapIndex, MatchesBruteForceOnRandomPatterns) {
  util::Rng rng(123);
  for (int round = 0; round < 50; ++round) {
    Timeline timeline(1);
    std::vector<std::pair<double, double>> reference_lane;
    for (int step = 0; step < 60; ++step) {
      const double ready =
          static_cast<double>(rng.next_below(200)) / 10.0;
      const double duration =
          0.1 + static_cast<double>(rng.next_below(40)) / 10.0;
      const bool insertion = rng.chance(0.7);
      const double expected =
          reference_slot(reference_lane, ready, duration, insertion);
      const double got =
          timeline.earliest_slot(0, ready, duration, insertion);
      ASSERT_EQ(got, expected)
          << "round " << round << " step " << step << " ready " << ready
          << " duration " << duration << " insertion " << insertion;
      // Occupy roughly half the probes so lanes grow fragmented.
      if (rng.chance(0.5)) {
        timeline.occupy(0, got, duration);
        reference_lane.emplace_back(got, got + duration);
        std::sort(reference_lane.begin(), reference_lane.end());
      }
    }
  }
}

// --- fast DSH vs the seed implementation (differential oracle) ---

/// Randomized property test: the rebuilt DSH (undo log, epoch stamps,
/// shared timeline) must produce byte-identical schedules to the seed
/// implementation (tests/reference_dsh.hpp) across graph shapes,
/// duplication depths 0-3, homogeneous and heterogeneous machines, and
/// both routing models.
TEST(DshDifferential, MatchesReferenceOnRandomGraphsAndMachines) {
  util::Rng rng(20240807);
  for (int round = 0; round < 16; ++round) {
    workloads::RandomGraphSpec spec;
    spec.layers = 2 + static_cast<int>(rng.next_below(8));
    spec.width = 2 + static_cast<int>(rng.next_below(7));
    spec.edge_probability = 0.15 + 0.15 * static_cast<double>(rng.next_below(5));
    spec.work_hi = 1.0 + static_cast<double>(rng.next_below(12));
    spec.bytes_hi = 8.0 + static_cast<double>(rng.next_below(2000));
    spec.seed = 1000 + static_cast<std::uint64_t>(round);
    const auto g = workloads::random_layered(spec);

    machine::MachineParams params;
    params.processor_speed = 1.0;
    params.process_startup = rng.chance(0.5) ? 0.0 : 0.05;
    params.message_startup = 0.05 + 0.05 * static_cast<double>(rng.next_below(4));
    params.bytes_per_second = rng.chance(0.5) ? 1e3 : 250.0;
    if (rng.chance(0.4)) {
      params.routing = machine::Routing::CutThrough;
      params.per_hop_latency = 0.02;
    }
    Machine m = rng.chance(0.5)
                    ? Machine(machine::Topology::hypercube(3), params)
                    : Machine(machine::Topology::ring(4), params);
    if (rng.chance(0.5)) {
      // Heterogeneous: spread speed factors across the processors.
      for (ProcId p = 0; p < m.num_procs(); ++p) {
        m.set_speed_factor(p, 0.5 + 0.25 * static_cast<double>(p % 4));
      }
    }

    SchedulerOptions opts;
    opts.duplication_depth = round % 4;  // exercise depths 0-3

    const auto fast = DshScheduler(opts).run(g, m);
    const auto ref = reference::reference_dsh(g, m, opts);
    EXPECT_EQ(to_text(fast, g), to_text(ref, g))
        << "round " << round << " layers " << spec.layers << " width "
        << spec.width << " depth " << opts.duplication_depth;
    fast.validate(g, m);
  }
}

// --- scheduler scale: ~65k tasks must stay allocator-churn free ---

TEST(SchedScale, EtfSchedules65kTaskGraphUnderWallBudget) {
  workloads::RandomGraphSpec spec;
  spec.layers = 8192;
  spec.width = 8;
  spec.seed = 7;
  const auto g = workloads::random_layered(spec);
  ASSERT_GE(g.num_tasks(), 65536u);  // layers x width plus source/sink glue
  const auto m = cube8();

  const auto t0 = std::chrono::steady_clock::now();
  const auto s = EtfScheduler().run(g, m);
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - t0);
  // Generous budget (CI machines vary widely); catching an accidental
  // O(n^2) reintroduction, which overshoots it by orders of magnitude.
  EXPECT_LT(elapsed.count(), 120) << "ETF on 65536 tasks took " <<
      elapsed.count() << "s";

  s.validate(g, m);
  EXPECT_EQ(s.placements().size(), g.num_tasks());
}

}  // namespace
}  // namespace banger::sched

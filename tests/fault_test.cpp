// Fault-injection subsystem tests: FaultPlan models and serialisation,
// faulty simulation, repair rescheduling, the detect→repair→resume
// pipeline, fault overlays, and executor-level crash rescue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/recovery.hpp"
#include "exec/executor.hpp"
#include "fault/fault.hpp"
#include "sched/heuristics.hpp"
#include "sched/repair.hpp"
#include "sched/serialize.hpp"
#include "sim/simulator.hpp"
#include "viz/gantt.hpp"
#include "workloads/designs.hpp"
#include "workloads/graphs.hpp"
#include "workloads/lu.hpp"
#include "workloads/synth.hpp"

namespace banger {
namespace {

using machine::Machine;
using machine::ProcId;

Machine make_machine(int procs, double ccr) {
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = ccr / 2.0;
  p.bytes_per_second = ccr > 0 ? 8.0 / (ccr / 2.0) : 0.0;
  return Machine(machine::Topology::fully_connected(procs), p);
}

bool events_equal(const std::vector<sim::SimEvent>& a,
                  const std::vector<sim::SimEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].kind != b[i].kind ||
        a[i].task != b[i].task || a[i].edge != b[i].edge ||
        a[i].proc != b[i].proc) {
      return false;
    }
  }
  return true;
}

bool has_event(const std::vector<sim::SimEvent>& events, sim::EventKind kind) {
  return std::any_of(events.begin(), events.end(),
                     [kind](const sim::SimEvent& e) { return e.kind == kind; });
}

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlan, TextRoundTrip) {
  fault::FaultPlan plan("demo", 7);
  plan.add_crash(2, 3.5);
  plan.add_crash(0, 9.25);
  plan.add_slowdown(1, 1.0, 4.0, 2.5);
  plan.set_msg_loss({0.2, 3, 0.1});
  plan.set_msg_delay({0.25});

  const auto copy = fault::FaultPlan::parse(plan.to_text());
  EXPECT_EQ(copy.name(), "demo");
  EXPECT_EQ(copy.seed(), 7u);
  ASSERT_EQ(copy.crashes().size(), 2u);
  EXPECT_EQ(copy.crashes()[0].proc, 2);
  EXPECT_DOUBLE_EQ(copy.crashes()[0].at, 3.5);
  ASSERT_EQ(copy.slowdowns().size(), 1u);
  EXPECT_DOUBLE_EQ(copy.slowdowns()[0].factor, 2.5);
  EXPECT_DOUBLE_EQ(copy.msg_loss().prob, 0.2);
  EXPECT_EQ(copy.msg_loss().retries, 3);
  EXPECT_DOUBLE_EQ(copy.msg_delay().jitter, 0.25);
  EXPECT_EQ(copy.to_text(), plan.to_text());
}

TEST(FaultPlan, EmptyPlanIsEmpty) {
  fault::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.perturbs_messages());
  plan.add_crash(0, 1.0);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, ParseRejectsMalformedText) {
  EXPECT_THROW((void)fault::FaultPlan::parse("crash proc=0 at=1\n"), Error);
  EXPECT_THROW(
      (void)fault::FaultPlan::parse("faultplan x seed=1\nwobble proc=0\n"),
      Error);
  EXPECT_THROW((void)fault::FaultPlan::parse("faultplan x seed=1\ncrash at=1\n"),
               Error);
  EXPECT_THROW(
      (void)fault::FaultPlan::parse("faultplan x seed=1\ncrash proc=0 at=1 z=2\n"),
      Error);
}

TEST(FaultPlan, RejectsMalformedFaults) {
  fault::FaultPlan plan;
  EXPECT_THROW(plan.add_crash(0, -1.0), Error);
  plan.add_crash(0, 1.0);
  EXPECT_THROW(plan.add_crash(0, 2.0), Error);  // one crash per processor
  EXPECT_THROW(plan.add_slowdown(1, 2.0, 1.0, 2.0), Error);  // to < from
  EXPECT_THROW(plan.add_slowdown(1, 0.0, 1.0, 0.5), Error);  // factor < 1
  EXPECT_THROW(plan.set_msg_loss({1.0, 3, 0.0}), Error);     // prob must be < 1
  // Out-of-range processor caught by validate().
  fault::FaultPlan bad;
  bad.add_crash(5, 1.0);
  EXPECT_THROW(bad.validate(2), Error);
  EXPECT_NO_THROW(bad.validate(6));
}

TEST(FaultPlan, SlowdownStretchesTasks) {
  fault::FaultPlan plan;
  plan.add_slowdown(0, 2.0, 4.0, 2.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(0, 3.9), 2.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(1, 3.0), 1.0);

  // 1s at nominal speed up to t=2, the remaining 1s runs 2x slower.
  EXPECT_DOUBLE_EQ(plan.task_finish(0, 1.0, 2.0), 4.0);
  // Entirely outside the window: unchanged.
  EXPECT_DOUBLE_EQ(plan.task_finish(0, 5.0, 2.0), 7.0);
  // Other processors: unchanged.
  EXPECT_DOUBLE_EQ(plan.task_finish(1, 1.0, 2.0), 3.0);
  // Entirely inside the window: doubled.
  EXPECT_DOUBLE_EQ(plan.task_finish(0, 2.0, 0.5), 3.0);
  // Overlapping windows take the max factor.
  plan.add_slowdown(0, 3.0, 5.0, 4.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(0, 3.5), 4.0);
}

TEST(FaultPlan, MsgFateDeterministicAndBounded) {
  fault::FaultPlan plan("loss", 11);
  plan.set_msg_loss({0.5, 3, 0.1});
  plan.set_msg_delay({0.5});
  bool saw_retry = false;
  for (graph::EdgeId e = 0; e < 64; ++e) {
    const auto fate = plan.msg_fate(e, 0, 1);
    const auto again = plan.msg_fate(e, 0, 1);
    EXPECT_EQ(fate.attempts, again.attempts);
    EXPECT_DOUBLE_EQ(fate.jitter_fraction, again.jitter_fraction);
    EXPECT_GE(fate.attempts, 1);
    EXPECT_LE(fate.attempts, 4);  // retries=3 => at most 4 attempts
    EXPECT_GE(fate.jitter_fraction, 0.0);
    EXPECT_LT(fate.jitter_fraction, 1.0);
    saw_retry = saw_retry || fate.attempts > 1;
  }
  EXPECT_TRUE(saw_retry);  // prob=0.5 over 64 edges

  // The fate depends on the seed.
  fault::FaultPlan other("loss", 12);
  other.set_msg_loss({0.5, 3, 0.1});
  other.set_msg_delay({0.5});
  bool differs = false;
  for (graph::EdgeId e = 0; e < 64 && !differs; ++e) {
    differs = plan.msg_fate(e, 0, 1).attempts != other.msg_fate(e, 0, 1).attempts;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, CrashQueries) {
  const auto plan = fault::plan_crash(1, 2.5, 3);
  EXPECT_EQ(plan.seed(), 3u);
  ASSERT_TRUE(plan.crash_time(1).has_value());
  EXPECT_DOUBLE_EQ(*plan.crash_time(1), 2.5);
  EXPECT_FALSE(plan.crash_time(0).has_value());
  EXPECT_EQ(plan.crashed_procs(), std::vector<ProcId>{1});
  EXPECT_FALSE(plan.latest_crash_before(2.0).has_value());
  ASSERT_TRUE(plan.latest_crash_before(3.0).has_value());
  EXPECT_DOUBLE_EQ(*plan.latest_crash_before(3.0), 2.5);
}

TEST(FaultPlan, BusiestProcessorTargeted) {
  sched::Schedule s(2, "manual");
  s.place(0, 0, 0.0, 5.0);
  s.place(1, 1, 0.0, 1.0);
  s.place(2, 1, 5.0, 6.0);
  const auto plan = fault::plan_crash_busiest(s, 0.5);
  ASSERT_EQ(plan.crashes().size(), 1u);
  EXPECT_EQ(plan.crashes()[0].proc, 0);  // 5s busy beats 2s
  EXPECT_DOUBLE_EQ(plan.crashes()[0].at, 3.0);  // half the makespan
}

// ----------------------------------------------------------- faulty replay

TEST(FaultSim, EmptyPlanReplaysExactly) {
  auto g = workloads::lu_taskgraph(4);
  auto m = make_machine(3, 0.5);
  const auto s = sched::MhScheduler().run(g, m);
  const auto plain = sim::simulate(g, m, s);
  fault::FaultPlan empty;
  sim::SimOptions opts;
  opts.faults = &empty;
  const auto faulted = sim::simulate(g, m, s, opts);
  EXPECT_DOUBLE_EQ(faulted.makespan, plain.makespan);
  EXPECT_TRUE(events_equal(faulted.events, plain.events));
  EXPECT_TRUE(faulted.complete);
  EXPECT_TRUE(faulted.killed.empty());
}

TEST(FaultSim, CrashStrandsDownstreamWork) {
  auto g = workloads::lu_taskgraph(4);
  auto m = make_machine(3, 0.5);
  const auto s = sched::MhScheduler().run(g, m);
  const auto plain = sim::simulate(g, m, s);

  // Crash the processor of the latest-starting task exactly at its actual
  // start: the copy can never begin, so the replay cannot complete.
  graph::TaskId victim = 0;
  for (graph::TaskId t = 1; t < g.num_tasks(); ++t) {
    if (plain.tasks[t].start > plain.tasks[victim].start) victim = t;
  }
  const auto plan =
      fault::plan_crash(plain.tasks[victim].proc, plain.tasks[victim].start);
  sim::SimOptions opts;
  opts.faults = &plan;
  const auto faulted = sim::simulate(g, m, s, opts);

  EXPECT_FALSE(faulted.complete);
  ASSERT_EQ(faulted.task_finished.size(), g.num_tasks());
  EXPECT_EQ(faulted.task_finished[victim], 0);
  EXPECT_LT(faulted.finished_copies.size(), s.placements().size());
  EXPECT_TRUE(has_event(faulted.events, sim::EventKind::ProcCrash));
}

TEST(FaultSim, MidTaskCrashKillsTheCopy) {
  auto g = workloads::lu_taskgraph(4);
  auto m = make_machine(3, 0.5);
  const auto s = sched::MhScheduler().run(g, m);
  const auto plain = sim::simulate(g, m, s);

  // Longest-running task, killed halfway through its actual interval.
  graph::TaskId victim = 0;
  for (graph::TaskId t = 1; t < g.num_tasks(); ++t) {
    const auto& a = plain.tasks[t];
    const auto& b = plain.tasks[victim];
    if (a.finish - a.start > b.finish - b.start) victim = t;
  }
  const double mid =
      0.5 * (plain.tasks[victim].start + plain.tasks[victim].finish);
  const auto plan = fault::plan_crash(plain.tasks[victim].proc, mid);
  sim::SimOptions opts;
  opts.faults = &plan;
  const auto faulted = sim::simulate(g, m, s, opts);

  EXPECT_FALSE(faulted.complete);
  ASSERT_FALSE(faulted.killed.empty());
  const auto killed =
      std::find_if(faulted.killed.begin(), faulted.killed.end(),
                   [victim](const sim::SimResult::Killed& k) {
                     return k.task == victim;
                   });
  ASSERT_NE(killed, faulted.killed.end());
  EXPECT_DOUBLE_EQ(killed->at, mid);
  EXPECT_TRUE(has_event(faulted.events, sim::EventKind::TaskKill));
}

TEST(FaultSim, SlowdownDelaysMakespan) {
  auto g = workloads::fork_join(4, 2.0, 8.0);
  auto m = make_machine(2, 0.2);
  const auto s = sched::MhScheduler().run(g, m);
  const auto plain = sim::simulate(g, m, s);
  fault::FaultPlan plan("slow");
  plan.add_slowdown(0, 0.0, plain.makespan, 3.0);
  plan.add_slowdown(1, 0.0, plain.makespan, 3.0);
  sim::SimOptions opts;
  opts.faults = &plan;
  const auto slowed = sim::simulate(g, m, s, opts);
  EXPECT_TRUE(slowed.complete);
  EXPECT_GT(slowed.makespan, plain.makespan + 1e-9);
}

TEST(FaultSim, MessageLossDropsAndRetries) {
  auto g = workloads::fork_join(6, 1.0, 8.0);
  auto m = make_machine(3, 0.5);
  const auto s = sched::MhScheduler().run(g, m);
  const auto plain = sim::simulate(g, m, s);
  ASSERT_GT(plain.num_messages, 0u);

  // Heavy loss: some remote message almost surely needs a retransmission.
  bool saw_drop = false;
  for (std::uint64_t seed = 1; seed <= 20 && !saw_drop; ++seed) {
    fault::FaultPlan plan("lossy", seed);
    plan.set_msg_loss({0.8, 3, 0.25});
    sim::SimOptions opts;
    opts.faults = &plan;
    const auto lossy = sim::simulate(g, m, s, opts);
    EXPECT_TRUE(lossy.complete);  // bounded retry always delivers
    if (has_event(lossy.events, sim::EventKind::MsgDrop)) {
      saw_drop = true;
      EXPECT_TRUE(has_event(lossy.events, sim::EventKind::MsgRetry));
      EXPECT_GE(lossy.makespan, plain.makespan - 1e-9);
      EXPECT_GT(lossy.total_link_time, plain.total_link_time + 1e-12);
    }
  }
  EXPECT_TRUE(saw_drop);
}

TEST(FaultSim, JitterDelaysWithoutDropping) {
  auto g = workloads::fork_join(6, 1.0, 8.0);
  auto m = make_machine(3, 0.5);
  const auto s = sched::MhScheduler().run(g, m);
  const auto plain = sim::simulate(g, m, s);
  fault::FaultPlan plan("jittery", 5);
  plan.set_msg_delay({0.9});
  sim::SimOptions opts;
  opts.faults = &plan;
  const auto jittered = sim::simulate(g, m, s, opts);
  EXPECT_TRUE(jittered.complete);
  EXPECT_FALSE(has_event(jittered.events, sim::EventKind::MsgDrop));
  EXPECT_GE(jittered.makespan, plain.makespan - 1e-9);
}

TEST(FaultSim, EventLogIsDeterministic) {
  auto g = workloads::lu_taskgraph(5);
  auto m = make_machine(4, 1.0);
  const auto s = sched::MhScheduler().run(g, m);
  fault::FaultPlan plan("everything", 9);
  plan.add_crash(2, 4.0);
  plan.add_slowdown(0, 0.0, 3.0, 1.5);
  plan.set_msg_loss({0.4, 2, 0.2});
  plan.set_msg_delay({0.3});
  sim::SimOptions opts;
  opts.faults = &plan;
  const auto a = sim::simulate(g, m, s, opts);
  const auto b = sim::simulate(g, m, s, opts);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_TRUE(events_equal(a.events, b.events));
  ASSERT_EQ(a.finished_copies.size(), b.finished_copies.size());
  for (std::size_t i = 0; i < a.finished_copies.size(); ++i) {
    EXPECT_EQ(a.finished_copies[i].task, b.finished_copies[i].task);
    EXPECT_EQ(a.finished_copies[i].proc, b.finished_copies[i].proc);
    EXPECT_DOUBLE_EQ(a.finished_copies[i].finish, b.finished_copies[i].finish);
  }
}

// ------------------------------------------------------------------ repair

TEST(Repair, ReschedulesFrontierOnSurvivors) {
  auto g = workloads::chain_graph(3, 1.0, 8.0);
  auto m = make_machine(2, 0.5);
  sched::RepairRequest req;
  // Task 0 finished on p0, then p0 died: its data died with it, so the
  // whole chain re-runs on the survivor.
  req.completed = {{0, 0, 0.0, 1.0, false}};
  req.dead = {0};
  req.now = 1.5;
  const auto r = sched::repair_schedule(g, m, req);

  EXPECT_EQ(r.reexecuted, std::vector<graph::TaskId>{0});
  ASSERT_EQ(r.new_placements.size(), 3u);
  for (const auto& pl : r.new_placements) {
    EXPECT_EQ(pl.proc, 1);
    EXPECT_GE(pl.start, req.now - 1e-12);
  }
  EXPECT_NEAR(r.lost_seconds, m.task_time(g.task(0).work, 1), 1e-9);
  EXPECT_NEAR(r.reexec_seconds, 3.0 * m.task_time(1.0, 1), 1e-9);
  r.schedule.validate(g, m);
  EXPECT_GE(r.makespan, req.now);
}

TEST(Repair, SurvivingDuplicateAvoidsReexecution) {
  auto g = workloads::chain_graph(3, 1.0, 8.0);
  auto m = make_machine(2, 0.5);
  sched::RepairRequest req;
  // Task 0 also finished as a duplicate on the survivor: only the truly
  // lost work (task 1) re-runs, and the surviving copy becomes primary.
  req.completed = {{0, 0, 0.0, 1.0, false},
                   {0, 1, 0.0, 1.0, true},
                   {1, 0, 1.0, 2.0, false}};
  req.dead = {0};
  req.now = 2.0;
  const auto r = sched::repair_schedule(g, m, req);

  EXPECT_EQ(r.reexecuted, std::vector<graph::TaskId>{1});
  ASSERT_EQ(r.new_placements.size(), 2u);  // task 1 again, task 2 fresh
  const auto primary0 = r.schedule.placement_of(0);
  ASSERT_TRUE(primary0.has_value());
  EXPECT_EQ(primary0->proc, 1);
  r.schedule.validate(g, m);
}

TEST(Repair, NoSurvivorsThrows) {
  auto g = workloads::chain_graph(2, 1.0, 8.0);
  auto m = make_machine(2, 0.5);
  sched::RepairRequest req;
  req.dead = {0, 1};
  EXPECT_THROW((void)sched::repair_schedule(g, m, req), Error);
}

TEST(Repair, DeterministicOutput) {
  auto g = workloads::lu_taskgraph(5);
  auto m = make_machine(4, 1.0);
  const auto s = sched::MhScheduler().run(g, m);
  const auto plain = sim::simulate(g, m, s);
  const auto plan = fault::plan_crash_busiest(s, 0.4);
  sim::SimOptions opts;
  opts.faults = &plan;
  const auto faulted = sim::simulate(g, m, s, opts);
  ASSERT_FALSE(faulted.complete);

  sched::RepairRequest req;
  req.completed = faulted.finished_copies;
  req.dead = plan.crashed_procs();
  req.now = plan.crashes()[0].at;
  const auto r1 = sched::repair_schedule(g, m, req);
  const auto r2 = sched::repair_schedule(g, m, req);
  EXPECT_EQ(sched::to_text(r1.schedule, g), sched::to_text(r2.schedule, g));
}

// ---------------------------------------------- detect → repair → resume

TEST(Recovery, EmptyPlanHasNoOverhead) {
  auto g = workloads::lu_taskgraph(4);
  auto m = make_machine(3, 0.5);
  const auto s = sched::MhScheduler().run(g, m);
  const auto report = core::run_with_faults(g, m, s, fault::FaultPlan{});
  EXPECT_FALSE(report.crashed);
  EXPECT_DOUBLE_EQ(report.recovery_overhead, 0.0);
  EXPECT_DOUBLE_EQ(report.degraded_makespan, report.baseline_makespan);
}

TEST(Recovery, CrashTriggersRepairAndReexecution) {
  auto g = workloads::lu_taskgraph(4);
  auto m = make_machine(3, 0.5);
  const auto s = sched::MhScheduler().run(g, m);
  const auto plain = sim::simulate(g, m, s);

  // Kill the longest task halfway: guaranteed mid-flight loss.
  graph::TaskId victim = 0;
  for (graph::TaskId t = 1; t < g.num_tasks(); ++t) {
    const auto& a = plain.tasks[t];
    const auto& b = plain.tasks[victim];
    if (a.finish - a.start > b.finish - b.start) victim = t;
  }
  const double mid =
      0.5 * (plain.tasks[victim].start + plain.tasks[victim].finish);
  const auto plan = fault::plan_crash(plain.tasks[victim].proc, mid);

  const auto report = core::run_with_faults(g, m, s, plan);
  EXPECT_TRUE(report.crashed);
  EXPECT_GT(report.lost_seconds, 0.0);
  EXPECT_GT(report.reexec_seconds, 0.0);
  EXPECT_GE(report.degraded_makespan, report.faulty.makespan - 1e-12);
  EXPECT_NEAR(report.recovery_overhead,
              report.degraded_makespan - report.baseline_makespan, 1e-12);
  EXPECT_TRUE(has_event(report.events, sim::EventKind::ProcCrash));
  EXPECT_TRUE(has_event(report.events, sim::EventKind::TaskReexec));
  EXPECT_TRUE(std::is_sorted(report.events.begin(), report.events.end(),
                             [](const sim::SimEvent& a, const sim::SimEvent& b) {
                               return a.time < b.time;
                             }));
  // New placements avoid the dead processor; the repaired schedule is
  // feasible under the ordinary validator.
  for (const auto& pl : report.repair.new_placements) {
    EXPECT_NE(pl.proc, plan.crashes()[0].proc);
  }
  report.repair.schedule.validate(g, m);

  const auto text = report.summary();
  EXPECT_NE(text.find("fault recovery report"), std::string::npos);
  EXPECT_NE(text.find("recovery overhead"), std::string::npos);
}

TEST(Recovery, ReportIsDeterministic) {
  auto g = workloads::lu_taskgraph(5);
  auto m = make_machine(4, 1.0);
  const auto s = sched::MhScheduler().run(g, m);
  const auto plan = fault::plan_crash_busiest(s, 0.4);
  const auto a = core::run_with_faults(g, m, s, plan);
  const auto b = core::run_with_faults(g, m, s, plan);
  EXPECT_DOUBLE_EQ(a.degraded_makespan, b.degraded_makespan);
  EXPECT_TRUE(events_equal(a.events, b.events));
  EXPECT_EQ(sched::to_text(a.repair.schedule, g),
            sched::to_text(b.repair.schedule, g));
}

TEST(Recovery, DuplicationLosesLessThanListScheduling) {
  // ABL10's headline: DSH's duplicated ancestors double as redundancy.
  // When the busiest processor dies halfway through, surviving duplicate
  // copies feed the repair pass for free, so DSH gives up less makespan
  // than single-copy MH. Config pinned from the abl10 sweep (CCR 2).
  auto g = workloads::fork_join(12, 1.0, 8.0);
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = 1.0;
  p.bytes_per_second = 8.0;
  Machine m(machine::Topology::fully_connected(4), p);

  const auto mh = sched::MhScheduler().run(g, m);
  const auto dsh = sched::DshScheduler().run(g, m);
  ASSERT_GT(dsh.num_duplicates(), 0);

  const auto mh_report =
      core::run_with_faults(g, m, mh, fault::plan_crash_busiest(mh, 0.5));
  const auto dsh_report =
      core::run_with_faults(g, m, dsh, fault::plan_crash_busiest(dsh, 0.5));
  EXPECT_GE(mh_report.recovery_overhead, 0.0);
  EXPECT_GE(dsh_report.recovery_overhead, 0.0);
  EXPECT_LT(dsh_report.recovery_overhead, mh_report.recovery_overhead);
}

// -------------------------------------------------------------- overlays

TEST(Viz, OverlayMarksCrashesAndReexecutions) {
  auto g = workloads::chain_graph(2, 1.0, 8.0);
  sched::Schedule s(2, "manual");
  s.place(0, 0, 0.0, 1.0);
  s.place(1, 1, 2.0, 3.0);
  viz::FaultOverlay overlay;
  overlay.crashes.push_back({0, 1.5});
  overlay.reexecuted.push_back(1);

  const auto ascii = viz::render_gantt(s, g, overlay);
  EXPECT_NE(ascii.find('X'), std::string::npos);
  EXPECT_NE(ascii.find("processor crash"), std::string::npos);
  EXPECT_NE(ascii.find("re-executed after crash"), std::string::npos);

  const auto svg = viz::render_gantt_svg(s, g, overlay);
  EXPECT_NE(svg.find("#cc0000"), std::string::npos);
  EXPECT_NE(svg.find("crashed at t="), std::string::npos);
}

// ----------------------------------------------------- executor rescue

Machine exec_machine(int procs) {
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = 0.01;
  p.bytes_per_second = 1e6;
  return Machine(machine::Topology::fully_connected(procs), p);
}

std::map<std::string, pits::Value> lu_inputs() {
  using pits::Value;
  using pits::Vector;
  return {{"A", Value(Vector{4, 3, 2, 8, 8, 5, 4, 7, 9})},
          {"b", Value(Vector{16, 39, 45})}};
}

TEST(ExecFault, SurvivorsRescueACrashedWorker) {
  auto flat = workloads::lu3x3_design().flatten();
  auto m = exec_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);

  // Crash the processor owning the latest-starting placement right at
  // that scheduled start: the placement is guaranteed to be orphaned.
  const auto& pls = schedule.placements();
  const auto last = std::max_element(
      pls.begin(), pls.end(),
      [](const sched::Placement& a, const sched::Placement& b) {
        return a.start < b.start;
      });
  ASSERT_EQ(last->proc, 1);
  const auto plan = fault::plan_crash(last->proc, last->start);

  exec::Executor executor(flat, m);
  exec::RunOptions opts;
  opts.faults = &plan;
  const auto seq = exec::run_sequential(flat, lu_inputs());
  // The rescue is wired before the run, so every repetition rescues the
  // same stage on the same survivor (processor 0, the lowest whose lane
  // did not crash).
  for (int round = 0; round < 20; ++round) {
    const auto par = executor.run(schedule, lu_inputs(), opts);
    EXPECT_EQ(par.outputs, seq.outputs);
    EXPECT_EQ(par.stores, seq.stores);
    EXPECT_EQ(par.workers_died, 1);
    EXPECT_EQ(par.tasks_rescued, 1u);
    ASSERT_EQ(par.runs.size(), 9u);
    EXPECT_GT(par.recovery_overhead_seconds, 0.0);
    for (const exec::TaskRun& r : par.runs) {
      if (r.task == last->task) {
        EXPECT_TRUE(r.rescued);
        EXPECT_EQ(r.proc, 0);
      } else {
        EXPECT_FALSE(r.rescued);
      }
    }
  }
}

TEST(ExecFault, AllWorkersDeadFails) {
  auto flat = workloads::lu3x3_design().flatten();
  auto m = exec_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  fault::FaultPlan plan("total");
  for (ProcId p = 0; p < 3; ++p) plan.add_crash(p, 0.0);
  exec::Executor executor(flat, m);
  exec::RunOptions opts;
  opts.faults = &plan;
  try {
    (void)executor.run(schedule, lu_inputs(), opts);
    FAIL() << "expected every worker to crash";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Runtime);
    EXPECT_EQ(e.message(), "all capable workers crashed: 9 tasks never executed");
  }
  // Crashing each processor at its last scheduled start strands just
  // those last placements; the count names them.
  fault::FaultPlan tails("tails");
  int lanes_used = 0;
  for (ProcId p = 0; p < 3; ++p) {
    const auto lane = schedule.lane(p);
    if (lane.empty()) continue;
    tails.add_crash(p, lane.back().start);
    ++lanes_used;
  }
  opts.faults = &tails;
  try {
    (void)executor.run(schedule, lu_inputs(), opts);
    FAIL() << "expected every worker to crash";
  } catch (const Error& e) {
    EXPECT_EQ(e.message(), "all capable workers crashed: " +
                               std::to_string(lanes_used) +
                               " tasks never executed");
  }
}

TEST(ExecFault, CrashOnDuplicatingScheduleMatchesSequential) {
  // DSH duplicates on an expensive network; crashing the busiest lane
  // halfway strands primaries and duplicate copies alike.
  auto g = workloads::fork_join(6, 0.05, 8.0);
  workloads::synthesize_pits(g);
  auto flat = workloads::as_flatten(std::move(g));
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = 2.0;
  Machine m(machine::Topology::fully_connected(4), p);
  const auto schedule = sched::DshScheduler().run(flat.graph, m);
  ASSERT_GT(schedule.num_duplicates(), 0);
  const auto plan = fault::plan_crash_busiest(schedule, 0.5);

  exec::Executor executor(flat, m);
  exec::RunOptions opts;
  opts.faults = &plan;
  const auto seq = exec::run_sequential(flat, {});
  const auto par = executor.run(schedule, {}, opts);
  EXPECT_EQ(par.outputs, seq.outputs);
  EXPECT_EQ(par.stores, seq.stores);
  EXPECT_EQ(par.workers_died, 1);
  EXPECT_GT(par.tasks_rescued, 0u);
  EXPECT_EQ(par.runs.size(), schedule.placements().size());
  // The rescuer is the lowest-numbered processor whose lane survived.
  const ProcId crashed = plan.crashes().front().proc;
  ASSERT_EQ(crashed, 0);
  ASSERT_FALSE(schedule.lane(3).empty());
  for (const exec::TaskRun& r : par.runs) {
    if (r.rescued) EXPECT_EQ(r.proc, 1);
  }
}

TEST(ExecFault, EmptyPlanChangesNothing) {
  auto flat = workloads::lu3x3_design().flatten();
  auto m = exec_machine(3);
  const auto schedule = sched::MhScheduler().run(flat.graph, m);
  exec::Executor executor(flat, m);
  fault::FaultPlan empty;
  exec::RunOptions opts;
  opts.faults = &empty;
  const auto par = executor.run(schedule, lu_inputs(), opts);
  const auto seq = exec::run_sequential(flat, lu_inputs());
  EXPECT_EQ(par.outputs.at("x"), seq.outputs.at("x"));
  EXPECT_EQ(par.workers_died, 0);
  EXPECT_EQ(par.tasks_rescued, 0u);
}

}  // namespace
}  // namespace banger

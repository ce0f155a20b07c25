// Differential tests for batched trial runs: run_trials must produce,
// for every input set in the batch, exactly what run_sequential produces
// for the same input — same outputs, same stores, same transcript, same
// task order, same error text — across step limits, error inputs
// mid-batch, and every --jobs value. Both must also bind task inputs the
// way an independent Env-binding runner on the reference walker does.
// The batch path reuses compiled programs and VM frames; these tests are
// what keep that reuse observationally invisible.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/executor.hpp"
#include "exec/plan.hpp"
#include "reference_walker.hpp"
#include "util/strings.hpp"
#include "workloads/designs.hpp"
#include "workloads/lu.hpp"

namespace banger::exec {
namespace {

using pits::Value;
using pits::Vector;

std::map<std::string, Value> lu_inputs(double scale) {
  // Same system as exec_test's lu_inputs, with b scaled so each trial
  // solves for a different (still exact) x.
  return {{"A", Value(Vector{4, 3, 2, 8, 8, 5, 4, 7, 9})},
          {"b", Value(Vector{scale * 16, scale * 39, scale * 45})}};
}

std::vector<std::map<std::string, Value>> lu_batch(int n) {
  std::vector<std::map<std::string, Value>> batch;
  batch.reserve(n);
  for (int i = 0; i < n; ++i) {
    batch.push_back(lu_inputs(1.0 + 0.5 * i));
  }
  return batch;
}

/// Every observable field except wall-clock times.
void expect_same_run(const RunResult& got, const RunResult& want,
                     const std::string& label) {
  EXPECT_EQ(got.outputs, want.outputs) << label;
  EXPECT_EQ(got.stores, want.stores) << label;
  EXPECT_EQ(got.transcript, want.transcript) << label;
  ASSERT_EQ(got.runs.size(), want.runs.size()) << label;
  for (std::size_t i = 0; i < got.runs.size(); ++i) {
    EXPECT_EQ(got.runs[i].task, want.runs[i].task) << label << " run " << i;
  }
}

/// Does the (possibly comma-joined) edge variable list carry `var`?
bool edge_carries(const std::string& edge_var, const std::string& var) {
  for (const auto part : util::split(edge_var, ',')) {
    if (util::trim(part) == var) return true;
  }
  return false;
}

/// A test-side sequential runner, sharing no code with the executor's
/// plan: every task once in topological order, each input bound into an
/// Env in the order InputBinding documents — a labelled in-edge whose
/// producer declares the variable, then any producing predecessor, then
/// an external input store — and each routine run on the reference
/// walker. It checks the executor's slot binding from the outside.
RunResult reference_run(const FlattenResult& flat,
                        const std::map<std::string, Value>& inputs) {
  const graph::TaskGraph& g = flat.graph;
  const auto declares = [&g](TaskId t, const std::string& var) {
    const auto& outs = g.task(t).outputs;
    return std::find(outs.begin(), outs.end(), var) != outs.end();
  };
  std::vector<pits::Env> produced(g.num_tasks());  // declared outputs only
  RunResult result;
  for (const TaskId t : g.topo_order()) {
    const graph::Task& task = g.task(t);
    pits::Env env;
    for (const std::string& var : task.inputs) {
      const Value* value = nullptr;
      for (const graph::EdgeId e : g.in_edges(t)) {
        const graph::Edge& edge = g.edge(e);
        if (edge_carries(edge.var, var) && declares(edge.from, var)) {
          value = &produced[edge.from].at(var);
          break;
        }
      }
      for (const graph::EdgeId e : g.in_edges(t)) {
        if (value != nullptr) break;
        if (declares(g.edge(e).from, var)) {
          value = &produced[g.edge(e).from].at(var);
        }
      }
      if (value == nullptr) {
        const graph::FlatStore* store = flat.find_store(var);
        const auto it = inputs.find(var);
        if (store == nullptr || !store->writers.empty() || it == inputs.end()) {
          throw std::runtime_error("reference_run: no value for `" + var + "`");
        }
        value = &it->second;
      }
      env[var] = *value;
    }
    TaskRun run;
    run.task = t;
    result.runs.push_back(run);
    if (util::trim(task.pits).empty()) continue;
    std::ostringstream transcript;
    pits::ExecOptions options;
    options.seed = seed_for(task.name, options.seed);
    options.out = &transcript;
    pits::reference::walk(pits::Program::parse(task.pits), env, options);
    for (const std::string& var : task.outputs) {
      produced[t][var] = env.at(var);
    }
    if (!transcript.str().empty()) {
      result.transcript += "[" + task.name + "]\n" + transcript.str();
    }
  }
  for (const graph::FlatStore& store : flat.stores) {
    if (store.writers.empty()) {
      if (const auto it = inputs.find(store.var); it != inputs.end()) {
        result.stores[store.var] = it->second;
      }
      continue;
    }
    for (const TaskId w : store.writers) {
      if (declares(w, store.var)) {
        result.stores[store.var] = produced[w].at(store.var);
      }
    }
    if (store.readers.empty() && result.stores.contains(store.var)) {
      result.outputs[store.var] = result.stores.at(store.var);
    }
  }
  return result;
}

TEST(Batch, MatchesOneShot) {
  const auto flat = workloads::lu3x3_design().flatten();
  const auto batch = lu_batch(8);
  const auto outcomes = run_trials(flat, batch);
  ASSERT_EQ(outcomes.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
    expect_same_run(outcomes[i].result, run_sequential(flat, batch[i]),
                    "trial " + std::to_string(i));
  }
}

TEST(Batch, SlotBindingMatchesTheEnvReferenceRunner) {
  std::vector<std::map<std::string, Value>> rods;
  for (int t = 0; t < 6; ++t) {
    Vector rod(3 * 8, 0.0);
    rod[static_cast<std::size_t>(t) * 4] = 100.0;
    rods.push_back({{"rod", Value(rod)}});
  }
  const std::pair<graph::FlattenResult,
                  std::vector<std::map<std::string, Value>>>
      cases[] = {{workloads::heat_design(3, 6, 8).flatten(), rods},
                 {workloads::lu3x3_design().flatten(), lu_batch(8)}};
  for (const auto& [flat, batch] : cases) {
    const auto outcomes = run_trials(flat, batch);
    ASSERT_EQ(outcomes.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
      const RunResult want = reference_run(flat, batch[i]);
      EXPECT_FALSE(want.outputs.empty());
      expect_same_run(outcomes[i].result, want,
                      flat.graph.task(0).name + " trial " + std::to_string(i));
    }
  }
}

TEST(Batch, ErrorMidBatchDoesNotPoisonNeighbours) {
  const auto flat = workloads::lu3x3_design().flatten();
  auto batch = lu_batch(5);
  batch[2]["A"] = Value(Vector{0, 3, 2, 8, 8, 5, 4, 7, 9});  // zero pivot
  const auto outcomes = run_trials(flat, batch);
  ASSERT_EQ(outcomes.size(), 5u);
  for (const std::size_t i : {0u, 1u, 3u, 4u}) {
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
    expect_same_run(outcomes[i].result, run_sequential(flat, batch[i]),
                    "trial " + std::to_string(i));
  }
  // The failed trial reports exactly what the one-shot run throws.
  EXPECT_FALSE(outcomes[2].ok);
  try {
    (void)run_sequential(flat, batch[2]);
    FAIL() << "expected division by zero";
  } catch (const Error& e) {
    EXPECT_EQ(outcomes[2].error_code, e.code());
    EXPECT_EQ(outcomes[2].error, e.message());
    EXPECT_EQ(outcomes[2].error_pos.line, e.pos().line);
    EXPECT_EQ(outcomes[2].error_pos.column, e.pos().column);
  }
}

TEST(Batch, MissingExternalInputMatchesOneShotError) {
  const auto flat = workloads::lu3x3_design().flatten();
  std::vector<std::map<std::string, Value>> batch = {
      lu_inputs(1.0), {{"A", Value(Vector{1})}}};
  const auto outcomes = run_trials(flat, batch);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok);
  ASSERT_FALSE(outcomes[1].ok);
  try {
    (void)run_sequential(flat, batch[1]);
    FAIL() << "expected missing-input error";
  } catch (const Error& e) {
    EXPECT_EQ(outcomes[1].error_code, e.code());
    EXPECT_EQ(outcomes[1].error, e.message());
  }
}

TEST(Batch, StepLimitMatchesOneShotAtEveryThreshold) {
  // Sweep limits from "everything aborts" to "everything fits": at each
  // threshold the batched outcome — success or the Limit error with the
  // task name — must be exactly the one-shot outcome. step_limit=2 must
  // abort (every LU task body has >2 statements).
  const auto flat = workloads::lu3x3_design().flatten();
  const auto batch = lu_batch(3);
  bool saw_abort = false;
  for (const std::uint64_t limit : {1u, 2u, 5u, 10u, 200000u}) {
    RunOptions options;
    options.pits.step_limit = limit;
    const auto outcomes = run_trials(flat, batch, options);
    ASSERT_EQ(outcomes.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::string label =
          "limit " + std::to_string(limit) + " trial " + std::to_string(i);
      try {
        const auto one = run_sequential(flat, batch[i], options);
        ASSERT_TRUE(outcomes[i].ok) << label << ": " << outcomes[i].error;
        expect_same_run(outcomes[i].result, one, label);
      } catch (const Error& e) {
        saw_abort = true;
        ASSERT_FALSE(outcomes[i].ok) << label;
        EXPECT_EQ(outcomes[i].error_code, e.code()) << label;
        EXPECT_EQ(outcomes[i].error, e.message()) << label;
      }
    }
  }
  EXPECT_TRUE(saw_abort) << "no limit in the sweep aborted anything";
}

TEST(Batch, JobsValueNeverChangesResults) {
  const auto flat = workloads::lu3x3_design().flatten();
  auto batch = lu_batch(16);
  batch[7]["A"] = Value(Vector{0, 3, 2, 8, 8, 5, 4, 7, 9});  // one failure
  const auto reference = run_trials(flat, batch, {}, /*jobs=*/1);
  for (const int jobs : {2, 3, 8, 0}) {  // 0 = all cores
    const auto outcomes = run_trials(flat, batch, {}, jobs);
    ASSERT_EQ(outcomes.size(), reference.size()) << "jobs " << jobs;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const std::string label =
          "jobs " + std::to_string(jobs) + " trial " + std::to_string(i);
      ASSERT_EQ(outcomes[i].ok, reference[i].ok) << label;
      if (outcomes[i].ok) {
        expect_same_run(outcomes[i].result, reference[i].result, label);
      } else {
        EXPECT_EQ(outcomes[i].error, reference[i].error) << label;
        EXPECT_EQ(outcomes[i].error_code, reference[i].error_code) << label;
      }
    }
  }
}

TEST(Batch, EmptyBatchIsEmpty) {
  const auto flat = workloads::lu3x3_design().flatten();
  EXPECT_TRUE(run_trials(flat, {}).empty());
}

TEST(Batch, TranscriptsStayPerTrial) {
  // montecarlo prints per-task seeds into the transcript; batched runs
  // reuse one transcript buffer per worker, which must never leak text
  // across trials. Identical inputs -> identical transcripts.
  const auto flat = workloads::montecarlo_design(3, 200).flatten();
  const std::vector<std::map<std::string, Value>> batch(4);
  const auto outcomes = run_trials(flat, batch, {}, /*jobs=*/2);
  const auto one = run_sequential(flat, {});
  ASSERT_EQ(outcomes.size(), 4u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].result.transcript, one.transcript)
        << "trial " << i;
    EXPECT_EQ(outcomes[i].result.outputs, one.outputs) << "trial " << i;
  }
}

}  // namespace
}  // namespace banger::exec

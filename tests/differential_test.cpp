// Differential testing: every corpus program must produce *identical*
// outputs through a sequential trial run and through a scheduled run
// under every scheduler. codegen_test runs the same corpus as one
// generated program beside `banger run`.
#include <gtest/gtest.h>

#include "exec/executor.hpp"
#include "pits_corpus.hpp"
#include "sched/heuristics.hpp"

namespace banger {
namespace {

/// Builds one flattened program with a task per corpus entry.
graph::FlattenResult corpus_flat() {
  graph::FlattenResult flat;
  int index = 0;
  for (const CorpusEntry& entry : kCorpus) {
    graph::Task t;
    t.name = entry.name;
    t.work = 1;
    const std::string out_var = "o" + std::to_string(index);
    t.pits = corpus_routine(entry, out_var);
    t.outputs = {out_var};
    const graph::TaskId id = flat.graph.add_task(std::move(t));

    graph::FlatStore store;
    store.name = out_var;
    store.var = out_var;
    store.writers = {id};
    flat.stores.push_back(store);
    ++index;
  }
  return flat;
}

TEST(Differential, CorpusRunsUnderEverySchedulerIdentically) {
  auto flat = corpus_flat();
  machine::MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = 0.01;
  machine::Machine m(machine::Topology::hypercube(2), p);
  const auto reference = exec::run_sequential(flat, {});
  for (const char* name : {"mh", "mcp", "dsh", "cluster", "roundrobin"}) {
    const auto schedule = sched::make_scheduler(name)->run(flat.graph, m);
    exec::Executor executor(flat, m);
    const auto result = executor.run(schedule, {});
    for (const auto& [var, value] : reference.outputs) {
      EXPECT_EQ(result.outputs.at(var), value) << name << " " << var;
    }
  }
}

}  // namespace
}  // namespace banger

#include "core/project.hpp"

#include "codegen/codegen.hpp"
#include "graph/analysis.hpp"
#include "graph/serialize.hpp"
#include "util/error.hpp"

namespace banger {

Project::Project(graph::Design design) : design_(std::move(design)) {
  flat_ = design_.validate();
}

Project Project::load(const std::string& path) {
  return Project(graph::load_design(path));
}

void Project::set_machine(machine::Machine machine) {
  machine_ = std::move(machine);
  schedule_cache_.clear();
}

const machine::Machine& Project::machine() const {
  if (!machine_) {
    fail(ErrorCode::Machine,
         "no target machine defined yet (workflow step 2)");
  }
  return *machine_;
}

const sched::Schedule& Project::schedule(const std::string& heuristic) const {
  auto it = schedule_cache_.find(heuristic);
  if (it != schedule_cache_.end()) return it->second;
  const auto scheduler = sched::make_scheduler(heuristic);
  sched::Schedule schedule = scheduler->run(flat_.graph, machine());
  schedule.validate(flat_.graph, machine());
  return schedule_cache_.emplace(heuristic, std::move(schedule)).first->second;
}

sched::ScheduleMetrics Project::metrics(const std::string& heuristic) const {
  return sched::compute_metrics(schedule(heuristic), flat_.graph, machine());
}

machine::Machine Project::resized_machine(int procs) const {
  const machine::Machine& base = machine();
  const machine::MachineParams params = base.params();
  using machine::Topology;
  using machine::TopologyKind;
  switch (base.topology().kind()) {
    case TopologyKind::Hypercube: {
      int dim = 0;
      while ((1 << dim) < procs) ++dim;
      return machine::Machine(Topology::hypercube(dim), params);
    }
    case TopologyKind::FullyConnected:
      return machine::Machine(Topology::fully_connected(procs), params);
    case TopologyKind::Star:
      return machine::Machine(Topology::star(procs), params);
    case TopologyKind::Ring:
      return machine::Machine(Topology::ring(std::max(procs, 3)), params);
    case TopologyKind::Chain:
      return machine::Machine(Topology::chain(procs), params);
    case TopologyKind::Mesh:
    case TopologyKind::Torus: {
      // Nearest rows x cols factorisation.
      int rows = 1;
      for (int r = 1; r * r <= procs; ++r)
        if (procs % r == 0) rows = r;
      const int cols = procs / rows;
      return machine::Machine(base.topology().kind() == TopologyKind::Mesh
                                  ? Topology::mesh(rows, cols)
                                  : Topology::torus(rows, cols),
                              params);
    }
    case TopologyKind::Tree:
      return machine::Machine(Topology::tree(2, procs), params);
    case TopologyKind::Custom:
      fail(ErrorCode::Machine,
           "cannot resize a custom topology for speedup prediction");
  }
  fail(ErrorCode::Machine, "unknown topology kind");
}

sched::SpeedupCurve Project::speedup(const std::vector<int>& sizes,
                                     const std::string& heuristic,
                                     int jobs) const {
  const auto scheduler = sched::make_scheduler(heuristic);
  return sched::predict_speedup(
      flat_.graph, *scheduler,
      [this](int procs) { return resized_machine(procs); }, sizes, jobs);
}

sim::SimResult Project::simulate(const std::string& heuristic,
                                 const sim::SimOptions& options) const {
  return sim::simulate(flat_.graph, machine(), schedule(heuristic), options);
}

exec::RunResult Project::trial_run(
    const std::map<std::string, pits::Value>& inputs,
    const exec::RunOptions& options) const {
  return exec::run_sequential(flat_, inputs, options);
}

std::vector<exec::TrialOutcome> Project::trial_runs(
    const std::vector<std::map<std::string, pits::Value>>& inputs,
    const exec::RunOptions& options, int jobs) const {
  return exec::run_trials(flat_, inputs, options, jobs);
}

exec::RunResult Project::run(const std::map<std::string, pits::Value>& inputs,
                             const std::string& heuristic,
                             const exec::RunOptions& options) const {
  exec::Executor executor(flat_, machine());
  return executor.run(schedule(heuristic), inputs, options);
}

exec::StreamResult Project::run_stream(
    const std::vector<std::map<std::string, pits::Value>>& batches,
    const std::string& heuristic, const exec::StreamOptions& options) const {
  return exec::run_stream(flat_, schedule(heuristic), machine(), batches,
                          options);
}

std::string Project::generate_code(
    const std::map<std::string, pits::Value>& inputs,
    const std::string& heuristic) const {
  return codegen::generate_cpp(design_, flat_.graph, machine(),
                               schedule(heuristic), inputs);
}

Project::DesignSummary Project::summary() const {
  DesignSummary s;
  s.leaf_tasks = flat_.graph.num_tasks();
  s.edges = flat_.graph.num_edges();
  s.stores = flat_.stores.size();
  s.depth = design_.depth();
  s.total_work = flat_.graph.total_work();
  const auto cost = graph::CostModel::from_work(flat_.graph);
  s.critical_path_work = graph::critical_path_length(flat_.graph, cost);
  s.average_parallelism = graph::average_parallelism(flat_.graph);
  return s;
}

}  // namespace banger

// lu_solver — the paper's running example end to end: the Fig. 1
// hierarchical LU design solving Ax = b, with schedule feedback,
// discrete-event replay, real parallel execution, and C++ code
// generation (the paper's promised final step).
//
// Usage: ./build/examples/lu_solver [procs=4] [emit-code]
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/project.hpp"
#include "graph/serialize.hpp"
#include "viz/charts.hpp"
#include "viz/gantt.hpp"
#include "workloads/lu.hpp"

int main(int argc, char** argv) {
  using namespace banger;
  using pits::Value;
  using pits::Vector;

  int procs = 4;
  bool emit_code = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "emit-code") == 0) {
      emit_code = true;
    } else {
      procs = std::max(1, std::atoi(argv[i]));
    }
  }

  Project project(workloads::lu3x3_design());
  std::puts("the design, as the editor would save it (.pitl):\n");
  std::fputs(graph::to_pitl(project.design()).c_str(), stdout);

  machine::MachineParams params;
  params.processor_speed = 1.0;
  params.message_startup = 0.05;
  params.bytes_per_second = 512;
  int dim = 0;
  while ((1 << dim) < procs) ++dim;
  project.set_machine(
      machine::Machine(machine::Topology::hypercube(dim), params));

  std::printf("\n--- schedule on a %d-processor hypercube ---\n",
              1 << dim);
  std::fputs(viz::render_gantt(project.schedule(),
                               project.flattened().graph)
                 .c_str(),
             stdout);

  const auto sim = project.simulate();
  std::printf("\nsimulated makespan %.3fs (%zu messages)\n", sim.makespan,
              sim.num_messages);
  std::puts("first simulation events:");
  std::fputs(sim.animation(8).c_str(), stdout);

  // Solve A x = b with A = [[4,3,2],[8,8,5],[4,7,9]], x = [1,2,3].
  const std::map<std::string, Value> inputs = {
      {"A", Value(Vector{4, 3, 2, 8, 8, 5, 4, 7, 9})},
      {"b", Value(Vector{16, 39, 45})}};
  const auto run = project.run(inputs);
  std::printf("\nsolution x = %s  (wall %.4fs on real threads)\n",
              run.outputs.at("x").to_display().c_str(), run.wall_seconds);
  std::printf("L = %s\n", run.stores.at("L").to_display().c_str());
  std::printf("U = %s\n", run.stores.at("U").to_display().c_str());

  const auto curve = project.speedup({1, 2, 4, 8});
  std::puts("");
  std::fputs(viz::render_speedup_chart(curve).c_str(), stdout);

  if (emit_code) {
    const std::string path = "lu_generated.cpp";
    std::ofstream(path) << project.generate_code(inputs);
    std::printf(
        "\nwrote %s — build it as a CMake target linked to banger_cli "
        "(docs/cli.md)\n",
        path.c_str());
  }
  return 0;
}

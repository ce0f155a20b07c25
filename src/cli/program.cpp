#include "cli/program.hpp"

#include <exception>
#include <ostream>

#include "graph/serialize.hpp"
#include "machine/serialize.hpp"
#include "sched/serialize.hpp"
#include "serve/render.hpp"

namespace banger::cli {

int report_errors(std::ostream& err, const std::function<int()>& command) {
  try {
    return command();
  } catch (const Error& e) {
    err << "banger: " << e.what() << "\n";
    return e.code() == ErrorCode::Usage ? 2 : 1;
  } catch (const std::exception& e) {
    err << "banger: " << e.what() << "\n";
    return 1;
  }
}

exec::RunResult run_scheduled(const graph::FlattenResult& flat,
                              const machine::Machine& machine,
                              const sched::Schedule& schedule,
                              const std::map<std::string, pits::Value>& inputs,
                              const exec::RunOptions& options,
                              std::ostream& out) {
  exec::Executor executor(flat, machine);
  exec::RunResult result = executor.run(schedule, inputs, options);
  out << serve::render_run_result(result, /*include_wall=*/true);
  return result;
}

int run_program(std::string_view design_text, std::string_view machine_text,
                std::string_view schedule_text,
                const std::map<std::string, pits::Value>& inputs,
                std::ostream& out, std::ostream& err) {
  return report_errors(err, [&] {
    const graph::FlattenResult flat =
        graph::parse_design(design_text).validate();
    const machine::Machine target = machine::parse_machine(machine_text);
    const sched::Schedule schedule =
        sched::parse_schedule(schedule_text, flat.graph);
    schedule.validate(flat.graph, target);
    run_scheduled(flat, target, schedule, inputs, {}, out);
    return 0;
  });
}

}  // namespace banger::cli

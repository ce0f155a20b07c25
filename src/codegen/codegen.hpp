// banger/codegen/codegen.hpp
//
// The program generator the paper promised ("code generators will
// provide a final step in producing a production-level parallel
// program"). A generated program is the scheduled design as data: the
// design's `.pitl` text, the machine's `.machine` text, the schedule's
// `.sched` text and the input values, each held exactly, plus a main()
// that hands them to cli::run_program. banger's own engine then parses
// them back, validates the schedule, runs it as `banger run` does and
// prints what `banger run` prints, errors and exit status included.
//
// The file builds as a CMake target linked to banger_cli (docs/cli.md).
#pragma once

#include <map>
#include <string>

#include "graph/design.hpp"
#include "machine/machine.hpp"
#include "pits/value.hpp"
#include "sched/schedule.hpp"

namespace banger::codegen {

/// Writes the program that runs `schedule` of `design` on `machine`
/// with `inputs`. `graph` is the design's flattening, the graph the
/// schedule was made for; it names the schedule's tasks. Missing or
/// unused inputs are the run's business, reported as `banger run`
/// reports them.
std::string generate_cpp(const graph::Design& design,
                         const graph::TaskGraph& graph,
                         const machine::Machine& machine,
                         const sched::Schedule& schedule,
                         const std::map<std::string, pits::Value>& inputs);

}  // namespace banger::codegen

// banger/cli/program.hpp
//
// How `banger run` ends, shared by the CLI and by every program
// `banger codegen` writes. A generated program is a scheduled design as
// data (codegen/codegen.hpp); its main() is one call to run_program,
// which reads that data back and runs it on the same engine, so it
// prints what `banger run` prints, errors and exit status included.
//
// Kept apart from cli.cpp so a generated program does not link the
// other commands.
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "exec/executor.hpp"
#include "pits/value.hpp"

namespace banger::cli {

/// Runs `command` and returns its exit status. An Error or
/// std::exception it throws is printed on `err` as `banger: <what>` and
/// gives status 2 for a usage error and 1 otherwise.
int report_errors(std::ostream& err, const std::function<int()>& command);

/// Runs `schedule` on worker threads (exec::Executor::run) and prints
/// the result the way `banger run` does. The result is returned for the
/// fault-plan footer.
exec::RunResult run_scheduled(const graph::FlattenResult& flat,
                              const machine::Machine& machine,
                              const sched::Schedule& schedule,
                              const std::map<std::string, pits::Value>& inputs,
                              const exec::RunOptions& options,
                              std::ostream& out);

/// A generated program's main(): parses the `.pitl`, `.machine` and
/// `.sched` texts, validates the schedule against the design and the
/// machine, runs it with run_scheduled and returns `banger run`'s exit
/// status. Errors go to `err` as report_errors prints them.
int run_program(std::string_view design_text, std::string_view machine_text,
                std::string_view schedule_text,
                const std::map<std::string, pits::Value>& inputs,
                std::ostream& out, std::ostream& err);

}  // namespace banger::cli

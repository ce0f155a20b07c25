#include "sched/serialize.hpp"

#include <charconv>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace banger::sched {

namespace {

double parse_num(std::string_view s, int line) {
  double value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    fail(ErrorCode::Parse, "bad number `" + std::string(s) + "`", {line, 1});
  }
  return value;
}

}  // namespace

std::string to_text(const Schedule& schedule, const TaskGraph& graph) {
  std::ostringstream out;
  out << "schedule " << (schedule.scheduler_name().empty()
                             ? "unnamed"
                             : schedule.scheduler_name())
      << " procs=" << schedule.num_procs() << "\n";
  auto rows = schedule.placements();
  for (const Placement& p : rows) {
    out << "place " << graph.task(p.task).name << " proc=" << p.proc
        << " start=" << util::format_double(p.start, 17)
        << " finish=" << util::format_double(p.finish, 17);
    if (p.duplicate) out << " dup";
    out << "\n";
  }
  return out.str();
}

Schedule parse_schedule(std::string_view text, const TaskGraph& graph) {
  Schedule schedule;
  bool have_header = false;
  int lineno = 0;
  for (auto raw : util::split(text, '\n')) {
    ++lineno;
    auto hash = raw.find('#');
    if (hash != std::string_view::npos) raw = raw.substr(0, hash);
    const auto line = util::trim(raw);
    if (line.empty()) continue;
    auto tokens = util::split_ws(line);

    if (tokens[0] == "schedule") {
      if (have_header) {
        fail(ErrorCode::Parse, "duplicate schedule header", {lineno, 1});
      }
      if (tokens.size() != 3 || !util::starts_with(tokens[2], "procs=")) {
        fail(ErrorCode::Parse, "expected `schedule <name> procs=N`",
             {lineno, 1});
      }
      const int procs =
          static_cast<int>(parse_num(tokens[2].substr(6), lineno));
      schedule = Schedule(procs, std::string(tokens[1]));
      have_header = true;
      continue;
    }
    if (tokens[0] == "place") {
      if (!have_header) {
        fail(ErrorCode::Parse, "place before schedule header", {lineno, 1});
      }
      if (tokens.size() < 5) {
        fail(ErrorCode::Parse,
             "expected `place <task> proc=P start=S finish=F [dup]`",
             {lineno, 1});
      }
      const graph::TaskId task = graph.require(std::string(tokens[1]));
      machine::ProcId proc = -1;
      double start = -1;
      double finish = -1;
      bool dup = false;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i] == "dup") {
          dup = true;
        } else if (util::starts_with(tokens[i], "proc=")) {
          proc = static_cast<machine::ProcId>(
              parse_num(tokens[i].substr(5), lineno));
        } else if (util::starts_with(tokens[i], "start=")) {
          start = parse_num(tokens[i].substr(6), lineno);
        } else if (util::starts_with(tokens[i], "finish=")) {
          finish = parse_num(tokens[i].substr(7), lineno);
        } else {
          fail(ErrorCode::Parse,
               "unknown field `" + std::string(tokens[i]) + "`", {lineno, 1});
        }
      }
      schedule.place(task, proc, start, finish, dup);
      continue;
    }
    fail(ErrorCode::Parse, "unknown directive `" + std::string(tokens[0]) +
                               "`", {lineno, 1});
  }
  if (!have_header) {
    fail(ErrorCode::Parse, "missing schedule header");
  }
  return schedule;
}

void save_schedule(const Schedule& schedule, const TaskGraph& graph,
                   const std::string& path) {
  std::ofstream out(path);
  if (!out) fail(ErrorCode::Io, "cannot open `" + path + "` for writing");
  out << to_text(schedule, graph);
  if (!out) fail(ErrorCode::Io, "error writing `" + path + "`");
}

Schedule load_schedule(const std::string& path, const TaskGraph& graph) {
  return parse_schedule(util::read_file(path), graph);
}

}  // namespace banger::sched

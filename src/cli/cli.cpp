#include "cli/cli.hpp"

#include <fstream>
#include <iostream>
#include <istream>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>

#include "analyze/analyze.hpp"
#include "cli/program.hpp"
#include "core/html_report.hpp"
#include "core/lint.hpp"
#include "core/recovery.hpp"
#include "fault/fault.hpp"
#include "sched/compare.hpp"
#include "sched/explain.hpp"
#include "transform/transform.hpp"
#include "core/project.hpp"
#include "graph/serialize.hpp"
#include "machine/serialize.hpp"
#include "obs/trace.hpp"
#include "pits/interp.hpp"
#include "serve/render.hpp"
#include "serve/server.hpp"
#include "util/file.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "viz/charts.hpp"
#include "viz/dot.hpp"
#include "viz/gantt.hpp"
#include "viz/trace.hpp"

namespace banger::cli {

namespace {

struct Options {
  std::vector<std::string> positional;
  std::string scheduler = "mh";
  std::string format = "gantt";  // gantt | table | svg
  std::string output_file;
  std::vector<int> sizes{1, 2, 4, 8};
  std::map<std::string, pits::Value> inputs;
  std::string inputs_file;  ///< --inputs FILE: batched trials, one per line
  bool contention = false;
  std::size_t events = 20;
  std::string task;             ///< --task filter for explain
  std::string fault_plan_file;  ///< --fault-plan for simulate/run/faults
  std::string fail_on = "error";  ///< --fail-on threshold for check
  bool json = false;              ///< --json for lint
  int jobs = 0;    ///< --jobs worker threads (0 = BANGER_JOBS or all cores)
  int queue_cap = 8;  ///< --queue-cap stream inter-stage queue capacity
  int trials = 1;  ///< --trials Monte Carlo runs for faults
  std::string metrics_file;  ///< --metrics: write flat metrics JSON here
  // ---- serve options
  int port = -1;            ///< --port: TCP listen port (-1 = stdio mode)
  int max_inflight = 256;   ///< --max-inflight admission-control slots
  int deadline_ms = 0;      ///< --deadline-ms per-request deadline (0 = off)
  int cache_cap = 256;      ///< --cache-cap artifact cache entries
  bool serve_once = false;  ///< --once: answer one request and exit
};

[[noreturn]] void usage_error(const std::string& message) {
  // ErrorCode::Usage maps to exit status 2 (see run()).
  fail(ErrorCode::Usage, message + "\n" + usage());
}

/// Single checked parser for every numeric flag: rejects non-numeric
/// text, trailing junk, overflow, and values below `min_value`, naming
/// the offending flag and value in the diagnostic.
std::int64_t numeric_flag(const std::string& flag, std::string_view value,
                          std::int64_t min_value) {
  std::int64_t v = 0;
  if (!util::parse_int64(value, v)) {
    usage_error("option " + flag + " expects an integer, got `" +
                std::string(value) + "`");
  }
  // All numeric flags fit comfortably in int; anything bigger is a typo.
  constexpr std::int64_t kMax = std::numeric_limits<int>::max();
  if (v < min_value || v > kMax) {
    usage_error("option " + flag + " expects a value in [" +
                std::to_string(min_value) + ", " + std::to_string(kMax) +
                "], got `" + std::string(value) + "`");
  }
  return v;
}

Options parse_options(const std::vector<std::string>& args,
                      std::size_t first) {
  Options o;
  for (std::size_t i = first; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage_error("option " + a + " needs a value");
      return args[++i];
    };
    if (a == "--scheduler") {
      o.scheduler = next();
    } else if (a == "--format") {
      o.format = next();
      if (o.format != "gantt" && o.format != "table" && o.format != "svg" &&
          o.format != "trace" && o.format != "html" && o.format != "text" &&
          o.format != "json" && o.format != "sarif") {
        usage_error("unknown format `" + o.format + "`");
      }
    } else if (a == "-o" || a == "--output" || a == "--out") {
      o.output_file = next();
    } else if (a == "--metrics") {
      o.metrics_file = next();
    } else if (a == "--sizes") {
      o.sizes.clear();
      for (auto part : util::split(next(), ',')) {
        o.sizes.push_back(
            static_cast<int>(numeric_flag("--sizes", util::trim(part), 1)));
      }
      if (o.sizes.empty()) usage_error("--sizes needs at least one size");
    } else if (a == "--input") {
      const std::string& kv = next();
      auto eq = kv.find('=');
      if (eq == std::string::npos) {
        usage_error("--input expects VAR=EXPR, got `" + kv + "`");
      }
      const std::string var = kv.substr(0, eq);
      // The value is a PITS expression: numbers, vectors, formulas.
      o.inputs[var] = pits::eval_expression(kv.substr(eq + 1), {});
    } else if (a == "--inputs") {
      o.inputs_file = next();
    } else if (a == "--task") {
      o.task = next();
    } else if (a == "--fault-plan") {
      o.fault_plan_file = next();
    } else if (a == "--fail-on") {
      o.fail_on = next();
      if (o.fail_on != "warning" && o.fail_on != "error") {
        usage_error("--fail-on expects `warning` or `error`, got `" +
                    o.fail_on + "`");
      }
    } else if (a == "--json") {
      o.json = true;
    } else if (a == "--contention") {
      o.contention = true;
    } else if (a == "--events") {
      o.events = static_cast<std::size_t>(numeric_flag("--events", next(), 0));
    } else if (a == "--jobs") {
      o.jobs = static_cast<int>(numeric_flag("--jobs", next(), 1));
    } else if (a == "--queue-cap") {
      o.queue_cap = static_cast<int>(numeric_flag("--queue-cap", next(), 1));
    } else if (a == "--port") {
      const std::string& value = next();
      o.port = static_cast<int>(numeric_flag("--port", value, 0));
      if (o.port > 65535) {
        usage_error("option --port expects a port in [0, 65535], got `" +
                    value + "`");
      }
    } else if (a == "--max-inflight") {
      o.max_inflight =
          static_cast<int>(numeric_flag("--max-inflight", next(), 1));
    } else if (a == "--deadline-ms") {
      o.deadline_ms =
          static_cast<int>(numeric_flag("--deadline-ms", next(), 0));
    } else if (a == "--cache-cap") {
      o.cache_cap = static_cast<int>(numeric_flag("--cache-cap", next(), 1));
    } else if (a == "--once") {
      o.serve_once = true;
    } else if (a == "--trials") {
      o.trials = static_cast<int>(numeric_flag("--trials", next(), 1));
    } else if (!a.empty() && a[0] == '-') {
      usage_error("unknown option `" + a + "`");
    } else {
      o.positional.push_back(a);
    }
  }
  return o;
}

Project load_project(const Options& o, std::size_t index) {
  if (o.positional.size() <= index) {
    usage_error("missing design file argument");
  }
  return Project::load(o.positional[index]);
}

machine::Machine load_machine_arg(const Options& o, std::size_t index) {
  if (o.positional.size() <= index) {
    usage_error("missing machine file argument");
  }
  return machine::load_machine(o.positional[index]);
}

void write_or_print(const std::string& text, const Options& o,
                    std::ostream& out) {
  if (o.output_file.empty()) {
    out << text;
  } else {
    std::ofstream file(o.output_file);
    if (!file) fail(ErrorCode::Io, "cannot write `" + o.output_file + "`");
    file << text;
  }
}

int cmd_info(const Options& o, std::ostream& out) {
  Project project = load_project(o, 0);
  const auto s = project.summary();
  out << "design: " << project.design().name() << "\n"
      << "levels: " << project.design().num_graphs()
      << "  hierarchy depth: " << s.depth << "\n"
      << "leaf tasks: " << s.leaf_tasks << "  dependences: " << s.edges
      << "  stores: " << s.stores << "\n"
      << "total work: " << util::format_double(s.total_work) << "  critical path: "
      << util::format_double(s.critical_path_work)
      << "  average parallelism: "
      << util::format_double(s.average_parallelism, 4) << "\n";
  const auto& flat = project.flattened();
  out << "input stores:";
  for (std::size_t i : flat.input_stores()) out << ' ' << flat.stores[i].var;
  out << "\noutput stores:";
  for (std::size_t i : flat.output_stores()) out << ' ' << flat.stores[i].var;
  out << "\n";
  return 0;
}

int cmd_validate(const Options& o, std::ostream& out) {
  Project project = load_project(o, 0);  // ctor validates
  out << "ok: " << project.design().name() << " ("
      << project.summary().leaf_tasks << " leaf tasks)\n";
  return 0;
}

int cmd_flatten(const Options& o, std::ostream& out) {
  Project project = load_project(o, 0);
  const auto& flat = project.flattened();
  util::Table table;
  table.set_header({"task", "work", "preds"});
  for (graph::TaskId t = 0; t < flat.graph.num_tasks(); ++t) {
    std::string preds;
    for (graph::TaskId p : flat.graph.preds(t)) {
      if (!preds.empty()) preds += ",";
      preds += flat.graph.task(p).name;
    }
    table.add_row({flat.graph.task(t).name,
                   util::format_double(flat.graph.task(t).work), preds});
  }
  out << table.to_string();
  return 0;
}

int cmd_dot(const Options& o, std::ostream& out) {
  Project project = load_project(o, 0);
  write_or_print(viz::to_dot(project.design()), o, out);
  return 0;
}

int cmd_topo(const Options& o, std::ostream& out) {
  if (o.positional.empty()) usage_error("topo needs a kind");
  // Reuse the .machine topology grammar: "topology <kind> k=v...".
  std::string line = "topology";
  for (const auto& p : o.positional) line += ' ' + p;
  const auto machine = machine::parse_machine(line + "\n");
  const auto& t = machine.topology();
  out << t.name() << ": " << t.num_procs() << " processors, "
      << t.num_links() << " links, diameter " << t.diameter()
      << ", max degree " << t.max_degree() << ", avg hops "
      << util::format_double(t.average_distance(), 4) << "\n";
  out << viz::to_dot(t);
  return 0;
}

int cmd_schedule(const Options& o, std::ostream& out) {
  Project project = load_project(o, 0);
  project.set_machine(load_machine_arg(o, 1));
  // Shared with the serve daemon's `schedule` op — the service promises
  // responses byte-identical to this command.
  const auto r =
      serve::render_schedule(project.schedule(o.scheduler),
                             project.flattened().graph, project.machine(),
                             o.format);
  write_or_print(r.artifact, o, out);
  out << r.trailer;
  return 0;
}

int cmd_speedup(const Options& o, std::ostream& out) {
  Project project = load_project(o, 0);
  project.set_machine(load_machine_arg(o, 1));
  const auto curve = project.speedup(o.sizes, o.scheduler, o.jobs);
  util::Table table;
  table.set_header({"procs", "makespan", "speedup", "efficiency"});
  for (const auto& pt : curve.points) {
    table.add_row({std::to_string(pt.procs),
                   util::format_double(pt.makespan, 6),
                   util::format_double(pt.speedup, 4),
                   util::format_double(pt.efficiency, 4)});
  }
  out << table.to_string() << "\n"
      << viz::render_speedup_chart(curve);
  return 0;
}

int cmd_simulate(const Options& o, std::ostream& out) {
  Project project = load_project(o, 0);
  project.set_machine(load_machine_arg(o, 1));
  sim::SimOptions sim_opts;
  sim_opts.link_contention = o.contention;
  fault::FaultPlan plan;
  if (!o.fault_plan_file.empty()) {
    plan = fault::FaultPlan::load(o.fault_plan_file);
    sim_opts.faults = &plan;
  }
  const auto result = project.simulate(o.scheduler, sim_opts);
  if (!o.output_file.empty()) {
    // -o writes the Chrome trace of the replay for chrome://tracing.
    write_or_print(viz::to_chrome_trace(result, project.flattened().graph), o,
                   out);
  }
  out << "simulated makespan " << util::format_double(result.makespan, 6)
      << "s, " << result.num_messages << " messages, max queue delay "
      << util::format_double(result.max_queue_delay, 4) << "s\n";
  if (sim_opts.faults != nullptr) {
    out << "fault plan `" << plan.name() << "`: "
        << (result.complete ? "completed despite faults"
                            : "incomplete - work stranded")
        << ", " << result.killed.size() << " copies killed\n";
  }
  out << result.animation(o.events);
  return 0;
}

/// Parses a `--inputs FILE` batch: one trial per line, `VAR=EXPR` pairs
/// separated by `;`. Blank lines and `#` comments are skipped. An empty
/// pair list is a valid trial (a run with no external inputs). The file
/// is read in one pass; its lines are then split and evaluated on `jobs`
/// workers, each line into its own slot, so the first bad line in the
/// file is the one reported for any `jobs`. An expression's error names
/// the file and is positioned at its line and column there.
std::vector<std::map<std::string, pits::Value>> load_trial_inputs(
    const std::string& path, int jobs) {
  const std::string text = util::read_file(path);
  struct Line {
    std::string_view text;
    int number = 0;
  };
  std::vector<Line> lines;
  int line_no = 0;
  for (const std::string_view line : util::split(text, '\n')) {
    ++line_no;
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    lines.push_back({line, line_no});
  }
  std::vector<std::map<std::string, pits::Value>> batch(lines.size());
  util::parallel_for(lines.size(), jobs, [&](std::size_t i) {
    const Line& l = lines[i];
    for (auto part : util::split(util::trim(l.text), ';')) {
      const std::string_view pair = util::trim(part);
      if (pair.empty()) continue;
      const auto eq = pair.find('=');
      if (eq == std::string_view::npos) {
        fail(ErrorCode::Usage,
             "`" + path + "` line " + std::to_string(l.number) +
                 ": expected VAR=EXPR, got `" + std::string(pair) + "`");
      }
      const std::string_view expr = pair.substr(eq + 1);
      try {
        batch[i][std::string(util::trim(pair.substr(0, eq)))] =
            pits::eval_expression(expr, {});
      } catch (const Error& e) {
        // eval_expression counts from the expression's first character.
        const int column = static_cast<int>(expr.data() - l.text.data()) +
                           (e.pos().valid() ? e.pos().column : 1);
        fail(e.code(), "`" + path + "`: " + e.message(), {l.number, column});
      }
    }
  });
  return batch;
}

int cmd_trial(const Options& o, std::ostream& out) {
  Project project = load_project(o, 0);
  exec::RunOptions run_opts;
  if (!o.inputs_file.empty()) {
    if (!o.inputs.empty()) {
      usage_error("give either --input VAR=EXPR or --inputs FILE, not both");
    }
    const auto batch = load_trial_inputs(o.inputs_file, o.jobs);
    const serve::TrialBatchRender r = serve::render_trial_batch(
        project.trial_runs(batch, run_opts, o.jobs), o.jobs);
    out << r.text;
    return r.exit_code;
  }
  // No wall clock in trial output: the sequential reference run is
  // fully deterministic, and serve caches/replays the same bytes.
  out << serve::render_run_result(project.trial_run(o.inputs, run_opts),
                                  /*include_wall=*/false);
  return 0;
}

int cmd_run(const Options& o, std::ostream& out) {
  Project project = load_project(o, 0);
  project.set_machine(load_machine_arg(o, 1));
  exec::RunOptions run_opts;
  fault::FaultPlan plan;
  if (!o.fault_plan_file.empty()) {
    plan = fault::FaultPlan::load(o.fault_plan_file);
    run_opts.faults = &plan;
  }
  const auto result =
      run_scheduled(project.flattened(), project.machine(),
                    project.schedule(o.scheduler), o.inputs, run_opts, out);
  if (run_opts.faults != nullptr) {
    out << "fault plan `" << plan.name() << "`: " << result.workers_died
        << " workers died, " << result.tasks_rescued
        << " tasks rescued, recovery overhead "
        << util::format_double(result.recovery_overhead_seconds, 4) << "s\n";
  }
  return 0;
}

int cmd_stream(const Options& o, std::ostream& out, std::ostream& err) {
  Project project = load_project(o, 0);
  project.set_machine(load_machine_arg(o, 1));
  if (o.inputs_file.empty()) {
    usage_error("stream needs --inputs FILE (one batch per line)");
  }
  if (!o.inputs.empty()) {
    usage_error("give stream batches via --inputs FILE, not --input");
  }
  const auto batches = load_trial_inputs(o.inputs_file, o.jobs);
  exec::StreamOptions stream_opts;
  stream_opts.queue_capacity = static_cast<std::size_t>(o.queue_cap);
  stream_opts.jobs = o.jobs;
  const auto result = project.run_stream(batches, o.scheduler, stream_opts);
  // Batch output on stdout stays byte-identical to running each batch
  // through `banger run`; the execution report goes to stderr.
  const serve::TrialBatchRender r =
      serve::render_stream_batches(result.outcomes, o.jobs);
  out << r.text;
  err << result.report.render();
  return r.exit_code;
}

int cmd_faults(const Options& o, std::ostream& out) {
  Project project = load_project(o, 0);
  project.set_machine(load_machine_arg(o, 1));
  const auto& schedule = project.schedule(o.scheduler);
  const auto& graph = project.flattened().graph;

  fault::FaultPlan plan;
  if (!o.fault_plan_file.empty()) {
    plan = fault::FaultPlan::load(o.fault_plan_file);
  } else {
    // Default scenario: kill the busiest processor halfway through.
    plan = fault::plan_crash_busiest(schedule, 0.5);
  }

  core::FaultRunOptions opts;
  opts.sim.link_contention = o.contention;
  const auto report =
      core::run_with_faults(graph, project.machine(), schedule, plan, opts);

  viz::FaultOverlay overlay;
  for (const fault::CrashFault& c : plan.crashes()) {
    overlay.crashes.push_back({c.proc, c.at});
  }
  for (const sched::Placement& p : report.repair.new_placements) {
    overlay.reexecuted.push_back(p.task);
  }
  const sched::Schedule& shown =
      report.crashed ? report.repair.schedule : schedule;

  if (o.format == "svg") {
    write_or_print(viz::render_gantt_svg(shown, graph, overlay), o, out);
    return 0;
  }
  out << "fault plan `" << plan.name() << "` (seed " << plan.seed() << ") on "
      << schedule.scheduler_name() << " schedule\n";
  out << report.summary();
  if (o.trials > 1) {
    // Monte Carlo over the plan's stochastic outcomes: trial k runs
    // with seed + k, aggregated deterministically for any --jobs.
    core::FaultMonteCarloOptions mc;
    mc.trials = o.trials;
    mc.jobs = o.jobs;
    mc.run = opts;
    out << core::fault_monte_carlo(graph, project.machine(), schedule, plan,
                                   mc)
               .summary();
  }
  out << viz::render_gantt(shown, graph, overlay);
  if (o.events > 0) {
    sim::SimResult merged;
    merged.events = report.events;
    out << merged.animation(o.events);
  }
  return 0;
}

int cmd_trace(const Options& o, std::ostream& out) {
  // One Perfetto-loadable artifact: the planned schedule, the simulated
  // replay (with fault overlays when a plan is given), the scheduler's
  // internal rounds, and — under a fault plan — the recovery pipeline.
  // Only deterministic clock domains are exported, so the file is
  // byte-identical for any --jobs value. Rendering is shared with the
  // serve daemon's `trace` op; the ambient recorder is reused when
  // --metrics installed one, so the metrics file sees this command's
  // counters too.
  Project project = load_project(o, 0);
  project.set_machine(load_machine_arg(o, 1));

  sim::SimOptions sim_opts;
  sim_opts.link_contention = o.contention;
  std::optional<fault::FaultPlan> plan;
  if (!o.fault_plan_file.empty()) {
    plan = fault::FaultPlan::load(o.fault_plan_file);
  }
  const auto r = serve::render_trace(
      project.flattened().graph, project.machine(), o.scheduler, sim_opts,
      plan ? &*plan : nullptr, obs::current());
  write_or_print(r.artifact, o, out);
  if (!o.output_file.empty()) {
    out << "wrote " << r.events << " trace events to `" << o.output_file
        << "` (load in https://ui.perfetto.dev)\n";
  }
  return 0;
}

int cmd_report(const Options& o, std::ostream& out) {
  // One self-contained artifact: summary, lint, schedule, utilisation,
  // speedup, heuristic comparison — markdown by default, --format html
  // for the browser version with SVG charts.
  Project project = load_project(o, 0);
  project.set_machine(load_machine_arg(o, 1));
  if (o.format == "html") {
    HtmlReportOptions opts;
    opts.scheduler = o.scheduler;
    opts.speedup_sizes = o.sizes;
    write_or_print(render_html_report(project, opts), o, out);
    return 0;
  }
  std::ostringstream md;
  const auto s = project.summary();
  md << "# banger report: " << project.design().name() << "\n\n";
  md << "## Design\n\n"
     << "- leaf tasks: " << s.leaf_tasks << ", dependences: " << s.edges
     << ", stores: " << s.stores << "\n"
     << "- hierarchy depth: " << s.depth << "\n"
     << "- total work: " << util::format_double(s.total_work)
     << ", critical path: " << util::format_double(s.critical_path_work)
     << ", average parallelism: "
     << util::format_double(s.average_parallelism, 4) << "\n\n";

  md << "## Lint\n\n";
  const auto issues = lint_design(project.flattened());
  if (issues.empty()) {
    md << "clean\n\n";
  } else {
    for (const auto& issue : issues) md << "- " << issue.to_string() << "\n";
    md << "\n";
  }

  md << "## Schedule (" << o.scheduler << " on " << project.machine().name()
     << ")\n\n```\n"
     << viz::render_gantt(project.schedule(o.scheduler),
                          project.flattened().graph)
     << viz::render_utilization(project.schedule(o.scheduler)) << "```\n\n";

  md << "## Speedup prediction\n\n```\n";
  const auto curve = project.speedup(o.sizes, o.scheduler, o.jobs);
  md << viz::render_speedup_chart(curve) << "```\n\n";

  md << "## Heuristic comparison\n\n```\n";
  util::Table table;
  table.set_header({"scheduler", "makespan", "speedup", "duplicates"});
  const auto entries = sched::compare_schedulers(
      project.flattened().graph, project.machine(), sched::scheduler_names(),
      {}, o.jobs);
  for (const sched::CompareEntry& e : entries) {
    table.add_row({e.scheduler, util::format_double(e.metrics.makespan, 6),
                   util::format_double(e.metrics.speedup, 4),
                   std::to_string(e.metrics.duplicates)});
  }
  md << table.to_string() << "```\n";
  write_or_print(md.str(), o, out);
  return 0;
}

int cmd_explain(const Options& o, std::ostream& out) {
  Project project = load_project(o, 0);
  project.set_machine(load_machine_arg(o, 1));
  const auto& schedule = project.schedule(o.scheduler);
  out << sched::explain_report(schedule, project.flattened().graph,
                               project.machine(), o.task);
  return 0;
}

int cmd_grain(const Options& o, std::ostream& out) {
  Project project = load_project(o, 0);
  const machine::Machine machine = load_machine_arg(o, 1);
  const auto& graph = project.flattened().graph;
  const auto scheduler = sched::make_scheduler(o.scheduler);
  const auto before = scheduler->run(graph, machine);

  util::Table table;
  table.set_header({"min grain (s)", "tasks", "edges", "makespan",
                    "vs unpacked"});
  table.add_row({"(none)", std::to_string(graph.num_tasks()),
                 std::to_string(graph.num_edges()),
                 util::format_double(before.makespan(), 6), "1.0"});
  for (double grain : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    transform::GrainPackOptions opts;
    opts.min_grain_seconds = grain;
    opts.max_grain_seconds = grain * 4;
    const auto packed = transform::pack_grains(graph, machine, opts);
    const auto s = scheduler->run(packed.graph, machine);
    table.add_row({util::format_double(grain, 4),
                   std::to_string(packed.graph.num_tasks()),
                   std::to_string(packed.graph.num_edges()),
                   util::format_double(s.makespan(), 6),
                   util::format_double(s.makespan() / before.makespan(), 4)});
  }
  out << table.to_string();
  return 0;
}

int cmd_split(const Options& o, std::ostream& out) {
  Project project = load_project(o, 0);
  const machine::Machine machine = load_machine_arg(o, 1);
  const auto& graph = project.flattened().graph;
  const auto scheduler = sched::make_scheduler(o.scheduler);
  const auto before = scheduler->run(graph, machine);
  util::Table table;
  table.set_header({"split threshold (s)", "tasks", "makespan",
                    "vs unsplit"});
  table.add_row({"(none)", std::to_string(graph.num_tasks()),
                 util::format_double(before.makespan(), 6), "1.0"});
  for (double threshold : {16.0, 8.0, 4.0, 2.0, 1.0}) {
    const auto split =
        transform::split_heavy_tasks(graph, machine, threshold, 8);
    const auto s = scheduler->run(split.graph, machine);
    table.add_row({util::format_double(threshold, 4),
                   std::to_string(split.graph.num_tasks()),
                   util::format_double(s.makespan(), 6),
                   util::format_double(s.makespan() / before.makespan(), 4)});
  }
  out << table.to_string();
  out << "(planning transform: shards carry work and traffic shares, not"
         " PITS)\n";
  return 0;
}

int cmd_lint(const Options& o, std::ostream& out) {
  Project project = load_project(o, 0);
  if (o.json) {
    // Same interface-layer rules, rendered by the analysis engine's JSON
    // emitter (positions and rule codes included).
    analyze::AnalyzeOptions opts;
    opts.pits_rules = false;
    opts.determinacy_rules = false;
    const auto diagnostics =
        analyze::analyze_design(project.flattened(), opts);
    analyze::EmitOptions emit;
    emit.file = o.positional[0];
    write_or_print(analyze::emit_json(diagnostics, emit), o, out);
    return analyze::has_severity(diagnostics, analyze::Severity::Error) ? 1
                                                                        : 0;
  }
  const auto issues = lint_design(project.flattened());
  for (const LintIssue& issue : issues) {
    out << issue.to_string() << "\n";
  }
  if (issues.empty()) out << "clean: no issues found\n";
  return has_errors(issues) ? 1 : 0;
}

int cmd_check(const Options& o, std::ostream& out) {
  Project project = load_project(o, 0);
  // Shared with the serve daemon's `check` op (pass the same `file`
  // label there for byte-identical diagnostics).
  const auto r = serve::render_check(project.flattened(), o.format,
                                     o.fail_on, o.positional[0]);
  write_or_print(r.text, o, out);
  return r.exit_code;
}

int cmd_compare(const Options& o, std::ostream& out) {
  Project project = load_project(o, 0);
  project.set_machine(load_machine_arg(o, 1));
  const auto entries = sched::compare_schedulers(
      project.flattened().graph, project.machine(), sched::scheduler_names(),
      {}, o.jobs);
  util::Table table;
  table.set_header({"scheduler", "makespan", "speedup", "efficiency",
                    "procs used", "duplicates"});
  for (const sched::CompareEntry& e : entries) {
    const auto& m = e.metrics;
    table.add_row({e.scheduler, util::format_double(m.makespan, 6),
                   util::format_double(m.speedup, 4),
                   util::format_double(m.efficiency, 4),
                   std::to_string(m.procs_used),
                   std::to_string(m.duplicates)});
  }
  out << table.to_string();
  return 0;
}

int cmd_serve(const Options& o, std::istream& in, std::ostream& out,
              std::ostream& err) {
  serve::ServeOptions sopts;
  sopts.jobs = o.jobs;
  sopts.max_inflight = o.max_inflight;
  sopts.deadline_ms = o.deadline_ms;
  sopts.cache_capacity = static_cast<std::size_t>(o.cache_cap);
  serve::Server server(sopts);
  if (o.serve_once) {
    // Smoke-test mode: answer exactly one request from stdin and exit.
    std::string line;
    if (!std::getline(in, line)) return 0;
    out << server.handle_line(line) << "\n";
    return 0;
  }
  if (o.port >= 0) return server.serve_tcp(o.port, err);
  return server.serve_stream(in, out);
}

int cmd_codegen(const Options& o, std::ostream& out) {
  if (!o.fault_plan_file.empty()) {
    usage_error("codegen does not take --fault-plan: a generated program "
                "runs its schedule fault-free");
  }
  Project project = load_project(o, 0);
  project.set_machine(load_machine_arg(o, 1));
  write_or_print(project.generate_code(o.inputs, o.scheduler), o, out);
  return 0;
}

}  // namespace

std::string usage() {
  return
      "usage: banger <command> [arguments] [options]\n"
      "commands:\n"
      "  info     <design.pitl>                design summary\n"
      "  validate <design.pitl>                check a design\n"
      "  flatten  <design.pitl>                flattened task DAG\n"
      "  dot      <design.pitl>                Graphviz export\n"
      "  topo     <kind> key=value...          topology properties\n"
      "  schedule <design> <machine>           Gantt chart / table / SVG\n"
      "  speedup  <design> <machine>           speedup prediction\n"
      "  simulate <design> <machine>           discrete-event replay\n"
      "  trace    <design> <machine>           Perfetto/Chrome trace JSON of\n"
      "                                        schedule + replay + scheduler\n"
      "                                        internals (+ recovery with\n"
      "                                        --fault-plan); --out FILE\n"
      "  faults   <design> <machine>           crash injection + repair report\n"
      "  trial    <design>                     sequential trial run; --inputs\n"
      "                                        FILE batches many trials\n"
      "  run      <design> <machine>           threaded execution\n"
      "  stream   <design> <machine>           pipeline execution over a\n"
      "                                        stream of input batches\n"
      "                                        (--inputs FILE, one batch per\n"
      "                                        line); per-batch output on\n"
      "                                        stdout, execution report on\n"
      "                                        stderr\n"
      "  codegen  <design> <machine>           emit C++ that runs the scheduled\n"
      "                                        design on banger's engine\n"
      "  lint     <design.pitl>                interface diagnostics\n"
      "                                        (--json for machine output;\n"
      "                                        exits 1 when errors are found)\n"
      "  check    <design.pitl>                full static analysis: interface,\n"
      "                                        PITS dataflow, determinacy/races\n"
      "                                        (--format text|json|sarif,\n"
      "                                        --fail-on warning|error)\n"
      "  compare  <design> <machine>           all heuristics side by side\n"
      "  grain    <design> <machine>           grain-packing sweep\n"
      "  split    <design> <machine>           data-parallel split sweep\n"
      "  explain  <design> <machine>           placement rationale per task\n"
      "  report   <design> <machine>           one artifact of it all\n"
      "                                        (--format html for a browser page)\n"
      "  serve                                 long-lived design service:\n"
      "                                        JSON-lines requests on stdin\n"
      "                                        (or --port N for TCP), answered\n"
      "                                        concurrently with a content-\n"
      "                                        hashed artifact cache; --once\n"
      "                                        answers a single request\n"
      "options:\n"
      "  --scheduler NAME   mh|mcp|etf|hlfet|dls|dsh|cluster|serial|...\n"
      "  --input VAR=EXPR   bind an input store (PITS expression)\n"
      "  --inputs FILE      trial/stream: batched runs, one trial per line of\n"
      "                     `VAR=EXPR; VAR=EXPR` pairs (# comments allowed);\n"
      "                     compiles once, exits 1 if any trial fails\n"
      "  --sizes 1,2,4,8    processor counts for speedup\n"
      "  --format F         gantt|table|svg|trace (schedule);\n"
      "                     text|json|sarif (check)\n"
      "  --fail-on S        check exit threshold: warning|error (default error)\n"
      "  --json             lint: emit diagnostics as JSON\n"
      "  --contention       simulate per-link queueing\n"
      "  --fault-plan F     inject a .fault plan (simulate/run/faults;\n"
      "                     faults defaults to a busiest-proc crash)\n"
      "  --events N         simulation events to print\n"
      "  --jobs N           worker threads for compare/speedup/faults/report\n"
      "                     and batched trial --inputs runs\n"
      "                     (default: BANGER_JOBS env or all cores; results\n"
      "                     are identical for every value)\n"
      "  --trials N         faults: Monte Carlo over N seed-varied runs\n"
      "  --queue-cap N      stream: bounded inter-stage queue capacity in\n"
      "                     packets (default 8); backpressure, never loss\n"
      "  --metrics FILE     write a flat JSON metrics summary of the command\n"
      "                     (scheduler rounds, cache hits, sim/exec/recovery\n"
      "                     counters) to FILE\n"
      "  --port N           serve: listen on 127.0.0.1:N (0 = ephemeral;\n"
      "                     default: stdio JSON-lines mode)\n"
      "  --max-inflight N   serve: shed requests beyond N in flight (def 256)\n"
      "  --deadline-ms N    serve: shed requests queued longer than N ms\n"
      "  --cache-cap N      serve: artifact cache entries before LRU\n"
      "                     eviction (default 256)\n"
      "  --once             serve: answer one request and exit\n"
      "  -o, --out FILE     write main artifact to FILE\n"
      "exit status: 0 success, 1 user error, 2 usage error\n";
}

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  return run(args, std::cin, out, err);
}

int run(const std::vector<std::string>& args, std::istream& in,
        std::ostream& out, std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << usage();
    return args.empty() ? 2 : 0;
  }
  const std::string& command = args[0];
  return report_errors(err, [&] {
    const Options options = parse_options(args, 1);

    // --metrics installs an ambient recorder around the whole command;
    // every instrumented layer it exercises contributes counters.
    std::optional<obs::TraceRecorder> metrics_rec;
    std::optional<obs::ScopedRecorder> metrics_scope;
    if (!options.metrics_file.empty()) {
      metrics_rec.emplace();
      metrics_scope.emplace(*metrics_rec);
    }

    auto dispatch = [&]() -> int {
      if (command == "info") return cmd_info(options, out);
      if (command == "validate") return cmd_validate(options, out);
      if (command == "flatten") return cmd_flatten(options, out);
      if (command == "dot") return cmd_dot(options, out);
      if (command == "topo") return cmd_topo(options, out);
      if (command == "schedule") return cmd_schedule(options, out);
      if (command == "speedup") return cmd_speedup(options, out);
      if (command == "simulate") return cmd_simulate(options, out);
      if (command == "trace") return cmd_trace(options, out);
      if (command == "faults") return cmd_faults(options, out);
      if (command == "trial") return cmd_trial(options, out);
      if (command == "run") return cmd_run(options, out);
      if (command == "stream") return cmd_stream(options, out, err);
      if (command == "report") return cmd_report(options, out);
      if (command == "explain") return cmd_explain(options, out);
      if (command == "grain") return cmd_grain(options, out);
      if (command == "split") return cmd_split(options, out);
      if (command == "lint") return cmd_lint(options, out);
      if (command == "check") return cmd_check(options, out);
      if (command == "compare") return cmd_compare(options, out);
      if (command == "codegen") return cmd_codegen(options, out);
      if (command == "serve") return cmd_serve(options, in, out, err);
      err << "banger: unknown command `" << command << "`\n" << usage();
      return 2;
    };
    const int code = dispatch();

    if (metrics_rec) {
      metrics_scope.reset();
      std::ofstream file(options.metrics_file);
      if (!file) {
        fail(ErrorCode::Io,
             "cannot write `" + options.metrics_file + "`");
      }
      file << metrics_rec->metrics_json();
    }
    return code;
  });
}

}  // namespace banger::cli

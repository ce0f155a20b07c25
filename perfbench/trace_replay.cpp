// perfbench_trace: the benchmark's traced run.
//
// Replays one workload's generated inputs in-process through the public
// entry points the CLI and `banger serve` are built from, and times each
// layer on its own:
//
//   graph    parse_design, Design::validate, Design::flatten
//   analyze  analyze_design with one rule layer on at a time, emit_text
//   sched    make_scheduler(mh|etf|dsh)->run, Schedule::validate
//   pits     Program::parse, compute_facts, precompile, eval_expression
//   exec     run_sequential, Executor::run, run_trials, run_stream
//   render   render_schedule, render_run_result
//   serve    Json::parse/dump, fnv1a64, Server::handle_line
//
// Every call is one span (name, start, end, parent, operation id) kept
// in memory and written as JSON lines to --spans at exit. Counts come
// from the calls themselves, the stats they return (StreamReport,
// ProgramCache::Stats, ArtifactCache::Stats) and the obs counters an
// ambient recorder collects. The metrics go to stdout as one JSON
// object. Nothing inside the program is instrumented for this.
//
// usage: perfbench_trace --design D.pitl --machine M.machine
//                        --inputs FILE --requests FILE --spans OUT
//                        [--sched-design S.pitl]
//
// --sched-design times the schedulers on another design's graph (the
// serve workload's fresh-machine requests schedule its 4096-task graph).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/absint.hpp"
#include "analyze/analyze.hpp"
#include "exec/executor.hpp"
#include "exec/plan.hpp"
#include "exec/stream.hpp"
#include "graph/serialize.hpp"
#include "machine/serialize.hpp"
#include "obs/trace.hpp"
#include "pits/interp.hpp"
#include "sched/scheduler.hpp"
#include "serve/json.hpp"
#include "serve/render.hpp"
#include "serve/server.hpp"
#include "util/strings.hpp"

namespace {

using namespace banger;
using Inputs = std::map<std::string, pits::Value>;

constexpr int kReps = 5;  // spans per timed call; the median is reported
constexpr int kJobs = 4;  // run_trials / run_stream workers: the host's nproc

struct Span {
  std::string name;
  double start;
  double end;
  std::string parent;
  std::string op;
};

std::vector<Span> g_spans;

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs f once as a span and returns its wall time in milliseconds.
template <class F>
double timed(const std::string& name, const std::string& parent,
             const std::string& op, F&& f) {
  const double start = now();
  f();
  const double end = now();
  g_spans.push_back({name, start, end, parent, op});
  return (end - start) * 1000.0;
}

/// Median wall time (ms) of kReps spans of f.
template <class F>
double median_of(const std::string& name, const std::string& parent, F&& f) {
  std::vector<double> ms;
  for (int i = 0; i < kReps; ++i) {
    ms.push_back(timed(name, parent, name + "#" + std::to_string(i), f));
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!util::trim(line).empty()) lines.push_back(line);
  }
  return lines;
}

/// One `VAR=EXPR; VAR=EXPR` line, the `--inputs FILE` format.
Inputs parse_inputs(const std::string& line) {
  Inputs values;
  for (auto part : util::split(line, ';')) {
    const std::string_view pair = util::trim(part);
    if (pair.empty()) continue;
    const auto eq = pair.find('=');
    values[std::string(util::trim(pair.substr(0, eq)))] =
        pits::eval_expression(std::string(pair.substr(eq + 1)), {});
  }
  return values;
}

void write_spans(const std::string& path) {
  std::ofstream out(path);
  for (const Span& s : g_spans) {
    serve::Json j = serve::Json::object();
    j.add("name", serve::Json::string(s.name));
    j.add("start", serve::Json::number(s.start));
    j.add("end", serve::Json::number(s.end));
    j.add("parent", serve::Json::string(s.parent));
    j.add("op", serve::Json::string(s.op));
    out << j.dump() << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* required :
       {"--design", "--machine", "--inputs", "--requests", "--spans"}) {
    if (!args.contains(required)) {
      std::cerr << "perfbench_trace: missing " << required << "\n";
      return 2;
    }
  }
  try {
    std::map<std::string, double> m;  // per-layer metrics
    std::map<std::string, double> x;  // extra figures for run.py's residuals
    const std::string text = read_file(args["--design"]);

    // ---- graph
    graph::Design design;
    m["graph.parse_ms"] = median_of("graph.parse", "design", [&] {
      design = graph::parse_design(text);
    });
    m["graph.validate_ms"] =
        median_of("graph.validate", "design", [&] { design.validate(); });
    graph::FlattenResult flat;
    m["graph.flatten_ms"] =
        median_of("graph.flatten", "design", [&] { flat = design.flatten(); });
    m["graph.mb_per_s"] =
        static_cast<double>(text.size()) / 1e6 / (m["graph.parse_ms"] / 1000.0);

    // ---- analyze: one layer at a time; a layer's time is its run
    // minus the run with every layer off (flatten + sort).
    auto analyze_with = [&](const std::string& name, bool iface, bool pits,
                            bool absint, bool det) {
      analyze::AnalyzeOptions o;
      o.interface_rules = iface;
      o.pits_rules = pits;
      o.absint_rules = absint;
      o.determinacy_rules = det;
      return median_of("analyze." + name, "check",
                       [&] { (void)analyze::analyze_design(design, o); });
    };
    const double base = analyze_with("base", false, false, false, false);
    const double iface = analyze_with("interface", true, false, false, false);
    const double prules = analyze_with("pits", false, true, false, false);
    const double absint = analyze_with("pits+absint", false, true, true, false);
    const double det = analyze_with("determinacy", false, false, false, true);
    std::vector<analyze::Diagnostic> diagnostics;
    x["analyze.total_ms"] = median_of("analyze.all", "check", [&] {
      diagnostics = analyze::analyze_design(design, {});
    });
    // A difference below timer noise can come out negative; it reads 0.
    m["analyze.interface_ms"] = std::max(0.0, iface - base);
    m["analyze.pits_ms"] = std::max(0.0, prules - base);
    m["analyze.absint_ms"] = std::max(0.0, absint - prules);
    m["analyze.determinacy_ms"] = std::max(0.0, det - base);
    analyze::EmitOptions emit;
    emit.file = args["--design"];
    m["analyze.emit_ms"] = median_of("analyze.emit", "check", [&] {
      (void)analyze::emit_text(diagnostics, emit);
    });
    m["analyze.diagnostics"] = static_cast<double>(diagnostics.size());

    // ---- sched
    const machine::Machine mach =
        machine::parse_machine(read_file(args["--machine"]));
    const graph::FlattenResult sched_flat =
        args.contains("--sched-design")
            ? graph::parse_design(read_file(args["--sched-design"])).flatten()
            : flat;
    const graph::TaskGraph& sched_graph = sched_flat.graph;
    for (const std::string h : {"mh", "etf", "dsh"}) {
      m["sched." + h + "_ms"] = median_of("sched." + h, "schedule", [&] {
        (void)sched::make_scheduler(h)->run(sched_graph, mach);
      });
    }
    // The CLI path schedules the design itself: its MH time feeds the
    // schedule and run residuals.
    x["sched.mh_design_ms"] = median_of("sched.mh", "run", [&] {
      (void)sched::make_scheduler("mh")->run(flat.graph, mach);
    });
    const sched::Schedule mh =
        sched::make_scheduler("mh")->run(flat.graph, mach);
    m["sched.validate_ms"] = median_of(
        "sched.validate", "schedule", [&] { mh.validate(flat.graph, mach); });
    {
      obs::TraceRecorder rec;
      obs::ScopedRecorder scope(rec);
      (void)sched::make_scheduler("mh")->run(sched_graph, mach);
      m["sched.rounds"] = rec.metric("sched.mh.rounds");
    }

    // ---- pits: the front end of every routine, timed per stage on
    // fresh Program objects (the executor's cache is not involved).
    std::vector<std::string> sources;
    for (graph::TaskId t = 0; t < flat.graph.num_tasks(); ++t) {
      if (!util::trim(flat.graph.task(t).pits).empty()) {
        sources.push_back(flat.graph.task(t).pits);
      }
    }
    std::vector<pits::Program> programs(sources.size());
    m["pits.parse_ms"] = timed("pits.parse", "trial", "pits", [&] {
      for (std::size_t i = 0; i < sources.size(); ++i) {
        programs[i] = pits::Program::parse(sources[i]);
      }
    });
    std::vector<pits::bc::AnalysisFacts> facts(sources.size());
    m["pits.facts_ms"] = timed("pits.facts", "trial", "pits", [&] {
      for (std::size_t i = 0; i < sources.size(); ++i) {
        facts[i] = analyze::compute_facts(programs[i].body());
      }
    });
    double compiled = 0;
    m["pits.compile_ms"] = timed("pits.compile", "trial", "pits", [&] {
      for (std::size_t i = 0; i < sources.size(); ++i) {
        programs[i].precompile(facts[i]);
      }
    });
    for (const pits::Program& p : programs) {
      if (p.compiled_chunk() != nullptr) ++compiled;
    }
    m["pits.compiled"] = compiled;

    const std::vector<std::string> input_lines = read_lines(args["--inputs"]);
    std::vector<Inputs> inputs;
    std::vector<double> eval_ms;
    for (std::size_t i = 0; i < input_lines.size(); ++i) {
      eval_ms.push_back(timed("pits.eval_inputs", "trial",
                              "input" + std::to_string(i), [&] {
                                inputs.push_back(parse_inputs(input_lines[i]));
                              }));
    }
    std::sort(eval_ms.begin(), eval_ms.end());
    m["pits.input_eval_ms"] = eval_ms[eval_ms.size() / 2];

    // ---- exec: warm runs (the first run fills the program cache).
    exec::RunOptions run_opts;
    exec::RunResult first = exec::run_sequential(flat, inputs[0], run_opts);
    {
      obs::TraceRecorder rec;
      obs::ScopedRecorder scope(rec);
      first = exec::run_sequential(flat, inputs[0], run_opts);
      m["pits.vm_instructions"] = rec.metric("pits.vm.instructions");
    }
    m["exec.trial_ms"] = median_of("exec.run_sequential", "trial", [&] {
      first = exec::run_sequential(flat, inputs[0], run_opts);
    });
    const exec::Executor executor(flat, mach);
    exec::RunResult threaded;
    m["exec.run_ms"] = median_of("exec.executor_run", "run", [&] {
      threaded = executor.run(mh, inputs[0], run_opts);
    });
    const double batch_ms = timed("exec.run_trials", "trial", "batch", [&] {
      (void)exec::run_trials(flat, inputs, run_opts, kJobs);
    });
    m["exec.batch_us"] = batch_ms * 1000.0 / static_cast<double>(inputs.size());
    exec::StreamOptions stream_opts;
    stream_opts.jobs = kJobs;
    exec::StreamResult streamed;
    const double stream_ms = timed("exec.run_stream", "stream", "stream", [&] {
      streamed = exec::run_stream(flat, mh, mach, inputs, stream_opts);
    });
    m["exec.stream_us"] =
        stream_ms * 1000.0 / static_cast<double>(inputs.size());
    double busy = 0;
    double stalls = 0;
    for (const exec::BlockStats& b : streamed.report.blocks) {
      busy += b.busy_seconds;
    }
    for (const exec::QueueStats& q : streamed.report.queues) {
      stalls += static_cast<double>(q.full_stalls + q.empty_stalls);
    }
    const double lanes = static_cast<double>(streamed.report.threads);
    m["exec.stream_busy_ratio"] =
        busy / std::max(1e-12, lanes * streamed.report.wall_seconds);
    m["exec.stream_stalls"] = stalls;

    // ---- render
    m["render.schedule_ms"] = median_of("render.schedule", "schedule", [&] {
      (void)serve::render_schedule(mh, flat.graph, mach, "gantt");
    });
    std::string trial_text;
    m["render.run_ms"] = median_of("render.run", "trial", [&] {
      trial_text = serve::render_run_result(first, false);
    });

    // ---- serve: replay the workload's request lines in order. The
    // ProgramCache figures are the replay's own (the difference across
    // it): the request mix's routine working set against the cache.
    const exec::ProgramCache::Stats pc_before = exec::program_cache().stats();
    serve::ServeOptions sopts;
    sopts.jobs = 1;
    serve::Server server(sopts);
    serve::Json service = serve::Json::object();
    std::vector<double> hit_ms;
    std::string largest_line;
    std::string largest_response;
    for (const std::string& line : read_lines(args["--requests"])) {
      const serve::Json req = serve::Json::parse(line);
      const serve::Json* id = req.find("id");
      const std::string rid =
          id != nullptr && id->is_string() ? id->as_string() : "";
      const auto before = server.cache_stats();
      std::string response;
      const double ms = timed("serve.request", "serve", rid,
                              [&] { response = server.handle_line(line); });
      const auto after = server.cache_stats();
      if (after.hits > before.hits && after.misses == before.misses) {
        hit_ms.push_back(ms);
      }
      service.add(rid, serve::Json::number(ms));
      const serve::Json* op = req.find("op");
      const bool upload = op != nullptr && op->is_string() &&
                          op->as_string() == "upload";
      if (!upload && line.size() > largest_line.size()) largest_line = line;
      if (response.size() > largest_response.size()) {
        largest_response = response;
      }
    }
    const exec::ProgramCache::Stats pc_after = exec::program_cache().stats();
    const auto pc_hits = static_cast<double>(pc_after.hits - pc_before.hits);
    const auto pc_misses =
        static_cast<double>(pc_after.misses - pc_before.misses);
    m["exec.program_cache_hit_ratio"] =
        pc_hits / std::max(1.0, pc_hits + pc_misses);
    m["exec.program_cache_evictions"] =
        static_cast<double>(pc_after.evictions - pc_before.evictions);
    x["exec.program_cache_misses"] = pc_misses;
    m["serve.json_parse_ms"] = median_of("serve.json_parse", "serve", [&] {
      (void)serve::Json::parse(largest_line);
    });
    m["serve.hash_ms"] =
        median_of("serve.hash", "serve", [&] { (void)util::fnv1a64(text); });
    std::sort(hit_ms.begin(), hit_ms.end());
    m["serve.hit_ms"] = hit_ms.empty() ? 0.0 : hit_ms[hit_ms.size() / 2];
    const serve::Json response_doc = serve::Json::parse(largest_response);
    m["serve.encode_ms"] =
        median_of("serve.encode", "serve", [&] { (void)response_doc.dump(); });
    const auto cs = server.cache_stats();
    m["serve.cache_hit_ratio"] =
        static_cast<double>(cs.hits) /
        std::max(1.0, static_cast<double>(cs.hits + cs.misses));
    m["serve.cache_evictions"] = static_cast<double>(cs.evictions);
    m["obs.recorder_events"] = static_cast<double>(server.recorder().size());

    write_spans(args["--spans"]);
    serve::Json out = serve::Json::object();
    serve::Json metrics = serve::Json::object();
    for (const auto& [k, v] : m) metrics.add(k, serve::Json::number(v));
    serve::Json extra = serve::Json::object();
    for (const auto& [k, v] : x) extra.add(k, serve::Json::number(v));
    out.add("metrics", std::move(metrics));
    out.add("extra", std::move(extra));
    out.add("service_ms", std::move(service));
    out.add("trial_output", serve::Json::string(trial_text));
    out.add("run_output",
            serve::Json::string(serve::render_run_result(threaded, false)));
    std::cout << out.dump() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_trace: " << e.what() << "\n";
    return 1;
  }
}

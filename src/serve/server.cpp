#include "serve/server.hpp"

#include <cstdio>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "exec/executor.hpp"
#include "exec/plan.hpp"
#include "exec/stream.hpp"
#include "graph/serialize.hpp"
#include "machine/serialize.hpp"
#include "pits/interp.hpp"
#include "serve/render.hpp"
#include "util/net.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace banger::serve {

namespace {

/// The content hash of a cache key, fed its parts in order. Every part
/// enters the hash behind its length, and every list behind its count,
/// so the bytes hashed spell out the parts unambiguously: two different
/// requests never hash the same bytes, whatever their fields contain.
class KeyHash {
 public:
  KeyHash& add(std::string_view part) {
    count(part.size());
    hash_ = util::fnv1a64(part, hash_);
    return *this;
  }

  /// A VAR -> EXPR object, in key order.
  KeyHash& add(const std::map<std::string, std::string>& inputs) {
    count(inputs.size());
    for (const auto& [var, expr] : inputs) add(var).add(expr);
    return *this;
  }

  /// A list of VAR -> EXPR objects, in order.
  KeyHash& add(const std::vector<std::map<std::string, std::string>>& list) {
    count(list.size());
    for (const auto& inputs : list) add(inputs);
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void count(std::size_t n) {
    char bytes[8];
    for (char& b : bytes) {
      b = static_cast<char>(n & 0xFFU);
      n >>= 8U;
    }
    hash_ = util::fnv1a64(std::string_view(bytes, sizeof bytes), hash_);
  }

  std::uint64_t hash_ = util::kFnvOffsetBasis;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Longest request line serve_stream() reads. The largest design the
/// repository benchmark uploads, heat 64x64, is a ~2.3 MB line.
constexpr std::size_t kMaxRequestLine = std::size_t{64} << 20;

enum class LineRead : std::uint8_t { Line, TooLong, End };

/// Reads one newline-terminated line into `line`, holding at most
/// `limit` bytes of it: a longer line is read through to its newline,
/// dropped, and reported as TooLong. A last line without a newline
/// still counts.
LineRead read_line(std::istream& in, std::string& line, std::size_t limit) {
  line.clear();
  bool too_long = false;
  char chunk[1 << 16];
  for (;;) {
    in.getline(chunk, sizeof chunk);
    const auto got = static_cast<std::size_t>(in.gcount());
    const std::size_t stored = in.good() ? got - 1 : got;  // less the '\n'
    if (!too_long && line.size() + stored > limit) {
      too_long = true;
      line.clear();
      line.shrink_to_fit();
    }
    if (!too_long) line.append(chunk, stored);
    if (in.good()) break;  // the newline ended it
    if (in.eof()) {
      if (got == 0 && line.empty() && !too_long) return LineRead::End;
      break;
    }
    if (in.bad()) return LineRead::End;
    in.clear();  // the chunk filled before the newline
  }
  return too_long ? LineRead::TooLong : LineRead::Line;
}

/// A design as every design-taking op shares it through the cache: its
/// flattening, which is all they read. The parsed design is dropped, so
/// the cache holds each routine once.
std::shared_ptr<const graph::FlattenResult> design_artifact(
    ArtifactCache& cache, const std::string& text) {
  const CacheKey key{"design", KeyHash().add(text).value()};
  return cache.get_or_build<graph::FlattenResult>(key, [&] {
    return std::make_shared<const graph::FlattenResult>(
        graph::parse_design(text).validate());
  });
}

std::shared_ptr<const machine::Machine> machine_artifact(
    ArtifactCache& cache, const std::string& text) {
  const CacheKey key{"machine", KeyHash().add(text).value()};
  return cache.get_or_build<machine::Machine>(key, [&] {
    return std::make_shared<const machine::Machine>(
        machine::parse_machine(text));
  });
}

std::shared_ptr<const sched::Schedule> schedule_artifact(
    ArtifactCache& cache, const std::string& design_text,
    const std::string& machine_text, const std::string& heuristic,
    const graph::FlattenResult& flat, const machine::Machine& machine) {
  const CacheKey key{
      "schedule",
      KeyHash().add(design_text).add(machine_text).add(heuristic).value()};
  return cache.get_or_build<sched::Schedule>(key, [&] {
    const auto scheduler = sched::make_scheduler(heuristic);
    sched::Schedule schedule = scheduler->run(flat.graph, machine);
    schedule.validate(flat.graph, machine);
    return std::make_shared<const sched::Schedule>(std::move(schedule));
  });
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)), cache_(options_.cache_capacity) {
  if (options_.max_inflight < 1) options_.max_inflight = 1;
  if (options_.recorder != nullptr) {
    rec_ = options_.recorder;
  } else {
    own_rec_.emplace();
    rec_ = &*own_rec_;
  }
  clock_ = options_.clock ? options_.clock
                          : std::function<double()>(
                                [this] { return rec_->wall_now(); });
}

bool Server::try_acquire_slot() {
  int current = inflight_.load();
  while (current < options_.max_inflight) {
    if (inflight_.compare_exchange_weak(current, current + 1)) return true;
  }
  return false;
}

void Server::release_slot() { inflight_.fetch_sub(1); }

std::string Server::resolve(const Request& req, bool want_machine) const {
  if (want_machine) {
    if (!req.machine.empty()) return req.machine;
    if (!req.machine_ref.empty()) {
      return sessions_.get(req.machine_ref, "machine").text;
    }
    fail(ErrorCode::Usage,
         "op `" + req.op + "` needs `machine` text or a `machine_ref`");
  }
  if (!req.design.empty()) return req.design;
  if (!req.design_ref.empty()) {
    return sessions_.get(req.design_ref, "design").text;
  }
  fail(ErrorCode::Usage,
       "op `" + req.op + "` needs `design` text or a `design_ref`");
}

Server::Rendered Server::respond(const Request& req) {
  if (req.op == "schedule") {
    const std::string design_text = resolve(req, false);
    const std::string machine_text = resolve(req, true);
    const std::string format = req.format.empty() ? "gantt" : req.format;
    if (format != "gantt" && format != "table" && format != "svg" &&
        format != "trace") {
      fail(ErrorCode::Usage, "unknown schedule format `" + format + "`");
    }
    const CacheKey key{"response", KeyHash()
                                       .add("schedule")
                                       .add(design_text)
                                       .add(machine_text)
                                       .add(req.scheduler)
                                       .add(format)
                                       .value()};
    const auto rendered = cache_.get_or_build<Rendered>(key, [&] {
      const auto design = design_artifact(cache_, design_text);
      const auto machine = machine_artifact(cache_, machine_text);
      const auto schedule =
          schedule_artifact(cache_, design_text, machine_text, req.scheduler,
                            *design, *machine);
      const ScheduleRender r =
          render_schedule(*schedule, design->graph, *machine, format);
      return std::make_shared<const Rendered>(
          Rendered{r.artifact + r.trailer, 0});
    });
    return *rendered;
  }

  if (req.op == "trial") {
    if (!req.machine.empty() || !req.machine_ref.empty()) {
      fail(ErrorCode::Usage,
           "op `trial` runs sequentially; it does not take a machine");
    }
    const std::string design_text = resolve(req, false);
    if (req.has_inputs_batch) {
      // Batch envelope: the whole batch is one request — one admission
      // slot, one cache entry keyed over every trial's inputs in order.
      const CacheKey key{"response", KeyHash()
                                         .add("trial_batch")
                                         .add(design_text)
                                         .add(req.inputs_batch)
                                         .value()};
      const auto rendered = cache_.get_or_build<Rendered>(key, [&] {
        const auto design = design_artifact(cache_, design_text);
        std::vector<std::map<std::string, pits::Value>> inputs;
        inputs.reserve(req.inputs_batch.size());
        for (const auto& trial : req.inputs_batch) {
          auto& values = inputs.emplace_back();
          for (const auto& [var, expr] : trial) {
            values[var] = pits::eval_expression(expr, {});
          }
        }
        // jobs=1: concurrency belongs to the request loop, not inside a
        // single cached build (which would multiply threads per slot).
        const auto outcomes =
            exec::run_trials(*design, inputs, {}, /*jobs=*/1);
        const TrialBatchRender r = render_trial_batch(outcomes, /*jobs=*/1);
        return std::make_shared<const Rendered>(
            Rendered{r.text, r.exit_code});
      });
      return *rendered;
    }
    const CacheKey key{
        "response",
        KeyHash().add("trial").add(design_text).add(req.inputs).value()};
    const auto rendered = cache_.get_or_build<Rendered>(key, [&] {
      const auto design = design_artifact(cache_, design_text);
      std::map<std::string, pits::Value> inputs;
      for (const auto& [var, expr] : req.inputs) {
        inputs[var] = pits::eval_expression(expr, {});
      }
      const auto result = exec::run_sequential(*design, inputs);
      return std::make_shared<const Rendered>(
          Rendered{render_run_result(result, /*include_wall=*/false), 0});
    });
    return *rendered;
  }

  if (req.op == "stream") {
    if (!req.has_inputs_stream) {
      fail(ErrorCode::Usage,
           "op `stream` needs an `inputs_stream` array of batches");
    }
    const std::string design_text = resolve(req, false);
    const std::string machine_text = resolve(req, true);
    const CacheKey key{"response", KeyHash()
                                       .add("stream")
                                       .add(design_text)
                                       .add(machine_text)
                                       .add(req.scheduler)
                                       .add(req.inputs_stream)
                                       .value()};
    const auto rendered = cache_.get_or_build<Rendered>(key, [&] {
      const auto design = design_artifact(cache_, design_text);
      const auto machine = machine_artifact(cache_, machine_text);
      const auto schedule =
          schedule_artifact(cache_, design_text, machine_text, req.scheduler,
                            *design, *machine);
      std::vector<std::map<std::string, pits::Value>> batches;
      batches.reserve(req.inputs_stream.size());
      for (const auto& batch : req.inputs_stream) {
        auto& values = batches.emplace_back();
        for (const auto& [var, expr] : batch) {
          values[var] = pits::eval_expression(expr, {});
        }
      }
      exec::StreamOptions stream_opts;
      // jobs=1: concurrency belongs to the request loop, not inside a
      // single cached build. One thread drives every lane cooperatively;
      // outputs are identical for any value.
      stream_opts.jobs = 1;
      const exec::StreamResult result = exec::run_stream(
          *design, *schedule, *machine, batches, stream_opts);
      // Only the deterministic per-batch text enters the response (the
      // timing-laden execution report lands on the metrics recorder).
      const TrialBatchRender r =
          render_stream_batches(result.outcomes, /*jobs=*/1);
      return std::make_shared<const Rendered>(Rendered{r.text, r.exit_code});
    });
    return *rendered;
  }

  if (req.op == "check") {
    const std::string design_text = resolve(req, false);
    const std::string format = req.format.empty() ? "text" : req.format;
    if (format != "text" && format != "json" && format != "sarif") {
      fail(ErrorCode::Usage, "unknown check format `" + format + "`");
    }
    const std::string file =
        !req.file.empty() ? req.file
        : !req.design_ref.empty() ? req.design_ref
                                  : std::string("<design>");
    const CacheKey key{"response", KeyHash()
                                       .add("check")
                                       .add(design_text)
                                       .add(format)
                                       .add(req.fail_on)
                                       .add(file)
                                       .value()};
    const auto rendered = cache_.get_or_build<Rendered>(key, [&] {
      const auto design = design_artifact(cache_, design_text);
      const CheckRender r =
          render_check(*design, format, req.fail_on, file);
      return std::make_shared<const Rendered>(Rendered{
          r.text, r.exit_code, /*has_summary=*/true, r.errors, r.warnings,
          r.notes});
    });
    return *rendered;
  }

  if (req.op == "trace") {
    const std::string design_text = resolve(req, false);
    const std::string machine_text = resolve(req, true);
    const CacheKey key{"response", KeyHash()
                                       .add("trace")
                                       .add(design_text)
                                       .add(machine_text)
                                       .add(req.scheduler)
                                       .add(req.contention ? "1" : "0")
                                       .value()};
    const auto rendered = cache_.get_or_build<Rendered>(key, [&] {
      const auto design = design_artifact(cache_, design_text);
      const auto machine = machine_artifact(cache_, machine_text);
      sim::SimOptions sim_opts;
      sim_opts.link_contention = req.contention;
      // A private recorder inside render_trace keeps the artifact free
      // of other requests' events — the reason the ambient recorder is
      // thread-local.
      const TraceRender r =
          render_trace(design->graph, *machine, req.scheduler, sim_opts,
                       /*plan=*/nullptr, /*reuse=*/nullptr);
      return std::make_shared<const Rendered>(Rendered{r.artifact, 0});
    });
    return *rendered;
  }

  fail(ErrorCode::Usage,
       "unknown op `" + req.op +
           "` (ping|upload|schedule|trial|stream|check|trace|stats|shutdown)");
}

Json Server::dispatch(const Request& req) {
  if (req.op == "ping") {
    Json r = ok_envelope(req.id, req.op, 0);
    r.add("output", Json::string("pong"));
    return r;
  }

  if (req.op == "shutdown") {
    request_shutdown();
    Json r = ok_envelope(req.id, req.op, 0);
    r.add("output", Json::string("shutting down"));
    return r;
  }

  if (req.op == "upload") {
    if (req.name.empty()) {
      fail(ErrorCode::Usage, "op `upload` needs a `name`");
    }
    if (req.kind != "design" && req.kind != "machine") {
      fail(ErrorCode::Usage,
           "op `upload` needs `kind` of `design` or `machine`, got `" +
               req.kind + "`");
    }
    if (req.text.empty()) {
      fail(ErrorCode::Usage, "op `upload` needs the payload in `text`");
    }
    // Validate (and warm the cache) before storing: a payload that does
    // not parse must never become referenceable.
    if (req.kind == "design") {
      design_artifact(cache_, req.text);
    } else {
      machine_artifact(cache_, req.text);
    }
    const std::uint64_t hash = sessions_.put(req.name, req.kind, req.text);
    Json r = ok_envelope(req.id, req.op, 0);
    r.add("name", Json::string(req.name));
    r.add("kind", Json::string(req.kind));
    r.add("hash", Json::string(hex64(hash)));
    return r;
  }

  if (req.op == "stats") {
    Json r = ok_envelope(req.id, req.op, 0);
    Json stats = Json::object();
    const ArtifactCache::Stats cs = cache_.stats();
    Json cache = Json::object();
    cache.add("hits", Json::number(static_cast<double>(cs.hits)));
    cache.add("misses", Json::number(static_cast<double>(cs.misses)));
    cache.add("evictions", Json::number(static_cast<double>(cs.evictions)));
    cache.add("entries", Json::number(static_cast<double>(cs.entries)));
    cache.add("capacity",
              Json::number(static_cast<double>(cache_.capacity())));
    stats.add("cache", std::move(cache));
    const exec::ProgramCache& programs = exec::program_cache();
    const exec::ProgramCache::Stats ps = programs.stats();
    Json program_cache = Json::object();
    program_cache.add("hits", Json::number(static_cast<double>(ps.hits)));
    program_cache.add("misses", Json::number(static_cast<double>(ps.misses)));
    program_cache.add("evictions",
                      Json::number(static_cast<double>(ps.evictions)));
    program_cache.add("entries",
                      Json::number(static_cast<double>(ps.entries)));
    program_cache.add("bytes", Json::number(static_cast<double>(ps.bytes)));
    program_cache.add("budget",
                      Json::number(static_cast<double>(programs.budget())));
    stats.add("program_cache", std::move(program_cache));
    stats.add("sessions",
              Json::number(static_cast<double>(sessions_.size())));
    stats.add("inflight", Json::number(inflight_.load()));
    Json metrics = Json::object();
    for (const auto& [name, value] : rec_->metrics_snapshot()) {
      metrics.add(name, Json::number(value));
    }
    stats.add("metrics", std::move(metrics));
    r.add("stats", std::move(stats));
    return r;
  }

  const Rendered rendered = respond(req);
  Json r = ok_envelope(req.id, req.op, rendered.exit_code);
  r.add("output", Json::string(rendered.output));
  if (rendered.has_summary) {
    // Machine-readable severity counts: clients branch on these instead
    // of parsing the "N error(s), M warning(s)" text trailer.
    Json summary = Json::object();
    summary.add("errors", Json::number(static_cast<double>(rendered.errors)));
    summary.add("warnings",
                Json::number(static_cast<double>(rendered.warnings)));
    summary.add("notes", Json::number(static_cast<double>(rendered.notes)));
    r.add("summary", std::move(summary));
  }
  return r;
}

std::string Server::handle_line(const std::string& line) {
  return handle_line(line, now());
}

std::string Server::handle_line(const std::string& line, double arrival) {
  return answer(parse_line(line), arrival);
}

Server::ParsedLine Server::parse_line(const std::string& line) {
  ParsedLine parsed;
  try {
    parsed.doc = Json::parse(line);
  } catch (...) {
    parsed.error = std::current_exception();
  }
  return parsed;
}

std::string Server::answer(const ParsedLine& parsed, double arrival) {
  // Handlers may run on pool workers or foreign threads; make the
  // service recorder ambient so every instrumented layer underneath
  // (scheduler, executor, cache) lands its counters here.
  obs::ScopedRecorder scope(*rec_);
  Json id;
  std::string op;
  try {
    if (parsed.error) std::rethrow_exception(parsed.error);
    const Request req = parse_request(parsed.doc);
    id = req.id;
    op = req.op;
    rec_->bump("serve.requests");
    if (options_.deadline_ms > 0) {
      const double waited_ms = (now() - arrival) * 1000.0;
      if (waited_ms > options_.deadline_ms) {
        rec_->bump("serve.shed");
        return error_response(
                   id, op, "limit",
                   "deadline exceeded: request waited " +
                       obs::json_number(waited_ms) + " ms (deadline " +
                       std::to_string(options_.deadline_ms) + " ms)",
                   1)
            .dump();
      }
    }
    const double start = rec_->wall_now();
    Json resp = dispatch(req);
    rec_->span(obs::Domain::Wall, obs::kTrackServe, 0, start,
               rec_->wall_now(), "serve." + op, "serve", "");
    rec_->bump("serve.ok");
    return resp.dump();
  } catch (const Error& e) {
    rec_->bump("serve.errors");
    return error_response(id, op, e).dump();
  } catch (const std::exception& e) {
    rec_->bump("serve.errors");
    return error_response(id, op, "error", e.what(), 1).dump();
  }
}

int Server::serve_stream(std::istream& in, std::ostream& out) {
  obs::ScopedRecorder scope(*rec_);
  // The pool is constructed under the installed recorder, so workers
  // adopt it as their ambient too.
  util::ThreadPool pool(options_.jobs);

  // Responses leave in request order no matter which worker finishes
  // first: each request gets a sequence number at read time and a
  // reorder buffer drains contiguously.
  std::mutex emit_mu;
  std::map<std::uint64_t, std::string> done;
  std::uint64_t next_emit = 0;
  auto emit = [&](std::uint64_t seq, std::string response) {
    std::lock_guard<std::mutex> lock(emit_mu);
    done.emplace(seq, std::move(response));
    for (auto it = done.find(next_emit); it != done.end();
         it = done.find(next_emit)) {
      out << it->second << '\n';
      out.flush();
      done.erase(it);
      ++next_emit;
    }
  };

  // Responses are flushed under emit_mu. A stream tied to `out`
  // (std::cin is tied to std::cout) would also flush it from this thread
  // before each read, racing the workers that write responses.
  std::ostream* const tied = in.tie(nullptr);

  std::string line;
  std::uint64_t seq = 0;
  bool stop = false;
  while (!stop && !shutdown_requested()) {
    const LineRead got = read_line(in, line, kMaxRequestLine);
    if (got == LineRead::End) break;
    if (got == LineRead::TooLong) {
      rec_->bump("serve.errors");
      emit(seq++,
           error_response(
               Json(), "",
               Error(ErrorCode::Limit,
                     "request line longer than " +
                         std::to_string(kMaxRequestLine) + " bytes",
                     {1, static_cast<int>(kMaxRequestLine) + 1}))
               .dump());
      continue;
    }
    if (line.empty()) continue;
    const std::uint64_t s = seq++;

    // The line is parsed once, here: its id and op let overload shedding
    // and shutdown answer without occupying a worker, and the worker
    // answers from the same document. A malformed line still goes to a
    // worker for the full diagnostic envelope.
    auto parsed = std::make_shared<const ParsedLine>(parse_line(line));
    Json id;
    std::string op;
    if (!parsed->error) {
      if (const Json* found = parsed->doc.find("op");
          found && found->is_string()) {
        op = found->as_string();
      }
      if (const Json* found = parsed->doc.find("id")) id = *found;
    }

    if (op == "shutdown") {
      emit(s, answer(*parsed, now()));
      stop = true;
      continue;
    }
    if (op == "upload") {
      // A session name is visible to every later line and to no earlier
      // one: let the requests in flight finish, then store it here.
      pool.wait_idle();
      emit(s, answer(*parsed, now()));
      continue;
    }

    if (!try_acquire_slot()) {
      rec_->bump("serve.requests");
      rec_->bump("serve.shed");
      emit(s, error_response(id, op, "limit",
                             "server overloaded: " +
                                 std::to_string(options_.max_inflight) +
                                 " requests already in flight",
                             1)
                  .dump());
      continue;
    }

    const double arrival = now();
    pool.submit([this, s, parsed, arrival, &emit] {
      std::string response = answer(*parsed, arrival);
      release_slot();
      emit(s, std::move(response));
    });
  }
  pool.wait_idle();
  in.tie(tied);
  return 0;
}

int Server::serve_tcp(int port, std::ostream& log) {
  const int listen_fd = util::tcp_listen(port);
  bound_port_.store(util::tcp_local_port(listen_fd));
  log << "banger serve: listening on 127.0.0.1:" << bound_port_.load()
      << "\n";
  log.flush();

  std::vector<std::thread> connections;
  while (!shutdown_requested()) {
    const int fd = util::tcp_accept(listen_fd, /*timeout_ms=*/100);
    if (fd < 0) continue;  // timeout: re-check the shutdown flag
    connections.emplace_back([this, fd] {
      // One buffer per direction: the reader thread and the pool
      // workers that write responses must not share a put area.
      util::FdStreamBuf in_buf(fd);
      util::FdStreamBuf out_buf(fd);
      std::istream in(&in_buf);
      std::ostream out(&out_buf);
      serve_stream(in, out);
      out.flush();
      util::close_fd(fd);
    });
  }
  for (std::thread& t : connections) t.join();
  util::close_fd(listen_fd);
  bound_port_.store(-1);
  return 0;
}

}  // namespace banger::serve

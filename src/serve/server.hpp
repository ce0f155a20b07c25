// banger/serve/server.hpp
//
// The banger design service: a long-lived process that answers
// schedule/trial/check/trace requests for many clients over stdio
// (JSON lines on stdin/stdout) or a local TCP port. One Server instance
// is shared by every connection, so uploaded sessions, the
// content-hashed artifact cache, admission-control slots, and the
// observability counters are all service-wide.
//
// Concurrency model: each stream reads requests on its own thread and
// dispatches them to a util::ThreadPool; responses are re-sequenced so
// they leave in request order regardless of completion order. Handlers
// never share mutable state except through the (internally locked)
// cache, session store, and recorder, so any number of streams can run
// at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "obs/trace.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"

namespace banger::serve {

struct ServeOptions {
  /// Worker threads per stream (0 = BANGER_JOBS env or all cores).
  int jobs = 0;
  /// Admission control: requests in flight beyond this are shed with an
  /// `ok:false, code:"limit"` envelope instead of queueing unboundedly.
  int max_inflight = 256;
  /// Per-request deadline in milliseconds measured from arrival; 0
  /// disables. Requests that exceed it while queued are shed.
  int deadline_ms = 0;
  /// Artifact-cache entry cap (parsed designs/machines, schedules,
  /// rendered responses all count).
  std::size_t cache_capacity = 256;
  /// Injectable monotonic clock in seconds, for deterministic deadline
  /// tests. Defaults to the recorder's wall clock.
  std::function<double()> clock;
  /// Record service counters/spans here instead of an internal recorder.
  obs::TraceRecorder* recorder = nullptr;
};

class Server {
 public:
  explicit Server(ServeOptions options = {});

  /// Handles one request line and returns the response line (no
  /// trailing newline). Thread-safe; this is the whole service for
  /// in-process callers and `banger serve --once`.
  std::string handle_line(const std::string& line);

  /// Same, with an explicit arrival timestamp (seconds on the service
  /// clock) against which the deadline is checked.
  std::string handle_line(const std::string& line, double arrival);

  /// Reads newline-delimited requests from `in` until EOF or a
  /// `shutdown` request, answering on `out` in request order. A line
  /// longer than 64 MiB is read through to its newline and answered
  /// with a `limit` error (id null); the stream goes on. Returns 0.
  int serve_stream(std::istream& in, std::ostream& out);

  /// Listens on 127.0.0.1:`port` (0 = ephemeral; see bound_port()) and
  /// runs serve_stream per connection until request_shutdown(). Logs
  /// the bound address to `log`. Returns 0.
  int serve_tcp(int port, std::ostream& log);

  /// Asks serve_tcp()/serve_stream() loops to wind down.
  void request_shutdown() { shutdown_.store(true); }
  [[nodiscard]] bool shutdown_requested() const { return shutdown_.load(); }

  /// Port serve_tcp actually bound (-1 until listening); lets tests use
  /// an ephemeral port without racing.
  [[nodiscard]] int bound_port() const { return bound_port_.load(); }

  /// Admission-control slots. The stream layer acquires before
  /// dispatching and releases when the handler finishes; exposed so
  /// embedders (and tests) can exert the same back-pressure.
  bool try_acquire_slot();
  void release_slot();

  [[nodiscard]] obs::TraceRecorder& recorder() { return *rec_; }
  [[nodiscard]] ArtifactCache::Stats cache_stats() const {
    return cache_.stats();
  }
  [[nodiscard]] const ServeOptions& options() const { return options_; }

 private:
  /// A rendered text payload plus the CLI-equivalent exit status; what
  /// the response cache stores (the envelope around it varies by id).
  /// `check` responses also carry their severity counts so the envelope
  /// can expose a structured summary next to the formatted output.
  struct Rendered {
    std::string output;
    int exit_code = 0;
    bool has_summary = false;
    std::size_t errors = 0;
    std::size_t warnings = 0;
    std::size_t notes = 0;
  };

  /// One request line after the JSON parse: the document, or the error
  /// the parse raised, which answer() reports like any other.
  struct ParsedLine {
    Json doc;
    std::exception_ptr error;
  };
  static ParsedLine parse_line(const std::string& line);
  /// handle_line() from the parsed line on.
  std::string answer(const ParsedLine& parsed, double arrival);

  Json dispatch(const Request& req);
  Rendered respond(const Request& req);
  std::string resolve(const Request& req, bool machine) const;
  double now() const { return clock_(); }

  ServeOptions options_;
  std::optional<obs::TraceRecorder> own_rec_;
  obs::TraceRecorder* rec_ = nullptr;
  std::function<double()> clock_;
  ArtifactCache cache_;
  SessionStore sessions_;
  std::atomic<bool> shutdown_{false};
  std::atomic<int> bound_port_{-1};
  std::atomic<int> inflight_{0};
};

}  // namespace banger::serve

// banger/obs/trace.hpp
//
// Structured observability: a low-overhead trace recorder threaded
// through the scheduler, simulator, executor, thread pool, and fault
// recovery.  The paper's whole pitch is *instant feedback* — this layer
// is how the environment shows where time goes, not just what the final
// schedule looks like.
//
// Model
//   * A `TraceRecorder` collects spans (duration events), instants,
//     counters, and flow points (message arrows), plus a flat
//     name -> number metrics map.
//   * Every event lives on a (pid, tid) track and in a *clock domain*:
//       - Domain::Virtual  — model seconds (schedule / simulation time);
//                            fully deterministic.
//       - Domain::Wall     — host wall-clock seconds from real
//                            execution; inherently nondeterministic.
//       - Domain::Logical  — dimensionless indices (scheduler rounds);
//                            deterministic.
//     Exports may exclude the Wall domain, which is how `banger trace`
//     produces byte-identical output for any `--jobs` value.
//   * Recording is thread-safe (one mutex; events carry a global
//     sequence number).  Export stable-sorts by (ts, pid, tid, seq) so
//     the JSON is deterministic regardless of thread interleaving.
//   * The recorder is *ambient*: instrumented code asks
//     `obs::current()` and does nothing when it returns nullptr, so the
//     disabled path costs one relaxed atomic load (hoisted out of hot
//     loops at the call sites).  `ScopedRecorder` installs a recorder
//     for the current scope, RAII-restoring the previous one.
//
// The exporter speaks the Chrome trace-event JSON format understood by
// Perfetto (https://ui.perfetto.dev) and chrome://tracing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace banger::obs {

/// Which clock an event's timestamps belong to.  Virtual and Wall are
/// in seconds (exported at 1s = 1e6 us); Logical values are exported
/// verbatim as microsecond ticks.
enum class Domain : std::uint8_t { Virtual, Wall, Logical };

// Well-known tracks (Chrome trace "pid"s).  kTrackPlanned is 1 so the
// legacy schedule-only export keeps its historical pid.
inline constexpr int kTrackPlanned = 1;    ///< planned schedule (Virtual)
inline constexpr int kTrackReplay = 2;     ///< simulated replay (Virtual)
inline constexpr int kTrackExec = 3;       ///< real executor (Wall)
inline constexpr int kTrackScheduler = 4;  ///< scheduler internals (Logical)
inline constexpr int kTrackRecovery = 5;   ///< fault recovery (Virtual)
inline constexpr int kTrackPool = 6;       ///< thread pool (Wall)
inline constexpr int kTrackServe = 7;      ///< serve request handling (Wall)

struct TraceEvent {
  enum class Kind : std::uint8_t { Span, Instant, Counter, FlowStart, FlowEnd };
  Kind kind = Kind::Instant;
  Domain domain = Domain::Virtual;
  int pid = kTrackPlanned;
  int tid = 0;
  double start = 0.0;  ///< seconds (or raw ticks in Domain::Logical)
  double end = 0.0;    ///< spans only
  double value = 0.0;  ///< counters only
  int flow_id = 0;     ///< flow points only
  std::uint64_t seq = 0;
  std::string name;
  std::string cat;
  std::string args;  ///< pre-rendered JSON object body, e.g. "\"n\": 3"
};

struct ExportOptions {
  /// Include Domain::Wall events.  `banger trace` turns this off so the
  /// artifact is byte-identical across `--jobs` values.
  bool include_wall = true;
  /// Emit process_name metadata records for the tracks in use.
  bool metadata = true;
};

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(const std::string& s);
/// json_escape appended to `out`: runs of bytes that need no escape are
/// copied whole, the rest escaped in place.
void json_escape(std::string_view s, std::string& out);

/// Render a double deterministically: integral values print without a
/// fraction ("3"), everything else via %.17g round-trip formatting.
std::string json_number(double v);

class TraceRecorder {
 public:
  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// A duration event on (pid, tid) covering [start, end].
  void span(Domain domain, int pid, int tid, double start, double end,
            std::string name, std::string cat, std::string args = {});

  /// A point event on (pid, tid) at time ts.
  void instant(Domain domain, int pid, int tid, double ts, std::string name,
               std::string cat, std::string args = {});

  /// A counter sample: the value of `name` at time ts.
  void counter(Domain domain, int pid, int tid, double ts, std::string name,
               double value);

  /// One end of a flow arrow (start=true is the tail).  Points sharing
  /// a flow_id are connected by the viewer.
  void flow_point(Domain domain, int pid, int tid, double ts, bool start,
                  int flow_id, std::string name, std::string cat);

  /// Add `delta` to the named metric (creating it at 0).
  void bump(const std::string& metric, double delta = 1.0);

  /// Set the named metric to `value` outright.
  void set_metric(const std::string& metric, double value);

  /// Read a metric back (0 if never touched).
  double metric(const std::string& name) const;

  /// A copy of the whole metrics map (the data behind metrics_json) —
  /// the serve `stats` endpoint embeds it as a structured object.
  std::map<std::string, double> metrics_snapshot() const;

  /// Wall-clock seconds since this recorder was constructed
  /// (steady-clock based; use for Domain::Wall timestamps).
  double wall_now() const;

  std::size_t size() const;
  void clear();

  /// Chrome trace-event JSON (a top-level array, Perfetto-loadable).
  std::string to_chrome_json(const ExportOptions& options = {}) const;

  /// Flat `{"metric": value, ...}` JSON object, keys sorted.
  std::string metrics_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::map<std::string, double> metrics_;
  std::uint64_t next_seq_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// The ambient recorder for the *current thread*, or nullptr when
/// tracing is disabled.  Instrumented code hoists this out of hot
/// loops.  The ambient is thread-local so concurrent serve requests can
/// each trace into their own recorder without cross-talk; helpers that
/// fan work out to other threads (util::ThreadPool, the executor)
/// capture the caller's recorder and install it on their workers, so
/// single-recorder flows behave exactly as if the ambient were global.
TraceRecorder* current();

/// Installs `rec` as the calling thread's ambient recorder for the
/// lifetime of the object, restoring the previous recorder on
/// destruction.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(TraceRecorder& rec);
  ~ScopedRecorder();
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  TraceRecorder* prev_;
};

}  // namespace banger::obs

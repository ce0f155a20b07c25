#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace banger::obs {

namespace {

// Per-thread ambient recorder. Thread-local (not process-global) so a
// concurrent server can trace one request in isolation while neighbours
// on other threads keep recording into the service-wide recorder.
// ThreadPool and the executor re-install the submitting thread's
// recorder on their workers, preserving the old global-feeling flow.
thread_local TraceRecorder* t_current = nullptr;

// Chrome trace timestamps are integer microseconds.  Virtual/Wall
// domains carry seconds; Logical carries raw ticks exported verbatim.
long long ts_micros(Domain domain, double t) {
  if (domain == Domain::Logical) return static_cast<long long>(t);
  return static_cast<long long>(t * 1e6);
}

const char* track_label(int pid) {
  switch (pid) {
    case kTrackPlanned: return "planned schedule";
    case kTrackReplay: return "executor replay (simulated)";
    case kTrackExec: return "executor";
    case kTrackScheduler: return "scheduler";
    case kTrackRecovery: return "recovery";
    case kTrackPool: return "thread pool";
    case kTrackServe: return "serve";
    default: return "track";
  }
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  json_escape(s, out);
  return out;
}

void json_escape(std::string_view s, std::string& out) {
  std::size_t run = 0;  // start of the pending run of safe bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s, run, s.size() - run);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::fabs(v) < 9e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

void TraceRecorder::span(Domain domain, int pid, int tid, double start,
                         double end, std::string name, std::string cat,
                         std::string args) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceEvent e;
  e.kind = TraceEvent::Kind::Span;
  e.domain = domain;
  e.pid = pid;
  e.tid = tid;
  e.start = start;
  e.end = end;
  e.seq = next_seq_++;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceRecorder::instant(Domain domain, int pid, int tid, double ts,
                            std::string name, std::string cat,
                            std::string args) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceEvent e;
  e.kind = TraceEvent::Kind::Instant;
  e.domain = domain;
  e.pid = pid;
  e.tid = tid;
  e.start = ts;
  e.seq = next_seq_++;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceRecorder::counter(Domain domain, int pid, int tid, double ts,
                            std::string name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceEvent e;
  e.kind = TraceEvent::Kind::Counter;
  e.domain = domain;
  e.pid = pid;
  e.tid = tid;
  e.start = ts;
  e.value = value;
  e.seq = next_seq_++;
  e.name = std::move(name);
  e.cat = "counter";
  events_.push_back(std::move(e));
}

void TraceRecorder::flow_point(Domain domain, int pid, int tid, double ts,
                               bool start, int flow_id, std::string name,
                               std::string cat) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceEvent e;
  e.kind = start ? TraceEvent::Kind::FlowStart : TraceEvent::Kind::FlowEnd;
  e.domain = domain;
  e.pid = pid;
  e.tid = tid;
  e.start = ts;
  e.flow_id = flow_id;
  e.seq = next_seq_++;
  e.name = std::move(name);
  e.cat = std::move(cat);
  events_.push_back(std::move(e));
}

void TraceRecorder::bump(const std::string& metric, double delta) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[metric] += delta;
}

void TraceRecorder::set_metric(const std::string& metric, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[metric] = value;
}

double TraceRecorder::metric(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second;
}

std::map<std::string, double> TraceRecorder::metrics_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

double TraceRecorder::wall_now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  metrics_.clear();
  next_seq_ = 0;
}

std::string TraceRecorder::to_chrome_json(const ExportOptions& options) const {
  // Snapshot under the lock, render outside it.
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = events_;
  }
  if (!options.include_wall) {
    events.erase(std::remove_if(events.begin(), events.end(),
                                [](const TraceEvent& e) {
                                  return e.domain == Domain::Wall;
                                }),
                 events.end());
  }
  // Deterministic ordering: thread interleaving during recording must
  // not leak into the artifact.
  std::vector<long long> ts(events.size());
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ts[i] = ts_micros(events[i].domain, events[i].start);
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (ts[a] != ts[b]) return ts[a] < ts[b];
                     if (events[a].pid != events[b].pid)
                       return events[a].pid < events[b].pid;
                     if (events[a].tid != events[b].tid)
                       return events[a].tid < events[b].tid;
                     return events[a].seq < events[b].seq;
                   });

  std::ostringstream out;
  out << "[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
    out << "  ";
  };

  if (options.metadata) {
    std::vector<int> pids;
    for (const TraceEvent& e : events) pids.push_back(e.pid);
    std::sort(pids.begin(), pids.end());
    pids.erase(std::unique(pids.begin(), pids.end()), pids.end());
    for (int pid : pids) {
      sep();
      out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
          << ", \"tid\": 0, \"args\": {\"name\": \"" << track_label(pid)
          << "\"}}";
      sep();
      out << "{\"name\": \"process_sort_index\", \"ph\": \"M\", \"pid\": "
          << pid << ", \"tid\": 0, \"args\": {\"sort_index\": " << pid
          << "}}";
    }
  }

  for (std::size_t i : order) {
    const TraceEvent& e = events[i];
    const long long t = ts[i];
    switch (e.kind) {
      case TraceEvent::Kind::Span:
        sep();
        out << "{\"name\": \"" << json_escape(e.name) << "\", \"cat\": \""
            << json_escape(e.cat) << "\", \"ph\": \"X\", \"pid\": " << e.pid
            << ", \"tid\": " << e.tid << ", \"ts\": " << t
            << ", \"dur\": " << ts_micros(e.domain, e.end - e.start)
            << ", \"args\": {" << e.args << "}}";
        break;
      case TraceEvent::Kind::Instant:
        sep();
        out << "{\"name\": \"" << json_escape(e.name) << "\", \"cat\": \""
            << json_escape(e.cat)
            << "\", \"ph\": \"i\", \"s\": \"t\", \"pid\": " << e.pid
            << ", \"tid\": " << e.tid << ", \"ts\": " << t
            << ", \"args\": {" << e.args << "}}";
        break;
      case TraceEvent::Kind::Counter:
        sep();
        out << "{\"name\": \"" << json_escape(e.name)
            << "\", \"cat\": \"counter\", \"ph\": \"C\", \"pid\": " << e.pid
            << ", \"tid\": " << e.tid << ", \"ts\": " << t
            << ", \"args\": {\"value\": " << json_number(e.value) << "}}";
        break;
      case TraceEvent::Kind::FlowStart:
      case TraceEvent::Kind::FlowEnd:
        sep();
        out << "{\"name\": \"" << json_escape(e.name) << "\", \"cat\": \""
            << json_escape(e.cat) << "\", \"ph\": \""
            << (e.kind == TraceEvent::Kind::FlowStart ? 's' : 'f')
            << "\", \"id\": " << e.flow_id << ", \"pid\": " << e.pid
            << ", \"tid\": " << e.tid << ", \"ts\": " << t << "}";
        break;
    }
  }
  out << "\n]\n";
  return out.str();
}

std::string TraceRecorder::metrics_json() const {
  std::map<std::string, double> metrics;
  {
    std::lock_guard<std::mutex> lock(mu_);
    metrics = metrics_;
  }
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [key, value] : metrics) {
    out << (first ? "\n" : ",\n") << "  \"" << json_escape(key)
        << "\": " << json_number(value);
    first = false;
  }
  out << (first ? "}" : "\n}") << "\n";
  return out.str();
}

TraceRecorder* current() { return t_current; }

ScopedRecorder::ScopedRecorder(TraceRecorder& rec) : prev_(t_current) {
  t_current = &rec;
}

ScopedRecorder::~ScopedRecorder() { t_current = prev_; }

}  // namespace banger::obs

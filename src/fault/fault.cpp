#include "fault/fault.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>

#include "sched/schedule.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace banger::fault {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double parse_num(std::string_view s, int line) {
  double value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    fail(ErrorCode::Parse, "bad number `" + std::string(s) + "`", {line, 1});
  }
  return value;
}

/// key=value field lookup over whitespace tokens; throws on unknown keys.
struct Fields {
  explicit Fields(const std::vector<std::string_view>& tokens, int line)
      : line_(line) {
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const auto eq = tokens[i].find('=');
      if (eq == std::string_view::npos) {
        fail(ErrorCode::Parse,
             "expected key=value, got `" + std::string(tokens[i]) + "`",
             {line, 1});
      }
      keys_.push_back(tokens[i].substr(0, eq));
      values_.push_back(tokens[i].substr(eq + 1));
    }
  }

  double get(std::string_view key, double fallback = kInf) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == key) return parse_num(values_[i], line_);
    }
    if (fallback == kInf) {
      fail(ErrorCode::Parse, "missing field `" + std::string(key) + "`",
           {line_, 1});
    }
    return fallback;
  }

  void check_known(std::initializer_list<std::string_view> known) const {
    for (const auto& key : keys_) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        fail(ErrorCode::Parse, "unknown field `" + std::string(key) + "`",
             {line_, 1});
      }
    }
  }

 private:
  int line_;
  std::vector<std::string_view> keys_;
  std::vector<std::string_view> values_;
};

}  // namespace

bool FaultPlan::empty() const noexcept {
  return crashes_.empty() && slowdowns_.empty() && msg_loss_.prob <= 0.0 &&
         msg_delay_.jitter <= 0.0;
}

void FaultPlan::add_crash(ProcId proc, double at) {
  if (proc < 0) fail(ErrorCode::Machine, "crash on negative processor id");
  if (!(at >= 0)) fail(ErrorCode::Machine, "crash time must be >= 0");
  if (crash_time(proc).has_value()) {
    fail(ErrorCode::Machine, "processor " + std::to_string(proc) +
                                 " already crashes once (fail-stop)");
  }
  crashes_.push_back({proc, at});
}

void FaultPlan::add_slowdown(ProcId proc, double from, double to,
                             double factor) {
  if (proc < 0) fail(ErrorCode::Machine, "slowdown on negative processor id");
  if (!(from >= 0) || !(to > from)) {
    fail(ErrorCode::Machine, "slowdown window must satisfy 0 <= from < to");
  }
  if (!(factor >= 1.0)) {
    fail(ErrorCode::Machine, "slowdown factor must be >= 1");
  }
  slowdowns_.push_back({proc, from, to, factor});
}

void FaultPlan::set_msg_loss(MsgLossModel model) {
  if (!(model.prob >= 0.0) || model.prob >= 1.0) {
    fail(ErrorCode::Machine, "message loss probability must be in [0, 1)");
  }
  if (model.retries < 0) {
    fail(ErrorCode::Machine, "message retries must be >= 0");
  }
  if (!(model.backoff >= 0.0)) {
    fail(ErrorCode::Machine, "message backoff must be >= 0");
  }
  msg_loss_ = model;
}

void FaultPlan::set_msg_delay(MsgDelayModel model) {
  if (!(model.jitter >= 0.0)) {
    fail(ErrorCode::Machine, "message jitter must be >= 0");
  }
  msg_delay_ = model;
}

void FaultPlan::validate(int num_procs) const {
  for (const CrashFault& c : crashes_) {
    if (c.proc >= num_procs) {
      fail(ErrorCode::Machine, "fault plan crashes processor " +
                                   std::to_string(c.proc) + " of " +
                                   std::to_string(num_procs));
    }
  }
  for (const SlowdownFault& s : slowdowns_) {
    if (s.proc >= num_procs) {
      fail(ErrorCode::Machine, "fault plan slows processor " +
                                   std::to_string(s.proc) + " of " +
                                   std::to_string(num_procs));
    }
  }
}

std::optional<double> FaultPlan::crash_time(ProcId proc) const {
  for (const CrashFault& c : crashes_) {
    if (c.proc == proc) return c.at;
  }
  return std::nullopt;
}

std::vector<ProcId> FaultPlan::crashed_procs() const {
  std::vector<ProcId> procs;
  for (const CrashFault& c : crashes_) procs.push_back(c.proc);
  std::sort(procs.begin(), procs.end());
  return procs;
}

std::optional<double> FaultPlan::latest_crash_before(double horizon) const {
  std::optional<double> latest;
  for (const CrashFault& c : crashes_) {
    if (c.at <= horizon && (!latest || c.at > *latest)) latest = c.at;
  }
  return latest;
}

double FaultPlan::slowdown_factor(ProcId proc, double t) const {
  double factor = 1.0;
  for (const SlowdownFault& s : slowdowns_) {
    if (s.proc == proc && s.from <= t && t < s.to) {
      factor = std::max(factor, s.factor);
    }
  }
  return factor;
}

double FaultPlan::task_finish(ProcId proc, double start,
                              double nominal) const {
  if (nominal <= 0) return start;
  double t = start;
  double remaining = nominal;  // fault-free seconds of work left
  for (;;) {
    const double factor = slowdown_factor(proc, t);
    // Next window boundary strictly after t on this processor.
    double boundary = kInf;
    for (const SlowdownFault& s : slowdowns_) {
      if (s.proc != proc) continue;
      if (s.from > t) boundary = std::min(boundary, s.from);
      if (s.to > t) boundary = std::min(boundary, s.to);
    }
    if (boundary == kInf || (boundary - t) / factor >= remaining) {
      return t + remaining * factor;
    }
    remaining -= (boundary - t) / factor;
    t = boundary;
  }
}

bool FaultPlan::perturbs_messages() const noexcept {
  return msg_loss_.prob > 0.0 || msg_delay_.jitter > 0.0;
}

MsgFate FaultPlan::msg_fate(graph::EdgeId e, ProcId from, ProcId to) const {
  // Keyed on (seed, edge, from, to) so the answer does not depend on the
  // order the simulator processes deliveries in.
  std::uint64_t key = seed_;
  key = key * 0x100000001B3ull + static_cast<std::uint64_t>(e) + 1;
  key = key * 0x100000001B3ull +
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) + 1;
  key = key * 0x100000001B3ull +
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(to)) + 1;
  util::Rng rng(key);
  MsgFate fate;
  while (fate.attempts <= msg_loss_.retries && rng.chance(msg_loss_.prob)) {
    ++fate.attempts;
  }
  fate.jitter_fraction = rng.next_double();
  return fate;
}

std::string FaultPlan::to_text() const {
  std::ostringstream out;
  out << "faultplan " << (name_.empty() ? "unnamed" : name_)
      << " seed=" << seed_ << "\n";
  for (const CrashFault& c : crashes_) {
    out << "crash proc=" << c.proc << " at=" << util::format_double(c.at, 17)
        << "\n";
  }
  for (const SlowdownFault& s : slowdowns_) {
    out << "slow proc=" << s.proc << " from=" << util::format_double(s.from, 17)
        << " to=" << util::format_double(s.to, 17)
        << " factor=" << util::format_double(s.factor, 17) << "\n";
  }
  if (msg_loss_.prob > 0.0) {
    out << "msgloss prob=" << util::format_double(msg_loss_.prob, 17)
        << " retries=" << msg_loss_.retries
        << " backoff=" << util::format_double(msg_loss_.backoff, 17) << "\n";
  }
  if (msg_delay_.jitter > 0.0) {
    out << "msgdelay jitter=" << util::format_double(msg_delay_.jitter, 17)
        << "\n";
  }
  return out.str();
}

FaultPlan FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  bool have_header = false;
  int lineno = 0;
  for (auto raw : util::split(text, '\n')) {
    ++lineno;
    auto hash = raw.find('#');
    if (hash != std::string_view::npos) raw = raw.substr(0, hash);
    const auto line = util::trim(raw);
    if (line.empty()) continue;
    auto tokens = util::split_ws(line);

    if (tokens[0] == "faultplan") {
      if (have_header) {
        fail(ErrorCode::Parse, "duplicate faultplan header", {lineno, 1});
      }
      if (tokens.size() < 2) {
        fail(ErrorCode::Parse, "expected `faultplan <name> [seed=N]`",
             {lineno, 1});
      }
      plan.name_ = std::string(tokens[1]);
      std::vector<std::string_view> rest(tokens.begin() + 1, tokens.end());
      Fields fields(rest, lineno);
      fields.check_known({"seed"});
      plan.seed_ = static_cast<std::uint64_t>(fields.get("seed", 1.0));
      have_header = true;
      continue;
    }
    if (!have_header) {
      fail(ErrorCode::Parse, "fault directive before faultplan header",
           {lineno, 1});
    }
    Fields fields(tokens, lineno);
    if (tokens[0] == "crash") {
      fields.check_known({"proc", "at"});
      plan.add_crash(static_cast<ProcId>(fields.get("proc")),
                     fields.get("at"));
    } else if (tokens[0] == "slow") {
      fields.check_known({"proc", "from", "to", "factor"});
      plan.add_slowdown(static_cast<ProcId>(fields.get("proc")),
                        fields.get("from"), fields.get("to"),
                        fields.get("factor"));
    } else if (tokens[0] == "msgloss") {
      fields.check_known({"prob", "retries", "backoff"});
      MsgLossModel model;
      model.prob = fields.get("prob");
      model.retries = static_cast<int>(fields.get("retries", 3.0));
      model.backoff = fields.get("backoff", 0.0);
      plan.set_msg_loss(model);
    } else if (tokens[0] == "msgdelay") {
      fields.check_known({"jitter"});
      plan.set_msg_delay({fields.get("jitter")});
    } else {
      fail(ErrorCode::Parse,
           "unknown directive `" + std::string(tokens[0]) + "`", {lineno, 1});
    }
  }
  if (!have_header) {
    fail(ErrorCode::Parse, "missing faultplan header");
  }
  return plan;
}

void FaultPlan::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) fail(ErrorCode::Io, "cannot open `" + path + "` for writing");
  out << to_text();
  if (!out) fail(ErrorCode::Io, "error writing `" + path + "`");
}

FaultPlan FaultPlan::load(const std::string& path) {
  return parse(util::read_file(path));
}

FaultPlan plan_crash(ProcId proc, double at, std::uint64_t seed) {
  FaultPlan plan("crash_p" + std::to_string(proc), seed);
  plan.add_crash(proc, at);
  return plan;
}

FaultPlan plan_crash_busiest(const sched::Schedule& schedule, double fraction,
                             std::uint64_t seed) {
  if (!(fraction >= 0.0)) {
    fail(ErrorCode::Machine, "crash fraction must be >= 0");
  }
  std::vector<double> primary_busy(
      static_cast<std::size_t>(schedule.num_procs()), 0.0);
  for (const sched::Placement& p : schedule.placements()) {
    if (!p.duplicate) {
      primary_busy[static_cast<std::size_t>(p.proc)] += p.length();
    }
  }
  ProcId busiest = 0;
  for (ProcId p = 1; p < schedule.num_procs(); ++p) {
    if (primary_busy[static_cast<std::size_t>(p)] >
        primary_busy[static_cast<std::size_t>(busiest)]) {
      busiest = p;
    }
  }
  return plan_crash(busiest, fraction * schedule.makespan(), seed);
}

}  // namespace banger::fault

#include "machine/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "util/error.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace banger::machine {

namespace {

using util::split;
using util::split_ws;
using util::trim;

double parse_num(std::string_view s, int line) {
  double value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    fail(ErrorCode::Parse, "bad number `" + std::string(s) + "`", {line, 1});
  }
  return value;
}

std::unordered_map<std::string, std::string> parse_kv(
    const std::vector<std::string_view>& tokens, std::size_t first, int line) {
  std::unordered_map<std::string, std::string> kv;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    auto eq = tokens[i].find('=');
    if (eq == std::string_view::npos) {
      fail(ErrorCode::Parse,
           "expected key=value, got `" + std::string(tokens[i]) + "`",
           {line, 1});
    }
    kv.emplace(std::string(tokens[i].substr(0, eq)),
               std::string(tokens[i].substr(eq + 1)));
  }
  return kv;
}

int kv_int(const std::unordered_map<std::string, std::string>& kv,
           const std::string& key, int line) {
  auto it = kv.find(key);
  if (it == kv.end()) {
    fail(ErrorCode::Parse, "missing `" + key + "=`", {line, 1});
  }
  return static_cast<int>(parse_num(it->second, line));
}

/// Rejects a topology of more than kMaxProcs processors at its line,
/// before anything is allocated. Counts are doubles, so no product of
/// the keys overflows.
void check_size(const std::string& kind,
                const std::unordered_map<std::string, std::string>& kv,
                int line) {
  auto num = [&](const std::string& key) -> double {
    auto it = kv.find(key);
    return it == kv.end() ? 0 : parse_num(it->second, line);
  };
  double procs = 0;
  if (kind == "hypercube") {
    const double dim = num("dim");
    if (dim > 12) procs = std::pow(2.0, std::min(dim, 64.0));
  } else if (kind == "mesh" || kind == "torus") {
    procs = std::max(0.0, num("rows")) * std::max(0.0, num("cols"));
  } else {
    procs = num("procs");
  }
  if (procs > kMaxProcs) {
    fail(ErrorCode::Limit,
         "topology " + kind + " has " + util::format_double(procs) +
             " processors, more than the " + std::to_string(kMaxProcs) +
             " supported",
         {line, 1});
  }
}

Topology parse_topology(const std::vector<std::string_view>& tokens,
                        int line) {
  if (tokens.size() < 2) {
    fail(ErrorCode::Parse, "expected `topology <kind> ...`", {line, 1});
  }
  const std::string kind = util::to_lower(tokens[1]);
  auto kv = parse_kv(tokens, 2, line);
  check_size(kind, kv, line);
  if (kind == "hypercube") return Topology::hypercube(kv_int(kv, "dim", line));
  if (kind == "mesh")
    return Topology::mesh(kv_int(kv, "rows", line), kv_int(kv, "cols", line));
  if (kind == "torus")
    return Topology::torus(kv_int(kv, "rows", line), kv_int(kv, "cols", line));
  if (kind == "tree")
    return Topology::tree(kv_int(kv, "arity", line), kv_int(kv, "procs", line));
  if (kind == "star") return Topology::star(kv_int(kv, "procs", line));
  if (kind == "ring") return Topology::ring(kv_int(kv, "procs", line));
  if (kind == "chain") return Topology::chain(kv_int(kv, "procs", line));
  if (kind == "full" || kind == "fully-connected")
    return Topology::fully_connected(kv_int(kv, "procs", line));
  if (kind == "custom") {
    const int procs = kv_int(kv, "procs", line);
    std::vector<std::pair<int, int>> links;
    auto it = kv.find("links");
    if (it != kv.end()) {
      for (auto part : split(it->second, ',')) {
        auto ends = split(part, '-');
        if (ends.size() != 2) {
          fail(ErrorCode::Parse, "bad link `" + std::string(part) + "`",
               {line, 1});
        }
        links.emplace_back(static_cast<int>(parse_num(ends[0], line)),
                           static_cast<int>(parse_num(ends[1], line)));
      }
    }
    return Topology::custom("custom" + std::to_string(procs), procs, links);
  }
  fail(ErrorCode::Parse, "unknown topology kind `" + kind + "`", {line, 1});
}

}  // namespace

Machine parse_machine(std::string_view text) {
  std::string name = "machine";
  std::optional<Topology> topo;
  MachineParams params;
  std::vector<std::pair<ProcId, double>> factors;

  int lineno = 0;
  for (auto raw : split(text, '\n')) {
    ++lineno;
    auto hash = raw.find('#');
    if (hash != std::string_view::npos) raw = raw.substr(0, hash);
    auto line = trim(raw);
    if (line.empty()) continue;
    auto tokens = split_ws(line);
    const std::string head = util::to_lower(tokens[0]);

    auto one_number = [&]() -> double {
      if (tokens.size() != 2) {
        fail(ErrorCode::Parse, "expected `" + head + " <value>`", {lineno, 1});
      }
      return parse_num(tokens[1], lineno);
    };

    if (head == "machine") {
      if (tokens.size() != 2) {
        fail(ErrorCode::Parse, "expected `machine <name>`", {lineno, 1});
      }
      name = std::string(tokens[1]);
    } else if (head == "topology") {
      topo = parse_topology(tokens, lineno);
    } else if (head == "speed") {
      params.processor_speed = one_number();
    } else if (head == "process_startup") {
      params.process_startup = one_number();
    } else if (head == "message_startup") {
      params.message_startup = one_number();
    } else if (head == "bandwidth") {
      params.bytes_per_second = one_number();
    } else if (head == "per_hop_latency") {
      params.per_hop_latency = one_number();
    } else if (head == "routing") {
      if (tokens.size() != 2) {
        fail(ErrorCode::Parse, "expected `routing <mode>`", {lineno, 1});
      }
      const std::string mode = util::to_lower(tokens[1]);
      if (mode == "store-and-forward") {
        params.routing = Routing::StoreAndForward;
      } else if (mode == "cut-through") {
        params.routing = Routing::CutThrough;
      } else {
        fail(ErrorCode::Parse, "unknown routing `" + mode + "`", {lineno, 1});
      }
    } else if (head == "speed_factor") {
      if (tokens.size() != 3) {
        fail(ErrorCode::Parse, "expected `speed_factor <proc> <factor>`",
             {lineno, 1});
      }
      factors.emplace_back(static_cast<ProcId>(parse_num(tokens[1], lineno)),
                           parse_num(tokens[2], lineno));
    } else {
      fail(ErrorCode::Parse, "unknown directive `" + head + "`", {lineno, 1});
    }
  }

  if (!topo) {
    fail(ErrorCode::Parse, "machine description lacks a topology line");
  }
  Machine machine(std::move(*topo), params, std::move(name));
  for (auto [p, f] : factors) {
    if (p < 0 || p >= machine.num_procs()) {
      fail(ErrorCode::Machine,
           "speed_factor processor " + std::to_string(p) + " out of range");
    }
    machine.set_speed_factor(p, f);
  }
  return machine;
}

Machine load_machine(const std::string& path) {
  return parse_machine(util::read_file(path));
}

std::string to_text(const Machine& machine) {
  std::ostringstream out;
  out << "machine " << machine.name() << "\n";

  const Topology& t = machine.topology();
  out << "topology ";
  switch (t.kind()) {
    case TopologyKind::Hypercube: {
      int dim = 0;
      while ((1 << dim) < t.num_procs()) ++dim;
      out << "hypercube dim=" << dim;
      break;
    }
    case TopologyKind::FullyConnected:
      out << "full procs=" << t.num_procs();
      break;
    case TopologyKind::Star:
      out << "star procs=" << t.num_procs();
      break;
    case TopologyKind::Ring:
      out << "ring procs=" << t.num_procs();
      break;
    case TopologyKind::Chain:
      out << "chain procs=" << t.num_procs();
      break;
    default: {
      // Mesh/torus/tree factory arguments are not stored; emit the
      // faithful link list instead.
      out << "custom procs=" << t.num_procs() << " links=";
      bool first = true;
      for (ProcId a = 0; a < t.num_procs(); ++a) {
        for (ProcId b : t.neighbors(a)) {
          if (a < b) {
            if (!first) out << ',';
            out << a << '-' << b;
            first = false;
          }
        }
      }
      break;
    }
  }
  out << "\n";

  const MachineParams& p = machine.params();
  out << "speed " << util::format_double_exact(p.processor_speed) << "\n";
  out << "process_startup " << util::format_double_exact(p.process_startup)
      << "\n";
  out << "message_startup " << util::format_double_exact(p.message_startup)
      << "\n";
  out << "bandwidth " << util::format_double_exact(p.bytes_per_second) << "\n";
  out << "per_hop_latency " << util::format_double_exact(p.per_hop_latency)
      << "\n";
  out << "routing " << to_string(p.routing) << "\n";
  for (ProcId q = 0; q < machine.num_procs(); ++q) {
    if (machine.speed_factor(q) != 1.0) {
      out << "speed_factor " << q << ' '
          << util::format_double_exact(machine.speed_factor(q)) << "\n";
    }
  }
  return out.str();
}

void save_machine(const Machine& machine, const std::string& path) {
  std::ofstream out(path);
  if (!out) fail(ErrorCode::Io, "cannot open `" + path + "` for writing");
  out << to_text(machine);
  if (!out) fail(ErrorCode::Io, "error writing `" + path + "`");
}

}  // namespace banger::machine

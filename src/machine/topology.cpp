#include "machine/topology.hpp"

#include <algorithm>
#include <deque>

#include "util/error.hpp"

namespace banger::machine {

namespace {
void check_procs(std::int64_t num_procs, int minimum = 1) {
  if (num_procs < minimum) {
    fail(ErrorCode::Machine, "topology needs at least " +
                                 std::to_string(minimum) + " processors, got " +
                                 std::to_string(num_procs));
  }
  if (num_procs > kMaxProcs) {
    fail(ErrorCode::Limit, "topology has " + std::to_string(num_procs) +
                               " processors, more than the " +
                               std::to_string(kMaxProcs) + " supported");
  }
}
}  // namespace

std::string_view to_string(TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::FullyConnected: return "fully-connected";
    case TopologyKind::Hypercube: return "hypercube";
    case TopologyKind::Mesh: return "mesh";
    case TopologyKind::Torus: return "torus";
    case TopologyKind::Tree: return "tree";
    case TopologyKind::Star: return "star";
    case TopologyKind::Ring: return "ring";
    case TopologyKind::Chain: return "chain";
    case TopologyKind::Custom: return "custom";
  }
  return "unknown";
}

Topology::Topology(TopologyKind kind, std::string name, int num_procs)
    : kind_(kind), name_(std::move(name)), num_procs_(num_procs) {
  adj_.resize(static_cast<std::size_t>(num_procs));
}

void Topology::add_link(ProcId a, ProcId b) {
  BANGER_ASSERT(a >= 0 && a < num_procs_ && b >= 0 && b < num_procs_ && a != b,
                "bad link endpoints");
  adj_[static_cast<std::size_t>(a)].push_back(b);
  adj_[static_cast<std::size_t>(b)].push_back(a);
  ++num_links_;
}

void Topology::finalize() {
  for (auto& nbrs : adj_) std::sort(nbrs.begin(), nbrs.end());

  const auto n = static_cast<std::size_t>(num_procs_);
  hop_.assign(n * n, -1);
  for (std::size_t s = 0; s < n; ++s) {
    int* row = hop_.data() + s * n;
    row[s] = 0;
    std::deque<ProcId> queue{static_cast<ProcId>(s)};
    while (!queue.empty()) {
      const ProcId u = queue.front();
      queue.pop_front();
      for (ProcId v : adj_[static_cast<std::size_t>(u)]) {
        if (row[v] < 0) {
          row[v] = row[u] + 1;
          queue.push_back(v);
        }
      }
    }
  }
  for (int d : hop_) {
    if (d < 0) {
      fail(ErrorCode::Machine, "topology `" + name_ + "` is disconnected");
    }
  }
}

Topology Topology::fully_connected(int num_procs) {
  check_procs(num_procs);
  Topology t(TopologyKind::FullyConnected,
             "full" + std::to_string(num_procs), num_procs);
  for (ProcId a = 0; a < num_procs; ++a)
    for (ProcId b = a + 1; b < num_procs; ++b) t.add_link(a, b);
  t.finalize();
  return t;
}

Topology Topology::hypercube(int dim) {
  if (dim < 0 || dim > 20) {
    fail(ErrorCode::Machine,
         "hypercube dimension must be in [0,20], got " + std::to_string(dim));
  }
  const int p = 1 << dim;
  check_procs(p);
  Topology t(TopologyKind::Hypercube,
             "hypercube" + std::to_string(p), p);
  for (ProcId a = 0; a < p; ++a) {
    for (int bit = 0; bit < dim; ++bit) {
      const ProcId b = a ^ (1 << bit);
      if (a < b) t.add_link(a, b);
    }
  }
  t.finalize();
  return t;
}

Topology Topology::mesh(int rows, int cols) {
  check_procs(rows);
  check_procs(cols);
  check_procs(std::int64_t{rows} * cols);
  const int p = rows * cols;
  Topology t(TopologyKind::Mesh,
             "mesh" + std::to_string(rows) + "x" + std::to_string(cols), p);
  auto id = [cols](int r, int c) { return static_cast<ProcId>(r * cols + c); };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) t.add_link(id(r, c), id(r, c + 1));
      if (r + 1 < rows) t.add_link(id(r, c), id(r + 1, c));
    }
  }
  t.finalize();
  return t;
}

Topology Topology::torus(int rows, int cols) {
  check_procs(rows);
  check_procs(cols);
  check_procs(std::int64_t{rows} * cols);
  const int p = rows * cols;
  Topology t(TopologyKind::Torus,
             "torus" + std::to_string(rows) + "x" + std::to_string(cols), p);
  auto id = [cols](int r, int c) { return static_cast<ProcId>(r * cols + c); };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      // Wraparound links; avoid duplicating the 2-node wrap (a ring of two
      // columns would otherwise get a double link).
      if (cols > 1 && (c + 1 < cols || cols > 2)) {
        t.add_link(id(r, c), id(r, (c + 1) % cols));
      }
      if (rows > 1 && (r + 1 < rows || rows > 2)) {
        t.add_link(id(r, c), id((r + 1) % rows, c));
      }
    }
  }
  t.finalize();
  return t;
}

Topology Topology::tree(int arity, int num_procs) {
  check_procs(num_procs);
  if (arity < 1) {
    fail(ErrorCode::Machine, "tree arity must be >= 1");
  }
  Topology t(TopologyKind::Tree,
             "tree" + std::to_string(arity) + "x" + std::to_string(num_procs),
             num_procs);
  for (ProcId child = 1; child < num_procs; ++child) {
    const ProcId parent = (child - 1) / arity;
    t.add_link(parent, child);
  }
  t.finalize();
  return t;
}

Topology Topology::star(int num_procs) {
  check_procs(num_procs);
  Topology t(TopologyKind::Star, "star" + std::to_string(num_procs),
             num_procs);
  for (ProcId leaf = 1; leaf < num_procs; ++leaf) t.add_link(0, leaf);
  t.finalize();
  return t;
}

Topology Topology::ring(int num_procs) {
  check_procs(num_procs, 3);
  Topology t(TopologyKind::Ring, "ring" + std::to_string(num_procs),
             num_procs);
  for (ProcId a = 0; a < num_procs; ++a)
    t.add_link(a, static_cast<ProcId>((a + 1) % num_procs));
  t.finalize();
  return t;
}

Topology Topology::chain(int num_procs) {
  check_procs(num_procs);
  Topology t(TopologyKind::Chain, "chain" + std::to_string(num_procs),
             num_procs);
  for (ProcId a = 0; a + 1 < num_procs; ++a) t.add_link(a, a + 1);
  t.finalize();
  return t;
}

Topology Topology::custom(std::string name, int num_procs,
                          const std::vector<std::pair<int, int>>& links) {
  check_procs(num_procs);
  Topology t(TopologyKind::Custom, std::move(name), num_procs);
  for (auto [a, b] : links) {
    if (a < 0 || a >= num_procs || b < 0 || b >= num_procs || a == b) {
      fail(ErrorCode::Machine, "bad link (" + std::to_string(a) + "," +
                                   std::to_string(b) + ") in custom topology");
    }
    if (!t.linked(a, b)) t.add_link(a, b);
  }
  t.finalize();
  return t;
}

bool Topology::linked(ProcId a, ProcId b) const {
  BANGER_ASSERT(a >= 0 && a < num_procs_ && b >= 0 && b < num_procs_,
                "processor id out of range");
  if (a == b) return false;
  const auto& nbrs = adj_[static_cast<std::size_t>(a)];
  return std::find(nbrs.begin(), nbrs.end(), b) != nbrs.end();
}

int Topology::hops(ProcId a, ProcId b) const {
  BANGER_ASSERT(a >= 0 && a < num_procs_ && b >= 0 && b < num_procs_,
                "processor id out of range");
  return hop_[static_cast<std::size_t>(a) * static_cast<std::size_t>(num_procs_) +
              static_cast<std::size_t>(b)];
}

std::vector<ProcId> Topology::route(ProcId a, ProcId b) const {
  std::vector<ProcId> path{a};
  ProcId cur = a;
  while (cur != b) {
    // Greedy descent on hop distance; smallest neighbor id wins ties.
    ProcId next = -1;
    for (ProcId v : adj_[static_cast<std::size_t>(cur)]) {
      if (hops(v, b) == hops(cur, b) - 1) {
        next = v;
        break;  // neighbors are sorted: first match is smallest
      }
    }
    BANGER_ASSERT(next >= 0, "hop matrix inconsistent with adjacency");
    path.push_back(next);
    cur = next;
  }
  return path;
}

const std::vector<ProcId>& Topology::neighbors(ProcId p) const {
  BANGER_ASSERT(p >= 0 && p < num_procs_, "processor id out of range");
  return adj_[static_cast<std::size_t>(p)];
}

int Topology::degree(ProcId p) const {
  return static_cast<int>(neighbors(p).size());
}

int Topology::max_degree() const {
  int best = 0;
  for (ProcId p = 0; p < num_procs_; ++p) best = std::max(best, degree(p));
  return best;
}

int Topology::diameter() const {
  return *std::max_element(hop_.begin(), hop_.end());
}

int Topology::bisection_width() const {
  const int n = num_procs_;
  if (n < 2) return 0;
  const int half = n / 2;
  switch (kind_) {
    case TopologyKind::FullyConnected:
      // Every cross pair is a link: floor(n/2) * ceil(n/2).
      return half * (n - half);
    case TopologyKind::Hypercube:
      return n / 2;
    case TopologyKind::Star:
      // Any balanced cut isolates ~half the leaves from the hub.
      return half;
    case TopologyKind::Tree:
    case TopologyKind::Chain:
      return 1;
    case TopologyKind::Ring:
      return 2;
    case TopologyKind::Mesh:
    case TopologyKind::Torus:
    case TopologyKind::Custom: {
      // Exhaustive balanced bipartition over <= 20 nodes.
      if (n > 20) {
        fail(ErrorCode::Limit,
             "bisection width of irregular topologies limited to 20 "
             "processors");
      }
      int best = num_links_ + 1;
      const std::uint32_t all = (n == 32) ? 0xffffffffu
                                          : ((1u << n) - 1u);
      for (std::uint32_t side = 0; side <= all; ++side) {
        if (__builtin_popcount(side) != half) continue;
        int cut = 0;
        for (ProcId a = 0; a < n; ++a) {
          const bool in_a = (side >> a) & 1u;
          for (ProcId b : adj_[static_cast<std::size_t>(a)]) {
            if (a < b && in_a != ((side >> b) & 1u)) ++cut;
          }
        }
        best = std::min(best, cut);
      }
      return best;
    }
  }
  return 0;
}

double Topology::average_distance() const {
  if (num_procs_ < 2) return 0.0;
  long long sum = 0;
  for (int d : hop_) sum += d;
  const double pairs =
      static_cast<double>(num_procs_) * (num_procs_ - 1);
  return static_cast<double>(sum) / pairs;
}

}  // namespace banger::machine

// banger/machine/topology.hpp
//
// Interconnection network topologies of the target machine, entered in
// Banger "as another graph" (paper Fig. 2). The paper lists hypercubes,
// meshes, trees, stars, and fully-connected networks; rings and chains
// are included for generality (PPSE schedules onto *arbitrary* target
// machines). A topology is an undirected graph over processors plus its
// all-pairs hop-distance matrix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace banger::machine {

using ProcId = std::int32_t;

/// The most processors a topology may have. The hop matrix alone is
/// quadratic (a 16000-processor ring took 3.6 s and 982 MiB to build),
/// and serve takes machine text from its clients.
inline constexpr int kMaxProcs = 4096;

enum class TopologyKind : std::uint8_t {
  FullyConnected,
  Hypercube,
  Mesh,
  Torus,
  Tree,
  Star,
  Ring,
  Chain,
  Custom,
};

std::string_view to_string(TopologyKind kind) noexcept;

/// Every factory throws Error{Limit} past kMaxProcs processors.
class Topology {
 public:
  /// Every processor linked to every other.
  static Topology fully_connected(int num_procs);
  /// Binary hypercube of dimension `dim` (2^dim processors, dim >= 0).
  static Topology hypercube(int dim);
  /// `rows` x `cols` 2-D mesh (no wraparound).
  static Topology mesh(int rows, int cols);
  /// `rows` x `cols` 2-D torus (wraparound mesh).
  static Topology torus(int rows, int cols);
  /// Complete `arity`-ary tree filled level by level with `num_procs`
  /// nodes; node 0 is the root.
  static Topology tree(int arity, int num_procs);
  /// Star: node 0 is the hub, all others are leaves.
  static Topology star(int num_procs);
  /// Cycle of `num_procs` >= 3 processors.
  static Topology ring(int num_procs);
  /// Linear array.
  static Topology chain(int num_procs);
  /// User-drawn topology from an explicit undirected link list.
  static Topology custom(std::string name, int num_procs,
                         const std::vector<std::pair<int, int>>& links);

  [[nodiscard]] TopologyKind kind() const noexcept { return kind_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] int num_procs() const noexcept { return num_procs_; }

  /// True if a direct link exists (a != b required).
  [[nodiscard]] bool linked(ProcId a, ProcId b) const;
  /// Hop distance; 0 for a == b. The network must be connected (the
  /// factories guarantee it; custom() validates it).
  [[nodiscard]] int hops(ProcId a, ProcId b) const;
  /// One shortest path a..b inclusive, deterministic (smallest next hop).
  [[nodiscard]] std::vector<ProcId> route(ProcId a, ProcId b) const;

  [[nodiscard]] const std::vector<ProcId>& neighbors(ProcId p) const;
  [[nodiscard]] int degree(ProcId p) const;
  [[nodiscard]] int max_degree() const;
  /// Undirected link count.
  [[nodiscard]] int num_links() const noexcept { return num_links_; }
  /// Largest hop distance between any pair.
  [[nodiscard]] int diameter() const;
  /// Mean hop distance over distinct ordered pairs.
  [[nodiscard]] double average_distance() const;
  /// Minimum links cut by any balanced bipartition. Closed forms for the
  /// regular families; exhaustive search for custom topologies up to 20
  /// processors (Error{Limit} beyond — the problem is NP-hard).
  [[nodiscard]] int bisection_width() const;

 private:
  Topology(TopologyKind kind, std::string name, int num_procs);

  void add_link(ProcId a, ProcId b);
  /// Computes the hop matrix via BFS from every node; throws
  /// Error{Machine} if the network is disconnected.
  void finalize();

  TopologyKind kind_ = TopologyKind::Custom;
  std::string name_;
  int num_procs_ = 0;
  int num_links_ = 0;
  std::vector<std::vector<ProcId>> adj_;
  std::vector<int> hop_;  // row-major num_procs x num_procs
};

}  // namespace banger::machine

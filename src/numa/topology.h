// NUMA topology model.
//
// The MPSM algorithms make placement decisions (which node owns a run,
// which worker scans remote memory) against this topology. On a real
// multi-socket machine the topology is probed from /sys; on development
// machines a simulated topology with an explicit distance matrix is used
// so that placement logic and local/remote accounting behave exactly as
// they would on the paper's 4-socket HyPer1 server.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mpsm::numa {

/// Identifies a NUMA node (socket). Nodes are dense, starting at 0.
using NodeId = uint32_t;

/// Describes the node/core layout of a (possibly simulated) machine.
class Topology {
 public:
  /// Builds a simulated topology with `num_nodes` nodes of
  /// `cores_per_node` cores each. The distance matrix uses the customary
  /// ACPI SLIT convention: 10 for local, `remote_distance` otherwise.
  static Topology Simulated(uint32_t num_nodes, uint32_t cores_per_node,
                            uint32_t remote_distance = 21);

  /// Probes the host topology from /sys/devices/system/node. Falls back
  /// to a single-node topology covering all online CPUs when the probe
  /// fails (e.g. inside minimal containers).
  static Topology Probe();

  /// The paper's evaluation machine: 4 sockets x 8 cores
  /// (Intel X7560, "HyPer1"), 2 hardware contexts per core.
  static Topology HyPer1();

  uint32_t num_nodes() const { return static_cast<uint32_t>(cores_of_node_.size()); }
  uint32_t num_cores() const { return num_cores_; }

  /// Node that owns a given core.
  NodeId NodeOfCore(uint32_t core) const { return node_of_core_[core]; }

  /// Cores belonging to a node.
  const std::vector<uint32_t>& CoresOfNode(NodeId node) const {
    return cores_of_node_[node];
  }

  /// SLIT-style distance between two nodes (10 == local).
  uint32_t Distance(NodeId from, NodeId to) const {
    return distance_[from * num_nodes() + to];
  }

  /// True when `from` and `to` are the same node.
  bool IsLocal(NodeId from, NodeId to) const { return from == to; }

  /// Assigns worker `w` of a team of `team_size` to a core, spreading
  /// workers round-robin across nodes first (socket-major) so that a
  /// T-worker team uses T distinct memory controllers where possible.
  ///
  /// `team_index` separates concurrent teams (the join service's lanes):
  /// team k starts k * ceil(team_size / num_nodes) cores further into
  /// each node, so teams whose workers fit the machine get disjoint
  /// cores, and placement wraps within the node once they do not. The
  /// node — w % num_nodes — never depends on `team_index`, so
  /// NodeForWorker (chunk homing, arenas, run nodes) is the same for
  /// every team. Team 0 is the placement of a standalone engine.
  uint32_t CoreForWorker(uint32_t w, uint32_t team_size,
                         uint32_t team_index = 0) const;

  /// Node hosting worker `w` under CoreForWorker placement (any team).
  NodeId NodeForWorker(uint32_t w, uint32_t team_size) const {
    return NodeOfCore(CoreForWorker(w, team_size));
  }

  /// Human-readable description, e.g. "4 nodes x 8 cores (simulated)".
  std::string ToString() const;

  bool simulated() const { return simulated_; }

 private:
  Topology() = default;

  std::vector<NodeId> node_of_core_;          // core -> node
  std::vector<std::vector<uint32_t>> cores_of_node_;  // node -> cores
  std::vector<uint32_t> distance_;            // row-major num_nodes^2
  uint32_t num_cores_ = 0;
  bool simulated_ = true;
};

}  // namespace mpsm::numa

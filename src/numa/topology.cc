#include "numa/topology.h"

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

namespace mpsm::numa {

Topology Topology::Simulated(uint32_t num_nodes, uint32_t cores_per_node,
                             uint32_t remote_distance) {
  Topology t;
  t.simulated_ = true;
  t.num_cores_ = num_nodes * cores_per_node;
  t.node_of_core_.resize(t.num_cores_);
  t.cores_of_node_.resize(num_nodes);
  for (uint32_t core = 0; core < t.num_cores_; ++core) {
    const NodeId node = core / cores_per_node;
    t.node_of_core_[core] = node;
    t.cores_of_node_[node].push_back(core);
  }
  t.distance_.assign(static_cast<size_t>(num_nodes) * num_nodes,
                     remote_distance);
  for (uint32_t n = 0; n < num_nodes; ++n) {
    t.distance_[n * num_nodes + n] = 10;
  }
  return t;
}

Topology Topology::HyPer1() {
  // Four X7560 sockets, eight physical cores each (Figure 11).
  return Simulated(/*num_nodes=*/4, /*cores_per_node=*/8,
                   /*remote_distance=*/21);
}

namespace {

// Parses a kernel cpulist like "0-3,8,10-11" into core ids.
std::vector<uint32_t> ParseCpuList(const char* list) {
  std::vector<uint32_t> cores;
  const char* p = list;
  while (*p != '\0' && *p != '\n') {
    char* end = nullptr;
    const long lo = std::strtol(p, &end, 10);
    if (end == p) break;
    long hi = lo;
    p = end;
    if (*p == '-') {
      ++p;
      hi = std::strtol(p, &end, 10);
      if (end == p) break;
      p = end;
    }
    for (long c = lo; c <= hi; ++c) cores.push_back(static_cast<uint32_t>(c));
    if (*p == ',') ++p;
  }
  return cores;
}

}  // namespace

Topology Topology::Probe() {
  std::vector<std::vector<uint32_t>> nodes;
  DIR* dir = opendir("/sys/devices/system/node");
  if (dir != nullptr) {
    for (dirent* entry = readdir(dir); entry != nullptr;
         entry = readdir(dir)) {
      unsigned node_id = 0;
      if (std::sscanf(entry->d_name, "node%u", &node_id) != 1) continue;
      char path[256];
      std::snprintf(path, sizeof(path),
                    "/sys/devices/system/node/node%u/cpulist", node_id);
      FILE* f = std::fopen(path, "r");
      if (f == nullptr) continue;
      char buf[4096];
      if (std::fgets(buf, sizeof(buf), f) != nullptr) {
        if (nodes.size() <= node_id) nodes.resize(node_id + 1);
        nodes[node_id] = ParseCpuList(buf);
      }
      std::fclose(f);
    }
    closedir(dir);
  }

  // Drop empty (memory-only) nodes and fall back when nothing was found.
  std::vector<std::vector<uint32_t>> populated;
  for (auto& cores : nodes) {
    if (!cores.empty()) populated.push_back(std::move(cores));
  }
  if (populated.empty()) {
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return Simulated(1, n > 0 ? static_cast<uint32_t>(n) : 1);
  }

  Topology t;
  t.simulated_ = false;
  t.cores_of_node_ = std::move(populated);
  const uint32_t num_nodes = static_cast<uint32_t>(t.cores_of_node_.size());
  uint32_t max_core = 0;
  for (uint32_t n = 0; n < num_nodes; ++n) {
    for (uint32_t core : t.cores_of_node_[n]) {
      max_core = core > max_core ? core : max_core;
    }
  }
  t.num_cores_ = max_core + 1;
  t.node_of_core_.assign(t.num_cores_, 0);
  for (uint32_t n = 0; n < num_nodes; ++n) {
    for (uint32_t core : t.cores_of_node_[n]) t.node_of_core_[core] = n;
  }
  t.distance_.assign(static_cast<size_t>(num_nodes) * num_nodes, 21);
  for (uint32_t n = 0; n < num_nodes; ++n) t.distance_[n * num_nodes + n] = 10;
  return t;
}

uint32_t Topology::CoreForWorker(uint32_t w, uint32_t team_size,
                                 uint32_t team_index) const {
  // Socket-major round robin: worker 0 -> node 0 core 0,
  // worker 1 -> node 1 core 0, ... so memory bandwidth spreads across
  // controllers even for small teams, mirroring the paper's placement.
  // Team k is offset by whole node rounds (the cores per node a team
  // occupies), keeping every worker on the same node for every team.
  const uint32_t nodes = num_nodes();
  const NodeId node = w % nodes;
  const auto& cores = cores_of_node_[node];
  const uint64_t rounds_per_team = (team_size + nodes - 1) / nodes;
  const uint64_t slot = w / nodes + uint64_t{team_index} * rounds_per_team;
  return cores[slot % cores.size()];
}

std::string Topology::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%u nodes x %zu cores (%s)", num_nodes(),
                cores_of_node_.empty() ? size_t{0} : cores_of_node_[0].size(),
                simulated_ ? "simulated" : "probed");
  return buf;
}

}  // namespace mpsm::numa

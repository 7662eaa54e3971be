// Execution statistics returned by every join algorithm.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "parallel/counters.h"
#include "parallel/worker_team.h"

namespace mpsm {

/// Everything a caller (tests, benches, the machine model) needs to
/// know about one join execution.
struct JoinRunInfo {
  /// End-to-end wall time observed by the driver.
  double wall_seconds = 0;

  /// Sum over phases of the slowest worker's phase time — the
  /// barrier-to-barrier response time the paper's charts show.
  double critical_path_seconds = 0;

  /// Per-worker stats (index == worker id).
  std::vector<WorkerStats> workers;

  /// Stats summed over workers.
  WorkerStats aggregate;

  /// Core each worker was placed on (index == worker id): the team's
  /// numa::Topology::CoreForWorker placement for its lane.
  std::vector<uint32_t> worker_cores;

  /// Output tuples delivered to consumers.
  uint64_t output_tuples = 0;

  /// Max over workers of each phase's wall time (phase breakdown).
  std::array<double, kNumJoinPhases> MaxPhaseSeconds() const;

  /// Multi-line human-readable phase breakdown.
  std::string PhaseBreakdownString() const;
};

/// Gathers a JoinRunInfo from a team after Run() returned.
JoinRunInfo CollectRunInfo(const WorkerTeam& team, double wall_seconds);

}  // namespace mpsm

#include "core/join_stats.h"

#include <algorithm>
#include <cstdio>

namespace mpsm {

std::array<double, kNumJoinPhases> JoinRunInfo::MaxPhaseSeconds() const {
  std::array<double, kNumJoinPhases> result{};
  for (const WorkerStats& stats : workers) {
    for (uint32_t p = 0; p < kNumJoinPhases; ++p) {
      result[p] = std::max(result[p], stats.phase_seconds[p]);
    }
  }
  return result;
}

std::string JoinRunInfo::PhaseBreakdownString() const {
  const auto phases = MaxPhaseSeconds();
  std::string out;
  char buf[128];
  for (uint32_t p = 0; p < kNumJoinPhases; ++p) {
    std::snprintf(buf, sizeof(buf), "  %-24s %10.2f ms\n",
                  JoinPhaseName(static_cast<JoinPhase>(p)),
                  phases[p] * 1e3);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "  %-24s %10.2f ms\n", "critical path",
                critical_path_seconds * 1e3);
  out += buf;
  return out;
}

JoinRunInfo CollectRunInfo(const WorkerTeam& team, double wall_seconds) {
  JoinRunInfo info;
  info.wall_seconds = wall_seconds;
  info.critical_path_seconds = team.CriticalPathSeconds();
  info.workers.reserve(team.size());
  info.worker_cores.reserve(team.size());
  for (uint32_t w = 0; w < team.size(); ++w) {
    info.workers.push_back(team.stats(w));
    info.aggregate += team.stats(w);
    info.worker_cores.push_back(team.core(w));
  }
  info.output_tuples = info.aggregate.TotalCounters().output_tuples;
  return info;
}

}  // namespace mpsm

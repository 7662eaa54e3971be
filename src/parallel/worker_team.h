// Worker team: the unit of intra-operator parallelism.
//
// A WorkerTeam spawns T threads, pins each to a core chosen by the NUMA
// topology (socket-major round robin, offset by the team's service lane
// so concurrent lanes get disjoint cores — numa::Topology::
// CoreForWorker), gives each worker a private node-homed arena, and runs
// a job function on every worker. Workers coordinate only through the
// team barrier; there is no shared mutable state (commandment C3).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "numa/arena.h"
#include "numa/topology.h"
#include "obs/trace.h"
#include "parallel/barrier.h"
#include "parallel/counters.h"

namespace mpsm {

class DonationPool;
class WorkerTeam;

/// Everything a worker needs: identity, placement, barrier, stats sink,
/// and its local arena.
struct WorkerContext {
  uint32_t worker_id = 0;
  uint32_t team_size = 1;
  uint32_t core = 0;
  numa::NodeId node = 0;
  Barrier* barrier = nullptr;
  WorkerStats* stats = nullptr;
  numa::Arena* arena = nullptr;
  const numa::Topology* topology = nullptr;

  /// True when memory homed on `owner` is local to this worker.
  bool IsLocal(numa::NodeId owner) const { return owner == node; }

  /// Counters of the given phase for this worker.
  PerfCounters& Counters(JoinPhase phase) {
    return stats->phase_counters[phase];
  }
};

/// RAII phase timer: accumulates wall time into WorkerStats on scope exit.
class PhaseScope {
 public:
  PhaseScope(WorkerContext& ctx, JoinPhase phase);
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  WorkerContext& ctx_;
  JoinPhase phase_;
  double start_seconds_;
};

/// Spawns and joins a fixed-size team of pinned worker threads.
class WorkerTeam {
 public:
  /// Creates a team of `team_size` workers placed on `topology`.
  /// `lane` is the join-service lane the team serves (1-based; 0 =
  /// outside a service). Lane L >= 1 places its workers as topology
  /// team L - 1, so lane 1 and a standalone team share one placement
  /// and lanes get pairwise disjoint cores while they fit the machine.
  /// The lane also attributes donated morsels in traces
  /// (docs/observability.md).
  WorkerTeam(const numa::Topology& topology, uint32_t team_size,
             uint32_t lane = 0);
  ~WorkerTeam();

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  /// Runs `job(ctx)` on every worker thread and waits for completion.
  /// Per-worker stats are reset at the start of each Run. Each thread
  /// is pinned to core(w); a refused pin is advisory (the worker runs
  /// unpinned) and counts in mpsm_worker_pin_failures_total.
  void Run(const std::function<void(WorkerContext&)>& job);

  uint32_t size() const { return team_size_; }
  const numa::Topology& topology() const { return *topology_; }

  /// Core worker `w` is placed (and, where the OS allows, pinned) on.
  uint32_t core(uint32_t w) const { return cores_[w]; }

  /// Stats of worker `w` from the most recent Run.
  const WorkerStats& stats(uint32_t w) const { return stats_[w]; }

  /// Stats aggregated over all workers from the most recent Run.
  WorkerStats AggregateStats() const;

  /// Longest per-phase wall time over workers (the barrier-to-barrier
  /// duration of each phase), summed over phases.
  double CriticalPathSeconds() const;

  /// Arena of worker `w` (homed on that worker's node).
  numa::Arena& ArenaOf(uint32_t w) { return *arenas_[w]; }

  /// Opts this team into cross-session worker donation
  /// (parallel/donation.h): its guest-safe stealing phases are
  /// published to `pool`, and its workers help other sessions while
  /// waiting at phase barriers. Registers a fresh session id on first
  /// call per pool. nullptr opts back out.
  void set_donation(DonationPool* pool);
  DonationPool* donation() const { return donation_; }
  uint64_t donation_session() const { return donation_session_; }

  /// Attaches the current query's trace sink (obs/trace.h): Run
  /// installs it as every worker thread's current sink, so spans
  /// recorded anywhere under the job land in this query's trace.
  /// nullptr (the default) keeps tracing off. The engine sets this per
  /// Execute and clears it after.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }
  obs::TraceSink* trace() const { return trace_; }

  /// Service lane this team serves (placement and trace attribution);
  /// 0 outside a JoinService. Fixed at construction.
  uint32_t lane() const { return lane_; }

 private:
  const numa::Topology* topology_;
  uint32_t team_size_;
  uint32_t lane_;
  std::vector<uint32_t> cores_;  // worker -> pinned core
  Barrier barrier_;
  std::vector<WorkerStats> stats_;
  std::vector<std::unique_ptr<numa::Arena>> arenas_;
  DonationPool* donation_ = nullptr;
  uint64_t donation_session_ = 0;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace mpsm

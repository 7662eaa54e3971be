// JoinService — the concurrent multi-session front end (docs/service.md).
//
// One engine::Engine runs one query at a time on one worker team. A
// server sees many concurrent clients, and simply serializing their
// queries behind a mutex leaves throughput on the table three ways.
// JoinService accepts queued JoinSpecs from any thread and runs them on
// a small fleet of engine sessions ("lanes"), recovering that
// throughput with three mechanisms:
//
//  1. Admission control. A memory governor holds every *running* query's
//     planner-predicted footprint against a global budget. Queries that
//     would overflow it wait in the queue (backpressure instead of
//     OOM); queries whose working set exceeds the whole budget are
//     re-planned against a per-lane share so they spill through D-MPSM
//     ("down-budgeting"); only joins that cannot spill fail, with a
//     clean ResourceExhausted.
//  2. Elastic worker teams. All lanes share one DonationPool
//     (parallel/donation.h): a lane's workers idling at a phase barrier
//     execute guest-safe morsels of other lanes' phases instead.
//  3. Shared-sort batching. Compatible queued queries joining different
//     private inputs against the *same* public relation are coalesced:
//     the public input is sorted once (core/public_runs.h) and every
//     member joins against the shared runs, paying P-MPSM phase 1 once
//     per batch instead of once per query.
//
// Threading model: Submit/Wait/Cancel/Drain are safe from any thread.
// Each lane is a dedicated thread owning its Engine (team, calibrated
// cost model); queries never migrate between lanes mid-flight, so the
// per-lane recalibration feedback loop stays race-free.
//
//   service::JoinService svc(options);
//   auto id = svc.Submit(spec);           // returns immediately
//   auto report = svc.Wait(*id);          // blocks for this query only
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/run_cache.h"
#include "core/public_runs.h"
#include "engine/engine.h"
#include "numa/topology.h"
#include "obs/metrics.h"
#include "parallel/donation.h"
#include "util/status.h"

namespace mpsm::service {

/// Service-level tuning; per-query knobs stay on engine::JoinSpec.
struct ServiceOptions {
  /// Concurrent engine sessions. Each lane owns one Engine (one worker
  /// team); at most `lanes` queries execute at once.
  uint32_t lanes = 2;

  /// Queued-query cap; Submit past it fails with ResourceExhausted
  /// (explicit backpressure toward the client).
  size_t max_queue = 4096;

  /// Global RAM budget across all running queries; 0 = unlimited. The
  /// admission governor reserves each query's planner-predicted
  /// footprint against it.
  uint64_t memory_budget_bytes = 0;

  /// Global in-flight device-read budget for spilling (D-MPSM)
  /// queries; 0 = each lane's backend-derived default. Sliced evenly
  /// into per-lane shares via EngineOptions::dmpsm.io_max_inflight_bytes.
  uint64_t io_inflight_budget_bytes = 0;

  /// Coalesce compatible queued queries over one public input into a
  /// shared-sort batch (docs/service.md).
  bool shared_sort = true;

  /// Most queries per shared-sort batch (>= 1).
  uint32_t max_batch = 8;

  /// Share one DonationPool across the lanes' worker teams.
  bool donation = true;

  /// Capacity of the cross-query run cache shared by every lane
  /// (cache/run_cache.h): repeat joins of one public input reuse its
  /// sorted runs, Ingest appends delta runs merged on read, and idle
  /// lanes compact the delta log in the background. 0 disables the
  /// cache. Cached bytes are charged against memory_budget_bytes:
  /// admission pressure LRU-evicts base entries before a query waits.
  uint64_t run_cache_bytes = 0;

  /// Base options for every lane engine (workers, machine model,
  /// recalibrate, per-algorithm overrides). The service leaves
  /// memory_budget_bytes alone — admission is governed service-side.
  /// Set engine.recovery.enabled for crash-safe restartable spilling:
  /// a resubmitted query whose previous incarnation died mid-spill
  /// resumes from its durable manifest (docs/recovery.md,
  /// ServiceStats::resumed_queries).
  engine::EngineOptions engine;
};

/// Service-lifetime observability (all monotonic except the peaks).
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;   // Execute returned OK
  uint64_t failed = 0;      // Execute returned an error
  uint64_t cancelled = 0;   // Cancel() before admission / shutdown
  uint64_t rejected = 0;    // failed admission (queue full / never fits)
  /// Queries re-planned to spill because their in-memory working set
  /// exceeded the whole service budget.
  uint64_t down_budgeted = 0;
  /// Shared-sort groups executed with >= 2 members / their total size.
  uint64_t batches = 0;
  uint64_t batched_queries = 0;
  /// Queries that re-attached durable spill state from a crash-recovery
  /// manifest (docs/recovery.md): a resubmitted spilling query whose
  /// previous incarnation died mid-run picked up where it left off.
  /// Requires ServiceOptions::engine.recovery.enabled.
  uint64_t resumed_queries = 0;
  /// Morsels executed by guest workers across sessions (DonationPool).
  uint64_t donated_morsels = 0;
  uint64_t peak_queue_depth = 0;
  uint64_t peak_reserved_bytes = 0;

  /// Run-cache aggregate (all zero when run_cache_bytes == 0).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_installs = 0;
  uint64_t cache_evictions = 0;
  /// Delta-log merges performed by idle lanes (background compaction).
  uint64_t cache_compactions = 0;
  uint64_t cache_ingested_tuples = 0;
  uint64_t cache_resident_bytes = 0;
};

/// A concurrent join server over a fleet of engine sessions.
class JoinService {
 public:
  using QueryId = uint64_t;

  /// Probes the host topology once, shared by all lanes.
  explicit JoinService(ServiceOptions options = {});

  /// Uses an explicit (e.g. simulated) topology instead of probing.
  JoinService(const numa::Topology& topology, ServiceOptions options = {});

  /// Cancels still-queued queries, finishes running ones, joins lanes.
  ~JoinService();

  JoinService(const JoinService&) = delete;
  JoinService& operator=(const JoinService&) = delete;

  /// Enqueues one join. Returns immediately with a handle for Wait;
  /// fails fast only on structural errors (missing inputs/consumer,
  /// full queue, shutdown). The spec is copied; its pointees (relations,
  /// consumers, options, shared runs) must stay valid until Wait.
  Result<QueryId> Submit(const engine::JoinSpec& spec);

  /// Blocks until `id` finishes and returns its report (or the error
  /// that failed it — a cancelled query yields kCancelled, a query the
  /// governor can never admit yields kResourceExhausted). Consumes the
  /// handle: a second Wait on the same id is InvalidArgument.
  Result<engine::JoinReport> Wait(QueryId id);

  /// Cancels a still-queued query (its Wait returns kCancelled).
  /// Queries already running or finished are not interrupted —
  /// returns InvalidArgument.
  Status Cancel(QueryId id);

  /// Blocks until the queue is empty and no query is running.
  void Drain();

  ServiceStats stats() const;

  /// A point-in-time copy of the process metrics registry
  /// (obs/metrics.h) with the service's live gauges — queue depth,
  /// reserved admission bytes, cache residency — refreshed first.
  /// Export with ToPrometheusText() or ToJson().
  obs::MetricsSnapshot MetricsSnapshot() const;

  const numa::Topology& topology() const { return topology_; }
  const ServiceOptions& options() const { return options_; }

  /// The cross-lane run cache; nullptr when run_cache_bytes == 0.
  cache::RunCache* run_cache() const { return run_cache_.get(); }

  /// Appends tuples to `rel`'s logical content through the shared run
  /// cache as a sorted delta run (requires run_cache_bytes != 0) and
  /// wakes an idle lane for background compaction. Queries submitted
  /// after Ingest returns see the rows — merge-on-read against cached
  /// runs, via a materialized view otherwise. Returns the new relation
  /// version.
  Result<uint64_t> Ingest(Relation& rel, const Tuple* tuples, size_t n);
  Result<uint64_t> Ingest(Relation& rel, const std::vector<Tuple>& tuples) {
    return Ingest(rel, tuples.data(), tuples.size());
  }

 private:
  struct QueryState {
    QueryId id = 0;
    engine::JoinSpec spec;
    enum class Phase { kQueued, kRunning, kDone } phase = Phase::kQueued;
    /// Set exactly once, when phase turns kDone.
    std::optional<Result<engine::JoinReport>> result;

    /// Submit time; admission wait = admission time - this. Plumbed
    /// into JoinSpec::admission_wait_ns so the engine records the
    /// retroactive admission.wait trace span.
    std::chrono::steady_clock::time_point submitted_at;
    uint64_t admission_wait_ns = 0;

    /// Admission artifacts (set by PlanLocked on the admitting lane).
    bool planned = false;
    engine::JoinPlan plan;
    uint32_t team_size = 0;
    /// Bytes reserved against the service budget while running.
    uint64_t footprint = 0;
    bool down_budgeted = false;
    uint64_t budget_override = 0;
  };
  using StatePtr = std::shared_ptr<QueryState>;

  void LaneLoop(uint32_t lane);
  /// Plans `q` on the lane's engine and derives its footprint; applies
  /// the down-budget re-plan when the working set exceeds the whole
  /// budget. Error => q can never be admitted.
  Status PlanLocked(engine::Engine& engine, QueryState& q);
  /// Scans the queue in order and admits the first query whose
  /// footprint fits the remaining budget, plus (when batching) its
  /// compatible shared-sort mates. Empty => nothing admissible now.
  std::vector<StatePtr> TryAdmitLocked(engine::Engine& engine);
  /// Runs one admitted group on the lane's engine (shared public sort
  /// first when the group has >= 2 members) and finishes every member.
  /// `lane` tags the team for donated-morsel trace attribution.
  void ExecuteGroup(engine::Engine& engine, uint32_t lane,
                    std::vector<StatePtr>& group);
  void FinishLocked(QueryState& q, Result<engine::JoinReport> result);

  numa::Topology topology_;
  ServiceOptions options_;
  std::unique_ptr<DonationPool> donation_;
  /// Shared by every lane engine; outlives engines_ (declared first).
  std::unique_ptr<cache::RunCache> run_cache_;
  std::vector<std::unique_ptr<engine::Engine>> engines_;  // one per lane

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // lanes: queue/budget/stop changed
  std::condition_variable done_cv_;  // clients: some query finished
  bool stop_ = false;
  /// Set by Ingest, cleared by the lane that runs CompactPending: lets
  /// an idle lane wake for background compaction without polling.
  bool compact_hint_ = false;
  uint64_t next_id_ = 1;
  std::deque<StatePtr> queue_;
  std::unordered_map<QueryId, StatePtr> states_;
  uint64_t reserved_bytes_ = 0;
  uint32_t running_groups_ = 0;
  ServiceStats stats_;

  std::vector<std::thread> lanes_;  // last member: joined by ~JoinService
};

}  // namespace mpsm::service

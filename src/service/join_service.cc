#include "service/join_service.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <string>
#include <utility>

#include "engine/planner.h"
#include "obs/metrics.h"
#include "storage/tuple.h"

namespace mpsm::service {

namespace {

// mpsm_service_* instruments, resolved once (registry references are
// stable; the accessors keep the registry mutex off Submit/admit paths
// after first touch). The service outlives its queries, so these count
// live rather than folding at close.
obs::Counter& SubmittedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_service_submitted_total", "Queries accepted into the queue");
  return c;
}
obs::Counter& CompletedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_service_completed_total", "Queries whose Execute returned OK");
  return c;
}
obs::Counter& FailedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_service_failed_total", "Queries whose Execute returned an error");
  return c;
}
obs::Counter& RejectedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_service_rejected_total",
      "Queries refused by admission (queue full or budget-infeasible)");
  return c;
}
obs::Counter& DownBudgetedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_service_down_budgeted_total",
      "Queries re-planned to spill under a per-lane budget share");
  return c;
}
obs::Histogram& AdmissionWaitHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().histogram(
      "mpsm_service_admission_wait_ns",
      "Wall nanoseconds queries waited in the admission queue");
  return h;
}

/// Bytes the governor reserves while a planned query runs. In-memory
/// variants keep both inputs plus their runs resident; the spill path's
/// residency is its bounded page pools — the shared S staging pool plus
/// the per-worker private windows, which the pool capacity also bounds.
uint64_t PlanFootprintBytes(const engine::JoinPlan& plan) {
  if (plan.algorithm == engine::Algorithm::kDMpsm) {
    // A budget-capped buffer pool IS the spill path's resident RAM
    // (frames cover staging, readahead and dirty write-back pages);
    // charge it against admission directly. The legacy shape keeps the
    // old estimate: staging ring + an equal share for the windows.
    if (plan.dmpsm.pool_budget_bytes != 0) {
      return plan.dmpsm.pool_budget_bytes;
    }
    const uint64_t page_bytes =
        static_cast<uint64_t>(plan.dmpsm.tuples_per_page) * sizeof(Tuple);
    return 2 * static_cast<uint64_t>(plan.dmpsm.pool_pages) * page_bytes;
  }
  return plan.inputs.working_set_bytes;
}

}  // namespace

JoinService::JoinService(ServiceOptions options)
    : JoinService(numa::Topology::Probe(), std::move(options)) {}

JoinService::JoinService(const numa::Topology& topology, ServiceOptions options)
    : topology_(topology), options_(std::move(options)) {
  options_.lanes = std::max(options_.lanes, 1u);
  options_.max_batch = std::max(options_.max_batch, 1u);

  engine::EngineOptions lane_options = options_.engine;
  if (options_.io_inflight_budget_bytes != 0) {
    // Slice the device budget evenly; the IO scheduler's progress
    // guarantee (one batch always starts) makes any non-zero share safe.
    lane_options.dmpsm.io_max_inflight_bytes = std::max<uint64_t>(
        options_.io_inflight_budget_bytes / options_.lanes, 1);
  }
  if (options_.donation) donation_ = std::make_unique<DonationPool>();
  if (options_.run_cache_bytes != 0) {
    run_cache_ = std::make_unique<cache::RunCache>(
        cache::RunCacheOptions{.capacity_bytes = options_.run_cache_bytes});
  }
  engines_.reserve(options_.lanes);
  for (uint32_t i = 0; i < options_.lanes; ++i) {
    engines_.push_back(
        std::make_unique<engine::Engine>(topology_, lane_options));
    // Lanes are 1-based (0 = outside a service): each lane's teams get
    // their own cores and attribute donated morsels to the lane.
    engines_.back()->set_lane(i + 1);
    if (donation_ != nullptr) engines_.back()->set_donation(donation_.get());
    if (run_cache_ != nullptr) {
      engines_.back()->set_run_cache(run_cache_.get());
    }
  }
  lanes_.reserve(options_.lanes);
  for (uint32_t i = 0; i < options_.lanes; ++i) {
    lanes_.emplace_back(&JoinService::LaneLoop, this, i);
  }
}

JoinService::~JoinService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    // Nothing queued may run anymore; fail it cleanly so Wait returns.
    for (StatePtr& q : queue_) {
      q->phase = QueryState::Phase::kDone;
      q->result.emplace(Status::Cancelled("join service shut down"));
      ++stats_.cancelled;
    }
    queue_.clear();
    work_cv_.notify_all();
    done_cv_.notify_all();
  }
  for (std::thread& lane : lanes_) lane.join();
}

Result<JoinService::QueryId> JoinService::Submit(const engine::JoinSpec& spec) {
  if (spec.r == nullptr || spec.s == nullptr) {
    return Status::InvalidArgument("JoinSpec needs both input relations");
  }
  if (spec.consumers == nullptr) {
    return Status::InvalidArgument("JoinSpec needs a consumer factory");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) return Status::Cancelled("join service is shutting down");
  if (queue_.size() >= options_.max_queue) {
    ++stats_.rejected;
    RejectedCounter().Add(1);
    return Status::ResourceExhausted(
        "admission queue is full (max_queue = " +
        std::to_string(options_.max_queue) + ")");
  }
  StatePtr state = std::make_shared<QueryState>();
  state->id = next_id_++;
  state->spec = spec;
  state->submitted_at = std::chrono::steady_clock::now();
  queue_.push_back(state);
  states_.emplace(state->id, state);
  ++stats_.submitted;
  SubmittedCounter().Add(1);
  stats_.peak_queue_depth = std::max<uint64_t>(stats_.peak_queue_depth,
                                               queue_.size());
  work_cv_.notify_one();
  return state->id;
}

Result<engine::JoinReport> JoinService::Wait(QueryId id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = states_.find(id);
  if (it == states_.end()) {
    return Status::InvalidArgument("unknown (or already waited) query id " +
                                   std::to_string(id));
  }
  StatePtr state = it->second;
  done_cv_.wait(lock,
                [&] { return state->phase == QueryState::Phase::kDone; });
  states_.erase(id);
  return std::move(*state->result);
}

Status JoinService::Cancel(QueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = states_.find(id);
  if (it == states_.end()) {
    return Status::InvalidArgument("unknown (or already waited) query id " +
                                   std::to_string(id));
  }
  StatePtr state = it->second;
  if (state->phase != QueryState::Phase::kQueued) {
    return Status::InvalidArgument(
        "query " + std::to_string(id) +
        " is already running or finished; only queued queries cancel");
  }
  queue_.erase(std::find(queue_.begin(), queue_.end(), state));
  state->phase = QueryState::Phase::kDone;
  state->result.emplace(Status::Cancelled("query cancelled while queued"));
  ++stats_.cancelled;
  done_cv_.notify_all();
  work_cv_.notify_all();
  return Status::OK();
}

void JoinService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return queue_.empty() && running_groups_ == 0; });
}

ServiceStats JoinService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats out = stats_;
  if (donation_ != nullptr) out.donated_morsels = donation_->morsels_donated();
  if (run_cache_ != nullptr) {
    const cache::CacheStats cs = run_cache_->stats();
    out.cache_hits = cs.hits;
    out.cache_misses = cs.misses;
    out.cache_installs = cs.installs;
    out.cache_evictions = cs.evictions;
    out.cache_compactions = cs.compactions;
    out.cache_ingested_tuples = cs.ingested_tuples;
    out.cache_resident_bytes = run_cache_->resident_bytes();
  }
  return out;
}

obs::MetricsSnapshot JoinService::MetricsSnapshot() const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Gauge& queue_depth = registry.gauge(
      "mpsm_service_queue_depth", "Queries waiting in the admission queue");
  static obs::Gauge& reserved = registry.gauge(
      "mpsm_service_reserved_bytes",
      "Footprint bytes reserved by running queries against the budget");
  static obs::Gauge& cache_resident = registry.gauge(
      "mpsm_cache_resident_bytes", "Bytes resident in the shared run cache");
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_depth.Set(static_cast<int64_t>(queue_.size()));
    reserved.Set(static_cast<int64_t>(reserved_bytes_));
  }
  if (run_cache_ != nullptr) {
    cache_resident.Set(static_cast<int64_t>(run_cache_->resident_bytes()));
  }
  return registry.Snapshot();
}

Result<uint64_t> JoinService::Ingest(Relation& rel, const Tuple* tuples,
                                     size_t n) {
  if (run_cache_ == nullptr) {
    return Status::InvalidArgument(
        "Ingest needs the run cache: set ServiceOptions::run_cache_bytes");
  }
  if (rel.id() == 0) {
    return Status::InvalidArgument(
        "relation has no identity (default-constructed): ingest targets "
        "must come from Relation::Allocate or Relation::FromVector");
  }
  const uint64_t version = run_cache_->Ingest(rel, tuples, n);
  {
    std::lock_guard<std::mutex> lock(mu_);
    compact_hint_ = true;
  }
  work_cv_.notify_one();
  return version;
}

Status JoinService::PlanLocked(engine::Engine& engine, QueryState& q) {
  Result<engine::JoinPlan> plan = engine.Plan(q.spec);
  if (!plan.ok()) return plan.status();
  q.plan = std::move(plan).value();
  q.team_size = engine.TeamSizeFor(q.spec);
  q.footprint = PlanFootprintBytes(q.plan);
  q.planned = true;

  const uint64_t budget = options_.memory_budget_bytes;
  if (budget == 0 || q.footprint <= budget) return Status::OK();

  // The working set can never fit, even with the service idle. Down-
  // budget: re-plan against a per-lane share of the global budget so
  // the join spills through D-MPSM within bounds instead of OOMing.
  engine::JoinSpec probe = q.spec;
  probe.memory_budget_bytes = std::min<uint64_t>(
      budget,
      std::max<uint64_t>(budget / options_.lanes, uint64_t{1} << 20));
  Result<engine::JoinPlan> replan = engine.Plan(probe);
  if (replan.ok() && replan->algorithm == engine::Algorithm::kDMpsm) {
    const uint64_t footprint = PlanFootprintBytes(*replan);
    if (footprint <= budget) {
      q.plan = std::move(replan).value();
      q.footprint = footprint;
      q.down_budgeted = true;
      q.budget_override = probe.memory_budget_bytes;
      ++stats_.down_budgeted;
      DownBudgetedCounter().Add(1);
      return Status::OK();
    }
  }
  return Status::ResourceExhausted(
      "predicted working set (" + std::to_string(q.footprint) +
      " bytes) exceeds the service memory budget (" + std::to_string(budget) +
      " bytes) and the join cannot spill");
}

std::vector<JoinService::StatePtr> JoinService::TryAdmitLocked(
    engine::Engine& engine) {
  std::vector<StatePtr> group;
  const uint64_t budget = options_.memory_budget_bytes;

  // Queue -> running transition: stamp the admission wait (Execute
  // turns it into the retroactive admission.wait trace span) and feed
  // the service latency histogram.
  const auto admit = [](QueryState& q) {
    q.phase = QueryState::Phase::kRunning;
    q.admission_wait_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - q.submitted_at)
            .count());
    AdmissionWaitHistogram().Record(q.admission_wait_ns);
  };

  // Admission scan, queue order. A too-big head does not block smaller
  // queries behind it (its turn comes as reservations release — the
  // budget frees completely whenever the service idles, so it cannot
  // starve forever).
  StatePtr head;
  for (size_t i = 0; i < queue_.size();) {
    QueryState& q = *queue_[i];
    if (!q.planned) {
      Status admissible = PlanLocked(engine, q);
      if (!admissible.ok()) {
        StatePtr rejected = queue_[i];
        queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(i));
        ++stats_.rejected;
        RejectedCounter().Add(1);
        rejected->footprint = 0;  // planned but never reserved
        FinishLocked(*rejected, admissible);
        continue;
      }
    }
    // Run-cache residency is charged against the same budget: under
    // admission pressure, LRU base entries are evicted to make room.
    // Delta logs are authoritative data (cache/run_cache.h) and never
    // block admission — a query outranks cached convenience bytes.
    if (budget != 0 && run_cache_ != nullptr &&
        reserved_bytes_ + q.footprint <= budget &&
        reserved_bytes_ + q.footprint + run_cache_->resident_bytes() >
            budget) {
      run_cache_->EvictToFit(budget - reserved_bytes_ - q.footprint);
    }
    if (budget == 0 || reserved_bytes_ + q.footprint <= budget) {
      head = queue_[i];
      queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
    ++i;
  }
  if (head == nullptr) return group;

  admit(*head);
  reserved_bytes_ += head->footprint;
  group.push_back(head);

  // Shared-sort batching: pull compatible mates — same public input,
  // session options, no per-query budget, P-MPSM-able — into the
  // group. Mates skip their own planning: Execute plans them with
  // Algorithm::kPMpsm forced, and their reservation is the private
  // side only (the public runs are shared with the head).
  if (options_.shared_sort && !head->down_budgeted &&
      head->plan.algorithm == engine::Algorithm::kPMpsm &&
      head->spec.shared_public_runs == nullptr &&
      head->spec.options == nullptr && head->spec.memory_budget_bytes == 0) {
    for (auto it = queue_.begin();
         it != queue_.end() && group.size() < options_.max_batch;) {
      QueryState& q = **it;
      const bool compatible =
          q.spec.s == head->spec.s && q.spec.options == nullptr &&
          q.spec.shared_public_runs == nullptr &&
          q.spec.memory_budget_bytes == 0 &&
          (!q.spec.algorithm.has_value() ||
           *q.spec.algorithm == engine::Algorithm::kPMpsm) &&
          q.spec.r->num_chunks() == head->team_size &&
          q.spec.s->num_chunks() == head->team_size;
      const uint64_t mate_footprint =
          engine::Planner::WorkingSetBytes(q.spec.r->size(), 0);
      if (compatible &&
          (budget == 0 || reserved_bytes_ + mate_footprint <= budget)) {
        StatePtr mate = *it;
        it = queue_.erase(it);
        admit(*mate);
        mate->planned = true;
        mate->team_size = head->team_size;
        mate->footprint = mate_footprint;
        reserved_bytes_ += mate_footprint;
        group.push_back(std::move(mate));
      } else {
        ++it;
      }
    }
    if (group.size() > 1) {
      ++stats_.batches;
      stats_.batched_queries += group.size();
    }
  }
  stats_.peak_reserved_bytes =
      std::max(stats_.peak_reserved_bytes, reserved_bytes_);
  return group;
}

void JoinService::ExecuteGroup(engine::Engine& engine, uint32_t lane,
                               std::vector<StatePtr>& group) {
  // Sort the shared public input once for the whole group. On failure
  // fall back to per-query sorting — correctness never depends on the
  // batching fast path. With the run cache attached, the engine itself
  // provides pay-once semantics (the first member's cold sort installs
  // the runs; its mates hit them warm, deltas merged on read), so the
  // group-level build — which reads base storage only and would miss
  // ingested deltas — is skipped.
  std::optional<PublicRuns> shared;
  if (group.size() > 1 && run_cache_ == nullptr) {
    WorkerTeam& team = engine.EnsureTeam(group.front()->team_size);
    Result<PublicRuns> runs = BuildPublicRuns(
        team, *group.front()->spec.s, group.front()->plan.mpsm);
    if (runs.ok()) shared.emplace(std::move(runs).value());
  }
  for (StatePtr& q : group) {
    engine::JoinSpec spec = q->spec;
    spec.query_id = q->id;
    spec.admission_wait_ns = q->admission_wait_ns;
    if (shared.has_value()) {
      spec.shared_public_runs = &*shared;
      spec.algorithm = engine::Algorithm::kPMpsm;
    } else if (group.size() > 1) {
      spec.algorithm = engine::Algorithm::kPMpsm;  // cache-served batch
    }
    if (q->down_budgeted) spec.memory_budget_bytes = q->budget_override;
    Result<engine::JoinReport> result = engine.Execute(spec);
    if (result.ok() && result->dmpsm.has_value() && result->dmpsm->resumed) {
      // A resubmitted spilling query re-attached durable state from a
      // previous incarnation's manifest (docs/recovery.md).
      static obs::Counter& resumed_counter =
          obs::MetricsRegistry::Global().counter(
              "mpsm_service_resumed_queries_total",
              "Service queries that resumed from a crash-recovery "
              "manifest");
      resumed_counter.Add(1);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.resumed_queries;
    }
    // Labeled per-lane throughput (one registration-path lookup per
    // query — off the hot path).
    obs::MetricsRegistry::Global()
        .counter("mpsm_service_lane_queries_total",
                 "Queries executed per service lane",
                 {{"lane", std::to_string(lane)}})
        .Add(1);
    std::lock_guard<std::mutex> lock(mu_);
    FinishLocked(*q, std::move(result));
  }
}

void JoinService::FinishLocked(QueryState& q,
                               Result<engine::JoinReport> result) {
  reserved_bytes_ -= q.footprint;
  q.footprint = 0;
  if (result.ok()) {
    ++stats_.completed;
    CompletedCounter().Add(1);
  } else if (result.status().code() != StatusCode::kResourceExhausted) {
    ++stats_.failed;
    FailedCounter().Add(1);
  }
  q.result.emplace(std::move(result));
  q.phase = QueryState::Phase::kDone;
  done_cv_.notify_all();
  work_cv_.notify_all();  // released budget may admit a waiter
}

void JoinService::LaneLoop(uint32_t lane) {
  engine::Engine& engine = *engines_[lane];
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock,
                  [&] { return stop_ || !queue_.empty() || compact_hint_; });
    if (stop_) return;
    if (queue_.empty()) {
      // Idle lane + pending deltas: run background compaction as
      // low-priority work. The morsels are guest-safe, so donated
      // workers from other lanes help (parallel/donation.h).
      compact_hint_ = false;
      if (run_cache_ != nullptr) {
        lock.unlock();
        run_cache_->CompactPending(engine.team());
        lock.lock();
      }
      continue;
    }
    std::vector<StatePtr> group = TryAdmitLocked(engine);
    if (group.empty()) {
      // Queue non-empty but nothing fits the remaining budget; sleep
      // until a completion releases bytes (or the queue changes).
      work_cv_.wait(lock);
      continue;
    }
    ++running_groups_;
    lock.unlock();
    ExecuteGroup(engine, lane, group);
    lock.lock();
    --running_groups_;
    done_cv_.notify_all();  // Drain watches running_groups_
  }
}

}  // namespace mpsm::service

#include "parallel/worker_team.h"

#include <chrono>
#include <thread>

#include "numa/affinity.h"
#include "obs/metrics.h"
#include "parallel/donation.h"

namespace mpsm {

namespace {
double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

obs::Counter& PinFailuresCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "mpsm_worker_pin_failures_total",
      "Worker threads the OS refused to pin to their placement core");
  return c;
}
}  // namespace

PhaseScope::PhaseScope(WorkerContext& ctx, JoinPhase phase)
    : ctx_(ctx), phase_(phase), start_seconds_(NowSeconds()) {}

PhaseScope::~PhaseScope() {
  ctx_.stats->phase_seconds[phase_] += NowSeconds() - start_seconds_;
}

WorkerTeam::WorkerTeam(const numa::Topology& topology, uint32_t team_size,
                       uint32_t lane)
    : topology_(&topology),
      team_size_(team_size),
      lane_(lane),
      barrier_(team_size),
      stats_(team_size) {
  const uint32_t team_index = lane == 0 ? 0 : lane - 1;
  cores_.reserve(team_size);
  arenas_.reserve(team_size);
  for (uint32_t w = 0; w < team_size; ++w) {
    cores_.push_back(topology.CoreForWorker(w, team_size, team_index));
    arenas_.push_back(std::make_unique<numa::Arena>(
        topology.NodeForWorker(w, team_size)));
  }
}

WorkerTeam::~WorkerTeam() = default;

void WorkerTeam::set_donation(DonationPool* pool) {
  donation_ = pool;
  donation_session_ = pool == nullptr ? 0 : pool->RegisterSession();
}

void WorkerTeam::Run(const std::function<void(WorkerContext&)>& job) {
  for (auto& stats : stats_) stats = WorkerStats{};

  // Registered before any pin, so the family reads 0 where pins hold.
  obs::Counter& pin_failures = PinFailuresCounter();
  std::vector<std::thread> threads;
  threads.reserve(team_size_);
  for (uint32_t w = 0; w < team_size_; ++w) {
    threads.emplace_back([this, w, &job, &pin_failures] {
      WorkerContext ctx;
      ctx.worker_id = w;
      ctx.team_size = team_size_;
      ctx.core = cores_[w];
      ctx.node = topology_->NodeOfCore(ctx.core);
      ctx.barrier = &barrier_;
      ctx.stats = &stats_[w];
      ctx.arena = arenas_[w].get();
      ctx.topology = topology_;
      // Pinning is advisory: when a simulated topology has more cores
      // than the host, or the host restricts affinity, the worker runs
      // unpinned; the counter makes that visible.
      if (!numa::PinCurrentThreadToCore(ctx.core)) pin_failures.Add(1);
      obs::ScopedTraceThread trace_scope(trace_, "worker", w);
      job(ctx);
    });
  }
  for (auto& thread : threads) thread.join();
}

WorkerStats WorkerTeam::AggregateStats() const {
  WorkerStats total;
  for (const auto& stats : stats_) total += stats;
  return total;
}

double WorkerTeam::CriticalPathSeconds() const {
  double total = 0;
  for (uint32_t p = 0; p < kNumJoinPhases; ++p) {
    double slowest = 0;
    for (const auto& stats : stats_) {
      slowest = std::max(slowest, stats.phase_seconds[p]);
    }
    total += slowest;
  }
  return total;
}

}  // namespace mpsm

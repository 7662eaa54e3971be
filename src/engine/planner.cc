#include "engine/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "simd/caps.h"
#include "storage/tuple.h"

namespace mpsm::engine {

namespace {

constexpr uint64_t kTupleBytes = sizeof(Tuple);

/// log2 for sort-work estimates; >= 1 so tiny arrays still cost.
double Log2Work(double n) { return std::log2(std::max(n, 2.0)); }

/// Formats seconds as "12.3 ms".
std::string FormatMs(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f ms", seconds * 1e3);
  return buf;
}

/// Synthetic balanced per-worker counters for one phase slot.
struct PhaseEstimate {
  PerfCounters counters;
  /// Slowest-worker multiplier over the balanced estimate (skewed
  /// fragments / partitions under barrier semantics).
  double imbalance = 1.0;
  /// Spill-device seconds this phase spends reading pages. With an
  /// async backend the device runs concurrently with the counters'
  /// compute (phase time = max of the two); the sync baseline
  /// serializes them (sum).
  double io_seconds = 0;
  bool io_overlapped = false;
  /// Extra per-worker CPU nanoseconds beyond the counter-priced work
  /// (the merge-compare term, scaled by the SIMD width).
  double cpu_extra_ns = 0;
};

/// The merge-compare CPU term for a phase-4 sweep over `merge_keys`
/// keys per worker: scalar cost divided by the resolved vector width.
double MergeCompareNs(const sim::MachineModel& machine, double merge_keys,
                      simd::SimdKind simd) {
  const double keys_per_compare = simd::KeysPerCompare(simd::Resolve(simd));
  return merge_keys * machine.ns_per_merge_key / keys_per_compare;
}

/// Splits `bytes` of traffic into local and remote shares: with data
/// spread uniformly over N nodes, (N-1)/N of a worker's accesses cross
/// the interconnect.
void CountSplit(PerfCounters& c, bool write, bool sequential,
                double bytes, double remote_fraction) {
  const auto local = static_cast<uint64_t>(bytes * (1.0 - remote_fraction));
  const auto remote = static_cast<uint64_t>(bytes * remote_fraction);
  if (write) {
    c.CountWrite(/*local=*/true, sequential, local);
    c.CountWrite(/*local=*/false, sequential, remote);
  } else {
    c.CountRead(/*local=*/true, sequential, local);
    c.CountRead(/*local=*/false, sequential, remote);
  }
}

/// Sort of n tuples in local memory: one read+write pass plus the
/// n log2 n comparison/move work (mirrors PerfCounters::CountSort).
void CountLocalSort(PerfCounters& c, double n) {
  c.sort_tuples += static_cast<uint64_t>(n);
  c.sort_tuple_logs += static_cast<uint64_t>(n * Log2Work(n));
  c.CountRead(true, true, static_cast<uint64_t>(n * kTupleBytes));
  c.CountWrite(true, true, static_cast<uint64_t>(n * kTupleBytes));
}

/// Cache lines touched per hash-table operation on a table that does
/// not fit in cache (the Wisconsin global table).
constexpr double kHashLineBytes = 64.0;

}  // namespace

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kPMpsm:
      return "p-mpsm";
    case Algorithm::kBMpsm:
      return "b-mpsm";
    case Algorithm::kDMpsm:
      return "d-mpsm";
    case Algorithm::kRadix:
      return "radix";
    case Algorithm::kWisconsin:
      return "wisconsin";
  }
  return "unknown";
}

bool SupportsKind(Algorithm algorithm, JoinKind kind) {
  switch (algorithm) {
    case Algorithm::kPMpsm:
    case Algorithm::kBMpsm:
      return true;  // semi/anti/outer ride on the same merge kernel
    case Algorithm::kDMpsm:
    case Algorithm::kRadix:
    case Algorithm::kWisconsin:
      return kind == JoinKind::kInner;
  }
  return false;
}

MpsmOptions ResolveMpsmOptions(const EngineOptions& options, JoinKind kind) {
  MpsmOptions m = options.mpsm;
  m.kind = kind;
  return m;
}

disk::DMpsmOptions ResolveDMpsmOptions(const EngineOptions& options,
                                       uint64_t memory_budget_bytes) {
  disk::DMpsmOptions d = options.dmpsm;
  if (d.pool_budget_bytes == 0) {
    // Cap the buffer pool's frames at half the query budget: staging
    // ring, private-window readahead and dirty write-back frames all
    // come out of this one pot (docs/storage.md), and the remaining
    // half covers transient sort scratch. No budget keeps the legacy
    // pool_pages shape.
    d.pool_budget_bytes = memory_budget_bytes / 2;
  }
  return d;
}

uint64_t Planner::WorkingSetBytes(uint64_t r_tuples, uint64_t s_tuples) {
  // Inputs plus one full copy: sorted public runs + scattered private
  // partitions (P-MPSM) or partitioned copies (radix). The hash
  // baselines need less but share the in-memory regime.
  return 2 * (r_tuples + s_tuples) * kTupleBytes;
}

double Planner::EstimateSkew(const Relation& r, const Relation& s) {
  constexpr size_t kSampleTarget = 4096;
  constexpr size_t kBuckets = 64;

  auto sample_skew = [](const Relation& rel) -> double {
    if (rel.size() < kBuckets * 4) return 1.0;  // too few keys to tell
    const size_t stride = std::max<size_t>(rel.size() / kSampleTarget, 1);
    std::vector<uint64_t> keys;
    keys.reserve(rel.size() / stride + 1);
    uint64_t min_key = UINT64_MAX, max_key = 0;
    for (uint32_t c = 0; c < rel.num_chunks(); ++c) {
      const Chunk& chunk = rel.chunk(c);
      for (size_t i = 0; i < chunk.size; i += stride) {
        const uint64_t key = chunk.data[i].key;
        keys.push_back(key);
        min_key = std::min(min_key, key);
        max_key = std::max(max_key, key);
      }
    }
    if (keys.size() < kBuckets * 2 || min_key >= max_key) return 1.0;
    const double width =
        static_cast<double>(max_key - min_key) / kBuckets;
    std::array<uint64_t, kBuckets> histogram{};
    for (const uint64_t key : keys) {
      const auto b = std::min<size_t>(
          static_cast<size_t>(static_cast<double>(key - min_key) / width),
          kBuckets - 1);
      ++histogram[b];
    }
    const double avg = static_cast<double>(keys.size()) / kBuckets;
    const uint64_t max_bucket =
        *std::max_element(histogram.begin(), histogram.end());
    return std::max(static_cast<double>(max_bucket) / avg, 1.0);
  };

  // Either side can carry the skew: R drives partition sizes, S drives
  // each partition's merge-join share.
  return std::max(sample_skew(r), sample_skew(s));
}

CandidateCost Planner::EstimateCost(Algorithm algorithm,
                                    const PlannerInputs& in,
                                    const sim::MachineModel& machine,
                                    const MpsmOptions& mpsm,
                                    const disk::DMpsmOptions& dmpsm) {
  CandidateCost cost;
  cost.algorithm = algorithm;
  cost.feasible = true;

  const double T = std::max<uint32_t>(in.team_size, 1);
  const double nr = static_cast<double>(in.r_tuples) / T;
  const double ns = static_cast<double>(in.s_tuples) / T;
  const double s_total = static_cast<double>(in.s_tuples);
  const double nodes = std::max<uint32_t>(in.numa_nodes, 1);
  // Data spread uniformly over the nodes: this share of untargeted
  // accesses crosses the interconnect.
  const double rf = (nodes - 1.0) / nodes;
  const double skew = std::max(in.skew, 1.0);

  std::array<PhaseEstimate, kNumJoinPhases> phases;
  switch (algorithm) {
    case Algorithm::kPMpsm: {
      // Phase 1: sort local S chunk into a run (+ histograms). With a
      // coherent cached view (docs/cache.md) the sort vanishes — the
      // runs were paid for by an earlier query.
      if (!in.cached_runs) {
        CountLocalSort(phases[kPhaseSortPublic].counters, ns);
      }
      // Phase 2: histogram scan of the local R chunk, then the
      // synchronization-free sequential scatter into range partitions
      // homed across the team's nodes.
      auto& p2 = phases[kPhasePartition].counters;
      p2.CountRead(true, true, static_cast<uint64_t>(2 * nr * kTupleBytes));
      CountSplit(p2, /*write=*/true, /*sequential=*/true, nr * kTupleBytes,
                 rf);
      // Phase 3: sort the received range partition locally.
      CountLocalSort(phases[kPhaseSortPrivate].counters, nr);
      // Phase 4: merge the local partition against its key range of
      // every public run — |S|/T tuples spread over all nodes. A cached
      // view adds its delta runs to the merge (merge-on-read): their
      // tuples ride the same sequential scan, plus one start search's
      // random probes per extra run.
      const double delta_share =
          in.cached_runs
              ? static_cast<double>(in.cached_delta_tuples) / T
              : 0.0;
      auto& p4 = phases[kPhaseJoin];
      p4.counters.CountRead(true, true,
                            static_cast<uint64_t>(nr * kTupleBytes));
      CountSplit(p4.counters, /*write=*/false, /*sequential=*/true,
                 (ns + delta_share) * kTupleBytes, rf);
      if (in.cached_runs && in.cached_delta_runs > 0) {
        constexpr double kProbesPerSearch = 8.0;
        CountSplit(p4.counters, /*write=*/false, /*sequential=*/false,
                   in.cached_delta_runs * kProbesPerSearch * kTupleBytes,
                   rf);
      }
      // Merge-loop CPU at the machine's vector width.
      p4.cpu_extra_ns =
          MergeCompareNs(machine, nr + ns + delta_share, mpsm.simd);
      // Cost-balanced splitters absorb most key skew (Figure 16);
      // equi-height splitting leaves the full imbalance.
      p4.imbalance =
          mpsm.cost_balanced_splitters ? 1.0 + 0.05 * (skew - 1.0) : skew;
      phases[kPhasePartition].imbalance = p4.imbalance;
      break;
    }
    case Algorithm::kBMpsm: {
      CountLocalSort(phases[kPhaseSortPublic].counters, ns);
      CountLocalSort(phases[kPhaseSortPrivate].counters, nr);
      // Every worker merges its run against ALL public runs: the full
      // |S| per worker — the complexity gap of §2.2.
      auto& p4 = phases[kPhaseJoin];
      p4.counters.CountRead(true, true,
                            static_cast<uint64_t>(nr * kTupleBytes));
      CountSplit(p4.counters, /*write=*/false, /*sequential=*/true,
                 s_total * kTupleBytes, rf);
      p4.cpu_extra_ns = MergeCompareNs(machine, nr + s_total, mpsm.simd);
      // Skew-immune: every worker scans everything regardless.
      break;
    }
    case Algorithm::kDMpsm: {
      // Sort + spool both inputs through the page store, then join
      // from staged pages: one extra write+read pass per input over
      // the in-memory sort-merge, plus the spill device itself.
      auto& p1 = phases[kPhaseSortPublic].counters;
      CountLocalSort(p1, ns);
      p1.CountWrite(true, true, static_cast<uint64_t>(ns * kTupleBytes));
      auto& p3 = phases[kPhaseSortPrivate].counters;
      CountLocalSort(p3, nr);
      p3.CountWrite(true, true, static_cast<uint64_t>(nr * kTupleBytes));
      // Spool writes hit the device too. The buffer pool's async
      // write-back flusher overlaps them with the sort compute at queue
      // depth, whatever the read backend.
      const double spool_depth_bw =
          machine.IoBytesPerSec(dmpsm.io_queue_depth);
      phases[kPhaseSortPublic].io_overlapped = true;
      phases[kPhaseSortPublic].io_seconds =
          static_cast<double>(in.s_tuples) * kTupleBytes / spool_depth_bw;
      phases[kPhaseSortPrivate].io_overlapped = true;
      phases[kPhaseSortPrivate].io_seconds =
          static_cast<double>(in.r_tuples) * kTupleBytes / spool_depth_bw;
      // Phase 4 re-reads the spooled pages. The device is shared, so
      // each worker sees the full |R|+|S| read stream; an async
      // backend overlaps it with the merge compute at depth-scaled
      // bandwidth (src/io/), the sync baseline stalls serially at
      // depth 1.
      auto& p4 = phases[kPhaseJoin];
      p4.counters.CountRead(true, true,
                            static_cast<uint64_t>(2 * (nr + ns) *
                                                  kTupleBytes));
      const double io_bytes =
          static_cast<double>(in.r_tuples + in.s_tuples) * kTupleBytes;
      const double page_bytes = std::max<double>(
          static_cast<double>(dmpsm.tuples_per_page) * kTupleBytes, 1.0);
      // Pool pressure: pages still frame-resident from spooling are
      // pin hits and never touch the device. The hit fraction scales
      // with pool bytes over the spooled working set, capped — clock
      // eviction churn always leaves some misses.
      const double pool_bytes =
          dmpsm.pool_budget_bytes != 0
              ? static_cast<double>(dmpsm.pool_budget_bytes)
              : static_cast<double>(dmpsm.pool_pages) * page_bytes;
      const double hit_rate =
          std::min(0.95, pool_bytes / std::max(io_bytes, 1.0));
      p4.io_overlapped = dmpsm.io_backend != io::IoBackendKind::kSync;
      const size_t depth = p4.io_overlapped ? dmpsm.io_queue_depth : 1;
      p4.io_seconds =
          io_bytes * (1.0 - hit_rate) / machine.IoBytesPerSec(depth);
      // Submission CPU: one vectored read per io_batch_pages pages of
      // this worker's share.
      const double worker_pages = (nr + ns) * kTupleBytes / page_bytes;
      p4.counters.io_submits = static_cast<uint64_t>(
          worker_pages / static_cast<double>(
                             std::max<size_t>(dmpsm.io_batch_pages, 1)) +
          1);
      p4.cpu_extra_ns = MergeCompareNs(machine, nr + ns, dmpsm.simd);
      break;
    }
    case Algorithm::kRadix: {
      // Pass 1 (cross-NUMA): scatter both inputs on the top hash bits.
      auto& p1 = phases[kPhasePartition].counters;
      p1.CountRead(true, true,
                   static_cast<uint64_t>((nr + ns) * kTupleBytes));
      CountSplit(p1, /*write=*/true, /*sequential=*/false,
                 (nr + ns) * kTupleBytes, rf);
      // Pass 2 (node-local): re-partition to cache-sized fragments.
      auto& p2 = phases[kPhaseSortPrivate].counters;
      p2.CountRead(true, true,
                   static_cast<uint64_t>((nr + ns) * kTupleBytes));
      p2.CountWrite(true, false,
                    static_cast<uint64_t>((nr + ns) * kTupleBytes));
      // Build + probe per cache-resident fragment.
      auto& p4 = phases[kPhaseJoin];
      p4.counters.hash_inserts = static_cast<uint64_t>(nr);
      p4.counters.hash_probes = static_cast<uint64_t>(ns);
      p4.counters.CountRead(true, true,
                            static_cast<uint64_t>((nr + ns) * kTupleBytes));
      // Hash partitioning cannot split a hot key: the fragment holding
      // it bounds the barrier.
      p4.imbalance = skew;
      break;
    }
    case Algorithm::kWisconsin: {
      // Build a single global latched table (slot: phase 1).
      auto& p1 = phases[kPhaseSortPublic].counters;
      p1.CountRead(true, true, static_cast<uint64_t>(nr * kTupleBytes));
      p1.hash_inserts = static_cast<uint64_t>(nr);
      p1.sync_acquisitions = static_cast<uint64_t>(nr);  // bucket latches
      CountSplit(p1, /*write=*/true, /*sequential=*/false,
                 nr * kHashLineBytes, rf);
      // Probe it with S (slot: phase 4): one cache/TLB-missing line
      // per probe, mostly remote — all three NUMA commandments broken.
      auto& p4 = phases[kPhaseJoin];
      p4.counters.CountRead(true, true,
                            static_cast<uint64_t>(ns * kTupleBytes));
      p4.counters.hash_probes = static_cast<uint64_t>(ns);
      CountSplit(p4.counters, /*write=*/false, /*sequential=*/false,
                 ns * kHashLineBytes, rf);
      p4.imbalance = skew;  // hot keys serialize on the same chains
      break;
    }
  }

  // Oversubscribed teams timeshare the machine's cores (Figure 13).
  const double slowdown =
      T > machine.cores ? T / static_cast<double>(machine.cores) : 1.0;
  for (uint32_t p = 0; p < kNumJoinPhases; ++p) {
    const double compute =
        (machine.PhaseSeconds(phases[p].counters) +
         phases[p].cpu_extra_ns * 1e-9) *
        slowdown * phases[p].imbalance;
    // Device reads overlap async compute (max) or serialize (sum).
    cost.phase_seconds[p] = phases[p].io_overlapped
                                ? std::max(compute, phases[p].io_seconds)
                                : compute + phases[p].io_seconds;
    cost.total_seconds += cost.phase_seconds[p];
  }
  return cost;
}

sim::MachineModel Planner::PlanningMachine() const {
  if (options_->machine.has_value()) return *options_->machine;
  sim::MachineModel machine = sim::MachineModel::HyPer1();
  if (topology_->num_nodes() > 1) {
    machine.nodes = topology_->num_nodes();
    machine.cores = topology_->num_cores();
  }
  return machine;
}

Result<JoinPlan> Planner::Plan(const JoinSpec& spec, uint32_t team_size,
                               const CachedRunsHint* cached_runs) const {
  if (spec.r == nullptr || spec.s == nullptr) {
    return Status::InvalidArgument("JoinSpec needs both input relations");
  }
  const EngineOptions& options = spec.options ? *spec.options : *options_;

  JoinPlan plan;
  plan.mpsm = ResolveMpsmOptions(options, spec.kind);
  const uint64_t budget = spec.memory_budget_bytes != 0
                              ? spec.memory_budget_bytes
                              : options.memory_budget_bytes;
  plan.dmpsm = ResolveDMpsmOptions(options, budget);
  plan.radix = options.radix;

  // Front-door validation: every resolved knob set must be legal, even
  // for the variants the planner ends up not choosing — a bad knob is
  // a caller bug regardless of today's plan.
  MPSM_RETURN_NOT_OK(plan.mpsm.Validate(team_size));
  MPSM_RETURN_NOT_OK(plan.dmpsm.Validate());
  MPSM_RETURN_NOT_OK(plan.radix.Validate());

  PlannerInputs& in = plan.inputs;
  in.r_tuples = spec.r->size();
  in.s_tuples = spec.s->size();
  in.multiplicity = spec.multiplicity_hint.value_or(
      in.r_tuples > 0
          ? static_cast<double>(in.s_tuples) / static_cast<double>(in.r_tuples)
          : 1.0);
  in.skew = std::max(spec.skew_hint.value_or(EstimateSkew(*spec.r, *spec.s)),
                     1.0);
  in.memory_budget_bytes = budget;
  in.working_set_bytes = WorkingSetBytes(in.r_tuples, in.s_tuples);
  in.team_size = team_size;
  in.numa_nodes = topology_->num_nodes();
  in.kind = spec.kind;

  const sim::MachineModel machine = PlanningMachine();
  // Price candidates against the model's node count: the model may
  // describe a bigger deployment machine than a single-node dev host.
  PlannerInputs model_in = in;
  model_in.numa_nodes = std::max(in.numa_nodes, machine.nodes);

  const bool over_budget = budget != 0 && in.working_set_bytes > budget;
  const bool tiny = in.r_tuples + in.s_tuples <= options.tiny_input_tuples;

  // Cost every candidate so the plan is inspectable even for the paths
  // rules excluded.
  constexpr Algorithm kAll[] = {Algorithm::kPMpsm, Algorithm::kBMpsm,
                                Algorithm::kDMpsm, Algorithm::kRadix,
                                Algorithm::kWisconsin};
  for (const Algorithm a : kAll) {
    CandidateCost cost =
        EstimateCost(a, model_in, machine, plan.mpsm, plan.dmpsm);
    if (!SupportsKind(a, spec.kind)) {
      cost.feasible = false;
      cost.note = std::string("no ") + JoinKindName(spec.kind) + " support";
    } else if (over_budget && a != Algorithm::kDMpsm) {
      cost.feasible = false;
      cost.note = "working set exceeds memory budget";
    } else if (a == Algorithm::kDMpsm && !over_budget) {
      // Feasible, but spilling is never chosen while memory suffices.
      cost.note = "spill path (not needed: working set fits the budget)";
    }
    plan.candidates.push_back(std::move(cost));
  }
  auto candidate = [&](Algorithm a) -> const CandidateCost& {
    return plan.candidates[static_cast<size_t>(a)];
  };

  // Cached-merge vs fresh-sort pricing (docs/cache.md). The candidates
  // vector keeps the fresh costs (its fixed order and values are the
  // inspection contract); the cached alternative is priced separately
  // and, when cheaper, substitutes for P-MPSM in the decision below.
  CandidateCost cached_cost;
  if (cached_runs != nullptr) {
    PlannerInputs cached_in = model_in;
    cached_in.cached_runs = true;
    cached_in.cached_delta_tuples = cached_runs->delta_tuples;
    cached_in.cached_delta_runs = cached_runs->delta_runs;
    cached_cost = EstimateCost(Algorithm::kPMpsm, cached_in, machine,
                               plan.mpsm, plan.dmpsm);
    plan.cached_runs.available = true;
    plan.cached_runs.delta_tuples = cached_runs->delta_tuples;
    plan.cached_runs.delta_runs = cached_runs->delta_runs;
    plan.cached_runs.cached_seconds = cached_cost.total_seconds;
    plan.cached_runs.fresh_seconds =
        candidate(Algorithm::kPMpsm).total_seconds;
  }
  const auto pmpsm_seconds = [&]() -> double {
    const double fresh = candidate(Algorithm::kPMpsm).total_seconds;
    return plan.cached_runs.available
               ? std::min(fresh, cached_cost.total_seconds)
               : fresh;
  };

  // ------------------------------------------------------- decision
  const std::optional<Algorithm> forced =
      spec.algorithm ? spec.algorithm : options.force_algorithm;
  if (forced.has_value()) {
    if (!SupportsKind(*forced, spec.kind)) {
      return Status::NotSupported(
          std::string(AlgorithmName(*forced)) + " does not implement " +
          JoinKindName(spec.kind) + " joins");
    }
    plan.algorithm = *forced;
    plan.rationale = spec.algorithm ? "forced by JoinSpec::algorithm"
                                    : "forced by EngineOptions::force_algorithm";
  } else if (over_budget) {
    if (spec.kind != JoinKind::kInner) {
      return Status::NotSupported(
          std::string("working set exceeds the memory budget and the spill "
                      "path (d-mpsm) does not implement ") +
          JoinKindName(spec.kind) + " joins");
    }
    plan.algorithm = Algorithm::kDMpsm;
    plan.rationale =
        "working set (" + std::to_string(in.working_set_bytes / 1000000) +
        " MB) exceeds the memory budget (" + std::to_string(budget / 1000000) +
        " MB): spill via d-mpsm, buffer pool " +
        std::to_string(plan.dmpsm.pool_budget_bytes >> 10) + " KiB";
  } else if (spec.kind != JoinKind::kInner) {
    plan.algorithm =
        pmpsm_seconds() <= candidate(Algorithm::kBMpsm).total_seconds
            ? Algorithm::kPMpsm
            : Algorithm::kBMpsm;
    plan.rationale = std::string(JoinKindName(spec.kind)) +
                     " join: MPSM family only; cheapest modeled variant";
  } else if (tiny) {
    plan.algorithm = Algorithm::kWisconsin;
    plan.rationale =
        "tiny inputs (" + std::to_string(in.r_tuples + in.s_tuples) +
        " <= " + std::to_string(options.tiny_input_tuples) +
        " tuples): phase orchestration would dominate; no-partition hash "
        "join";
  } else {
    plan.algorithm = Algorithm::kPMpsm;
    double best = pmpsm_seconds();
    for (const Algorithm a :
         {Algorithm::kBMpsm, Algorithm::kRadix, Algorithm::kWisconsin}) {
      if (candidate(a).feasible && candidate(a).total_seconds < best) {
        plan.algorithm = a;
        best = candidate(a).total_seconds;
      }
    }
    plan.rationale = "cheapest modeled in-memory candidate";
  }

  plan.predicted_seconds = candidate(plan.algorithm).total_seconds;
  plan.predicted_phase_seconds = candidate(plan.algorithm).phase_seconds;

  // Adopt the cached-merge pricing when P-MPSM won and the cached view
  // is the cheaper way to run it. Execute re-validates the view at run
  // time (stale plans fail over to the fresh sort, never stale runs).
  if (plan.cached_runs.available && plan.algorithm == Algorithm::kPMpsm &&
      cached_cost.total_seconds <= plan.cached_runs.fresh_seconds) {
    plan.cached_runs.use = true;
    plan.predicted_seconds = cached_cost.total_seconds;
    plan.predicted_phase_seconds = cached_cost.phase_seconds;
    plan.rationale += "; cached runs beat a fresh sort (merge-on-read)";
  }
  return plan;
}

simd::SimdKind PlanSimdKnob(const JoinPlan& plan) {
  switch (plan.algorithm) {
    case Algorithm::kPMpsm:
    case Algorithm::kBMpsm:
      return plan.mpsm.simd;
    case Algorithm::kDMpsm:
      return plan.dmpsm.simd;
    case Algorithm::kRadix:
      return plan.radix.simd;
    case Algorithm::kWisconsin:
      return simd::SimdKind::kScalar;
  }
  return simd::SimdKind::kScalar;
}

std::string JoinPlan::ToString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "plan: %s (%s join)\n",
                AlgorithmName(algorithm), JoinKindName(inputs.kind));
  out += line;
  std::snprintf(line, sizeof(line),
                "  inputs: |R| = %llu, |S| = %llu (multiplicity %.1f), "
                "skew ~%.1f\n",
                static_cast<unsigned long long>(inputs.r_tuples),
                static_cast<unsigned long long>(inputs.s_tuples),
                inputs.multiplicity, inputs.skew);
  out += line;
  if (inputs.memory_budget_bytes != 0) {
    std::snprintf(line, sizeof(line),
                  "  budget: %.1f MB (working set %.1f MB)\n",
                  inputs.memory_budget_bytes / 1e6,
                  inputs.working_set_bytes / 1e6);
  } else {
    std::snprintf(line, sizeof(line),
                  "  budget: unlimited (working set %.1f MB)\n",
                  inputs.working_set_bytes / 1e6);
  }
  out += line;
  std::snprintf(line, sizeof(line), "  team: %u workers on %u node%s\n",
                inputs.team_size, inputs.numa_nodes,
                inputs.numa_nodes == 1 ? "" : "s");
  out += line;
  const simd::SimdKind simd_knob = PlanSimdKnob(*this);
  const simd::SimdKind simd_resolved = simd::Resolve(simd_knob);
  std::snprintf(line, sizeof(line),
                "  simd: %s (requested %s, %u keys/compare)\n",
                simd::SimdKindName(simd_resolved),
                simd::SimdKindName(simd_knob),
                simd::KeysPerCompare(simd_resolved));
  out += line;
  std::snprintf(
      line, sizeof(line),
      "  predicted: %s  [ph1 %s | ph2 %s | ph3 %s | ph4 %s]\n",
      FormatMs(predicted_seconds).c_str(),
      FormatMs(predicted_phase_seconds[0]).c_str(),
      FormatMs(predicted_phase_seconds[1]).c_str(),
      FormatMs(predicted_phase_seconds[2]).c_str(),
      FormatMs(predicted_phase_seconds[3]).c_str());
  out += line;
  if (cached_runs.available) {
    std::snprintf(
        line, sizeof(line),
        "  cache: %s (cached merge %s vs fresh sort %s; %llu delta "
        "tuples in %u runs)\n",
        cached_runs.use ? "warm, merge-on-read" : "warm, fresh sort cheaper",
        FormatMs(cached_runs.cached_seconds).c_str(),
        FormatMs(cached_runs.fresh_seconds).c_str(),
        static_cast<unsigned long long>(cached_runs.delta_tuples),
        cached_runs.delta_runs);
    out += line;
  }
  out += "  candidates:";
  for (const CandidateCost& c : candidates) {
    out += " ";
    out += AlgorithmName(c.algorithm);
    if (c.feasible) {
      out += " ";
      out += FormatMs(c.total_seconds);
    } else {
      out += " (excluded: ";
      out += c.note;
      out += ")";
    }
    if (&c != &candidates.back()) out += " |";
  }
  out += "\n  why: ";
  out += rationale;
  out += "\n";
  return out;
}

std::string JoinPlan::ToString(const ExplainAnalyze& analyze) const {
  std::string out = ToString();
  char line[256];
  out += "  analyze (predicted vs measured):\n";
  // Relative error per phase; "-" when the model predicted (or the run
  // spent) nothing in the slot.
  const auto error_column = [](double predicted, double measured) {
    if (predicted <= 0 || measured <= 0) return std::string("      -");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+6.1f%%",
                  (measured - predicted) / predicted * 100.0);
    return std::string(buf);
  };
  for (uint32_t p = 0; p < kNumJoinPhases; ++p) {
    std::snprintf(line, sizeof(line), "    %-24s %10s %10s %s\n",
                  JoinPhaseName(static_cast<JoinPhase>(p)),
                  FormatMs(predicted_phase_seconds[p]).c_str(),
                  FormatMs(analyze.measured_phase_seconds[p]).c_str(),
                  error_column(predicted_phase_seconds[p],
                               analyze.measured_phase_seconds[p])
                      .c_str());
    out += line;
  }
  std::snprintf(line, sizeof(line), "    %-24s %10s %10s %s\n", "total",
                FormatMs(predicted_seconds).c_str(),
                FormatMs(analyze.measured_seconds).c_str(),
                error_column(predicted_seconds, analyze.measured_seconds)
                    .c_str());
  out += line;
  std::snprintf(line, sizeof(line), "  output: %llu tuples",
                static_cast<unsigned long long>(analyze.output_tuples));
  out += line;
  if (analyze.run_source != nullptr) {
    out += " (run source: ";
    out += analyze.run_source;
    out += ")";
  }
  out += "\n";
  if (!analyze.worker_cores.empty()) {
    out += "  placement: worker cores";
    for (uint32_t core : analyze.worker_cores) {
      out += " ";
      out += std::to_string(core);
    }
    out += "\n";
  }
  return out;
}

}  // namespace mpsm::engine

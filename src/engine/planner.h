// Cost-model join planner: picks the MPSM-family variant (or a hash
// baseline) for one join from workload statistics, the NUMA topology,
// and a memory budget.
//
// The paper's thesis is that one sort-merge family covers everything
// from in-memory flagship joins (P-MPSM, §3.2) to memory-constrained
// spilling (D-MPSM, §3.1). The planner encodes that reasoning so
// callers no longer pick variants by hand:
//
//   1. A forced algorithm (JoinSpec / EngineOptions) wins, if it
//      supports the requested JoinKind.
//   2. If the memory budget cannot hold both inputs plus their runs,
//      the join spills: D-MPSM, with the buffer pool sized from the
//      budget.
//   3. Non-inner joins (semi / anti / outer) are MPSM-family only.
//   4. Tiny inputs skip partitioned algorithms entirely: the
//      no-partition hash join's simplicity wins when everything fits
//      in cache and phase orchestration would dominate.
//   5. Otherwise every candidate is costed through the calibrated
//      sim::MachineModel (synthetic per-phase counters from the
//      cardinalities, multiplicity, skew estimate, and node count) and
//      the cheapest modeled response time wins.
//
// The outcome is an inspectable JoinPlan: chosen algorithm, predicted
// phase costs, every candidate's modeled cost, and the fully resolved
// per-variant option structs. See docs/engine.md for the decision
// table.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "baseline/radix_join.h"
#include "core/consumers.h"
#include "core/join_types.h"
#include "disk/d_mpsm.h"
#include "numa/topology.h"
#include "parallel/counters.h"
#include "sim/machine_model.h"
#include "simd/simd_kind.h"
#include "storage/relation.h"
#include "util/status.h"

namespace mpsm {
struct PublicRuns;  // core/public_runs.h — shared-sort batching
}  // namespace mpsm

namespace mpsm::engine {

/// Every join implementation the engine can dispatch to.
enum class Algorithm : uint8_t {
  kPMpsm,      // range-partitioned MPSM (§3.2, the flagship)
  kBMpsm,      // basic MPSM (§2.1, skew-immune baseline)
  kDMpsm,      // disk-enabled MPSM (§3.1, the spill path)
  kRadix,      // radix hash join (Vectorwise stand-in)
  kWisconsin,  // no-partition hash join (Blanas et al.)
};

inline constexpr size_t kNumAlgorithms = 5;

/// Display name ("p-mpsm", "d-mpsm", ...).
const char* AlgorithmName(Algorithm algorithm);

/// True when `algorithm` implements `kind`. The MPSM in-memory
/// variants cover all four kinds; the spill path and the hash
/// baselines are inner-only.
bool SupportsKind(Algorithm algorithm, JoinKind kind);

/// Engine-level crash-safe restartability of the D-MPSM spill path
/// (docs/recovery.md). Enabled, a D-MPSM execution spools through a
/// persistent named file and commits a checksummed manifest record
/// after each durable run and each completed chunk walk. A repeat
/// Execute of the *same* query (inputs, versions, team size, page
/// geometry — the manifest fingerprint) re-attaches the durable runs
/// and skips completed chunks; any mismatch falls back to a clean cold
/// run. Engine::Resume is Execute with this switched on. The per-commit
/// knobs (retain_artifacts, checksum_runs, strict_sync,
/// kill_after_commits) are read from EngineOptions::dmpsm.recovery.
struct RecoveryOverrides {
  bool enabled = false;
  /// Manifest + persistent-spool directory; empty uses the D-MPSM
  /// spill directory (DMpsmOptions::directory).
  std::string dir;
  /// Re-read and checksum every recorded run during Load (paranoid
  /// resume; catches spool corruption the manifest cannot see).
  bool verify_runs = false;
};

/// The engine's one knob set. Session and planner knobs live here;
/// every kernel knob is stated once, on the option struct of the
/// algorithm it steers (`mpsm` for P-MPSM and B-MPSM, `dmpsm` for the
/// spill path, `radix` for the radix hash join). The planner copies the
/// struct of the chosen algorithm into the JoinPlan and fills in only
/// the per-query fields (the JoinKind, and D-MPSM's pool budget when a
/// memory budget is set).
struct EngineOptions {
  // ------------------------------------------------------------ session
  /// Worker-team size. 0 sizes the team to the inputs' chunk count
  /// (each query's relations must be chunked into team-size chunks).
  uint32_t workers = 0;

  // ------------------------------------------------------------ planner
  /// Bypass planning and always run this algorithm (A/B harnesses).
  std::optional<Algorithm> force_algorithm;

  /// Session-wide RAM budget for a join's working set (inputs + runs);
  /// 0 = unlimited. JoinSpec::memory_budget_bytes overrides per query.
  uint64_t memory_budget_bytes = 0;

  /// |R|+|S| at or below this runs the no-partition hash join for
  /// inner joins: phase orchestration dominates partitioned algorithms
  /// on inputs this small.
  uint64_t tiny_input_tuples = uint64_t{1} << 15;

  /// Cost model the planner prices candidates with. Unset derives one
  /// from the probed topology (its node/core counts with the paper's
  /// calibrated HyPer1 coefficients); on single-node development
  /// machines the HyPer1 layout is kept so plans match the paper's
  /// NUMA reasoning (bench/common.h convention).
  std::optional<sim::MachineModel> machine;

  /// Close the planner feedback loop: after each executed query, fold
  /// the measured per-phase times back into the session's cost model
  /// (sim/calibration.h), so repeated sessions converge on this host's
  /// observed ns_per_sort_unit / ns_per_merge_key. Session-level only:
  /// a per-query options override never mutates the session model.
  bool recalibrate = false;

  // ------------------------------------------------------------ tracing
  /// Record a per-query trace (obs/trace.h) and return it in
  /// JoinReport::trace. Off by default; the disabled record path costs
  /// one thread-local load per span (BM_TraceOverheadOff measures it
  /// at < 1% of join throughput).
  bool trace = false;
  /// Events per thread ring of a traced query (TraceSinkOptions).
  size_t trace_ring_events = 4096;

  // ---------------------------------------- per-algorithm knobs
  /// P-MPSM / B-MPSM knobs; `kind` is taken from JoinSpec::kind.
  MpsmOptions mpsm;
  /// D-MPSM knobs. A zero pool_budget_bytes becomes half the query's
  /// memory budget when one is set. The recovery journal paths and
  /// resume state are filled in by the engine when `recovery.enabled`.
  disk::DMpsmOptions dmpsm;
  baseline::RadixJoinOptions radix;

  /// Crash-safe restartable spilling joins (docs/recovery.md).
  RecoveryOverrides recovery;
};

/// One join request: inputs, semantics, constraints, and the consumer
/// of the result. The engine plans everything else.
struct JoinSpec {
  /// Private/build input (R: range partitioned / hash built).
  const Relation* r = nullptr;
  /// Public/probe input (S: sorted once and shared / probed).
  const Relation* s = nullptr;

  JoinKind kind = JoinKind::kInner;

  /// Receives the join output; one consumer per worker.
  ConsumerFactory* consumers = nullptr;

  /// RAM budget for this query's working set; 0 = the session default
  /// (EngineOptions::memory_budget_bytes).
  uint64_t memory_budget_bytes = 0;

  /// Force a specific algorithm for this query only.
  std::optional<Algorithm> algorithm;

  /// Workload statistics, when the caller knows them. Unset values are
  /// estimated from the data (|S|/|R|; a key-histogram sample).
  std::optional<double> multiplicity_hint;
  std::optional<double> skew_hint;

  /// Per-query override of the session's EngineOptions (the pointee
  /// must outlive the Execute call). Null uses the session options.
  const EngineOptions* options = nullptr;

  /// Pre-sorted runs of `s` built by BuildPublicRuns on a team of the
  /// same size (core/public_runs.h): P-MPSM skips phase 1. Requires a
  /// P-MPSM plan (force via `algorithm` when in doubt); other plans
  /// fail the query. The join service sets this when batching
  /// compatible queries over one public input (docs/service.md).
  const PublicRuns* shared_public_runs = nullptr;

  /// Query id stamped on the report and trace (the Chrome trace's
  /// pid); 0 lets the engine assign a process-unique one. The join
  /// service sets this so lane logs and traces share ids.
  uint64_t query_id = 0;

  /// Wall nanoseconds this query waited for admission before Execute
  /// (set by the join service); recorded as a retroactive trace span
  /// and surfaced in JoinReport::admission_wait_ns.
  uint64_t admission_wait_ns = 0;
};

/// Workload statistics the planner derived for one join.
struct PlannerInputs {
  uint64_t r_tuples = 0;
  uint64_t s_tuples = 0;
  double multiplicity = 1.0;  // |S| / |R|
  /// Key-density skew estimate: max/avg bucket of a sampled 64-bucket
  /// key histogram over both inputs (1.0 = perfectly uniform).
  double skew = 1.0;
  uint64_t memory_budget_bytes = 0;  // 0 = unlimited
  /// Bytes an in-memory variant keeps resident: both inputs plus their
  /// sorted runs / partitions.
  uint64_t working_set_bytes = 0;
  uint32_t team_size = 1;
  uint32_t numa_nodes = 1;
  JoinKind kind = JoinKind::kInner;

  // -------------------------------------- cached-run pricing inputs
  /// True when the run cache holds a coherent sorted view of S
  /// (docs/cache.md): P-MPSM's phase 1 vanishes and phase 4 merges the
  /// delta runs on read instead.
  bool cached_runs = false;
  uint64_t cached_delta_tuples = 0;
  uint32_t cached_delta_runs = 0;
};

/// Modeled cost of one candidate algorithm.
struct CandidateCost {
  Algorithm algorithm = Algorithm::kPMpsm;
  /// False when a rule excludes the candidate (unsupported JoinKind,
  /// working set over budget); `note` says why.
  bool feasible = false;
  std::string note;
  /// Modeled slowest-worker time per phase slot (barrier semantics).
  std::array<double, kNumJoinPhases> phase_seconds{};
  double total_seconds = 0;
};

/// An inspectable join plan: what will run, why, at what predicted
/// cost, with every knob resolved.
struct JoinPlan {
  Algorithm algorithm = Algorithm::kPMpsm;
  PlannerInputs inputs;

  /// Modeled cost of the chosen algorithm.
  double predicted_seconds = 0;
  std::array<double, kNumJoinPhases> predicted_phase_seconds{};

  /// Every candidate the planner considered (fixed Algorithm order).
  std::vector<CandidateCost> candidates;

  /// One-line reason for the choice.
  std::string rationale;

  /// Fully resolved knobs; the struct matching `algorithm` is the one
  /// Execute uses (kPMpsm/kBMpsm -> mpsm, kDMpsm -> dmpsm, ...).
  MpsmOptions mpsm;
  disk::DMpsmOptions dmpsm;
  baseline::RadixJoinOptions radix;

  /// Cached-merge vs fresh-sort pricing (only when the engine found a
  /// coherent run-cache view of S at plan time, docs/cache.md). The
  /// decision is *advisory*: Execute re-validates the view against the
  /// relation's version and chunking and falls back to a fresh sort if
  /// it went stale between plan and execution.
  struct CachedRunsDecision {
    bool available = false;  // coherent cached view existed at plan time
    bool use = false;        // cached-merge priced at or below fresh-sort
    uint64_t delta_tuples = 0;
    uint32_t delta_runs = 0;
    double cached_seconds = 0;  // modeled P-MPSM over cached runs
    double fresh_seconds = 0;   // modeled P-MPSM with its own phase 1
  };
  CachedRunsDecision cached_runs;

  /// Measured counterpart for the post-execution EXPLAIN ANALYZE
  /// rendering (JoinReport::ExplainAnalyzeString fills one from its
  /// measured_phase_seconds).
  struct ExplainAnalyze {
    std::array<double, kNumJoinPhases> measured_phase_seconds{};
    double measured_seconds = 0;
    uint64_t output_tuples = 0;
    /// Optional provenance note (RunSourceName); null omits the line.
    const char* run_source = nullptr;
    /// Core of each worker (JoinRunInfo::worker_cores); empty omits
    /// the placement line.
    std::vector<uint32_t> worker_cores;
  };

  /// Multi-line human-readable plan (EXPLAIN-style).
  std::string ToString() const;
  /// EXPLAIN ANALYZE: the plan plus a per-phase predicted-vs-measured
  /// table for the execution `analyze` describes.
  std::string ToString(const ExplainAnalyze& analyze) const;
};

/// The simd knob of the plan's chosen algorithm (kScalar for the
/// wisconsin baseline, which has no vector kernels). Resolve it with
/// simd::Resolve for the kind that will actually execute.
simd::SimdKind PlanSimdKnob(const JoinPlan& plan);

/// What the engine's run cache would serve for S (cache::RunCache::Peek
/// distilled to the planner-relevant numbers). The planner stays
/// ignorant of the cache type itself.
struct CachedRunsHint {
  uint64_t delta_tuples = 0;
  uint32_t delta_runs = 0;
};

/// Plans joins for one (topology, options) session. Stateless beyond
/// the borrowed references; cheap to construct per query.
class Planner {
 public:
  /// Both pointees must outlive the planner.
  Planner(const numa::Topology* topology, const EngineOptions* options)
      : topology_(topology), options_(options) {}

  /// Produces the plan for `spec` on a team of `team_size` workers.
  /// Validates the resolved option structs (Validate() satellites)
  /// before any cost is estimated. `cached_runs` (optional) announces a
  /// coherent run-cache view of S: the planner then prices cached-merge
  /// vs fresh-sort and records the decision in JoinPlan::cached_runs.
  Result<JoinPlan> Plan(const JoinSpec& spec, uint32_t team_size,
                        const CachedRunsHint* cached_runs = nullptr) const;

  /// The cost model this planner prices candidates with (the resolved
  /// EngineOptions::machine).
  sim::MachineModel PlanningMachine() const;

  /// Modeled cost of `algorithm` under `inputs` on `machine`;
  /// exposed for tests and the decision-table doc generator. `dmpsm`
  /// supplies the spill path's I/O shape (backend, queue depth, page
  /// size): an async backend overlaps device reads with merge compute
  /// (max instead of sum), a sync backend serializes them at depth-1
  /// bandwidth.
  static CandidateCost EstimateCost(Algorithm algorithm,
                                    const PlannerInputs& inputs,
                                    const sim::MachineModel& machine,
                                    const MpsmOptions& mpsm,
                                    const disk::DMpsmOptions& dmpsm);

  /// Key-density skew estimate over both inputs (sampled); >= 1.
  static double EstimateSkew(const Relation& r, const Relation& s);

  /// Bytes an in-memory variant keeps resident for these inputs.
  static uint64_t WorkingSetBytes(uint64_t r_tuples, uint64_t s_tuples);

 private:
  const numa::Topology* topology_;
  const EngineOptions* options_;
};

/// Each variant's option struct for one query: the EngineOptions copy
/// plus the per-query fields (exposed for tests; the planner embeds the
/// results in the JoinPlan).
MpsmOptions ResolveMpsmOptions(const EngineOptions& options, JoinKind kind);
disk::DMpsmOptions ResolveDMpsmOptions(const EngineOptions& options,
                                       uint64_t memory_budget_bytes);

}  // namespace mpsm::engine

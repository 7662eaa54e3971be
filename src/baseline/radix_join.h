// Parallel radix hash join — the stand-in for Vectorwise's join engine.
//
// Vectorwise (the paper's strongest contender) builds on MonetDB's
// radix join [19]: repeatedly partition both inputs on join-key hash
// bits until fragments are cache-sized, then build+probe per fragment.
// This implementation follows the multi-core formulation of Kim et al.
// [17] / He et al. [14]: histogram + prefix-sum scatter per pass, a
// first cross-NUMA pass of B1 bits (TLB-bounded), a second node-local
// pass of B2 bits, and per-fragment hash join, with partitions load-
// balanced over workers through an atomic task counter.
#pragma once

#include "core/consumers.h"
#include "core/join_stats.h"
#include "parallel/scheduler_kind.h"
#include "parallel/worker_team.h"
#include "partition/scatter_kind.h"
#include "simd/simd_kind.h"
#include "storage/relation.h"
#include "util/status.h"

namespace mpsm::baseline {

/// Tuning for the radix join.
struct RadixJoinOptions {
  /// Bits of the first (cross-NUMA) partitioning pass; 0 = auto.
  uint32_t pass1_bits = 0;
  /// Bits of the second (local) pass; 0 = auto (may legitimately
  /// resolve to zero for small inputs).
  uint32_t pass2_bits = 0;
  /// Target tuples per final fragment for auto bit selection
  /// (cache-resident build side).
  uint32_t target_fragment_tuples = 2048;
  /// Scatter implementation of the pass-1 partitioning writes. kAuto
  /// resolves per the ~100-partition crossover (docs/tuning.md): the
  /// 2^B1-way fan-out picks write combining except for tiny inputs.
  ScatterKind scatter = ScatterKind::kAuto;

  /// How pass-2/join tasks are distributed (docs/scheduler.md).
  /// Stealing reproduces the legacy dynamic task counter but with
  /// NUMA-aware, locality-first dispatch: partitions queue on their
  /// owning node and idle workers steal cross-node. Static pre-assigns
  /// partitions round-robin to the owning node's workers (A/B knob).
  SchedulerKind scheduler = SchedulerKind::kStealing;

  /// Vector ISA of the partitioning hash-digit histograms
  /// (docs/simd.md); every kind counts identically.
  simd::SimdKind simd = simd::SimdKind::kAuto;

  /// Checks every knob against its legal range. The engine front door
  /// calls this before planning.
  Status Validate() const;

  friend bool operator==(const RadixJoinOptions&,
                         const RadixJoinOptions&) = default;
};

/// The radix-partitioned hash join (inner joins).
/// Consumers receive OnMatch(build_tuple, &probe_tuple, 1).
class RadixHashJoin {
 public:
  explicit RadixHashJoin(RadixJoinOptions options = {})
      : options_(options) {}

  /// Phase mapping for stats: pass 1 -> kPhasePartition, pass 2 ->
  /// kPhaseSortPrivate slot, build+probe -> kPhaseJoin.
  Result<JoinRunInfo> Execute(WorkerTeam& team, const Relation& r_build,
                              const Relation& s_probe,
                              ConsumerFactory& consumers) const;

  /// Resolved (pass1_bits, pass2_bits) for a build side of `r_size`.
  std::pair<uint32_t, uint32_t> EffectiveBits(size_t r_size) const;

 private:
  RadixJoinOptions options_;
};

}  // namespace mpsm::baseline

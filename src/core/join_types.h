// Join kinds and shared option types for the MPSM algorithm family.
#pragma once

#include <cstdint>
#include <functional>

#include "parallel/scheduler_kind.h"
#include "partition/scatter_kind.h"
#include "partition/splitters.h"
#include "simd/simd_kind.h"
#include "sort/radix_introsort.h"
#include "util/status.h"

namespace mpsm {

/// Supported equi-join variants. Inner is the paper's focus; semi,
/// anti and left-outer are the §7 future-work variants, implemented on
/// top of the same merge kernel via per-run match bitmaps.
enum class JoinKind : uint8_t {
  kInner,
  kLeftSemi,
  kLeftAnti,
  kLeftOuter,
};

/// Name of a JoinKind ("inner", "left-semi", ...).
const char* JoinKindName(JoinKind kind);

/// Default lookahead (in tuples) of the prefetch-pipelined merge
/// kernel: 16 tuples = 4 cache lines, roughly one memory latency ahead
/// of a ~1 tuple/cycle merge loop.
inline constexpr uint32_t kDefaultMergePrefetchDistance = 16;

/// Strategy for locating the merge-join start position in a public run
/// (§3.2.2 ablation).
enum class StartSearch : uint8_t {
  kInterpolation,  // the paper's choice
  kBinary,
  kLinear,
};

/// Tuning knobs of the MPSM variants.
struct MpsmOptions {
  /// Join variant to compute.
  JoinKind kind = JoinKind::kInner;

  /// Number of radix bits B for private-input clustering; log2(T) <= B.
  /// 0 selects the default max(ceil(log2(T)) + 5, 10), giving the
  /// splitter computation fine-grained histograms (Figure 9 shows the
  /// extra precision is almost free).
  uint32_t radix_bits = 0;

  /// Oversampling factor f: each worker contributes f*T equi-height
  /// bounds to the global CDF (§4.1).
  uint32_t equi_height_factor = 4;

  /// How workers locate the join start within each public run.
  StartSearch start_search = StartSearch::kInterpolation;

  /// Balance partitions by the split-relevant cost (true, §4.3) or by
  /// R cardinality only (false; Figure 16's equi-height strawman).
  bool cost_balanced_splitters = true;

  /// Insert barriers between phases so per-phase wall times are
  /// comparable across workers (the paper's phase breakdown charts).
  /// The algorithm itself only requires the single sort/join barrier.
  bool phase_barriers = true;

  // ------------------------------------------------ phase orchestration
  /// How phase work is distributed over the team: the paper's static
  /// per-worker scripts, or morsel-driven NUMA-aware work stealing so
  /// idle workers absorb stragglers' run generation, phase-3 sorts and
  /// phase-4 merges (docs/scheduler.md). Identical join output either
  /// way. Stealing is the default since run generation was sliced
  /// below chunk granularity (a claim race can no longer hand one
  /// worker two whole chunk sorts); kStatic remains the paper-fidelity
  /// A/B knob.
  SchedulerKind scheduler = SchedulerKind::kStealing;

  /// Target tuples per stealable morsel (scatter blocks, sort buckets,
  /// merge ranges). Smaller morsels balance better but add claim
  /// overhead; 2^14 tuples = 256 KiB keeps a morsel around one L2.
  /// 0 = adaptive: each phase derives its slice from the variance of
  /// the work-unit sizes it is about to slice (ResolveMorselTuples,
  /// docs/scheduler.md) — uniform partitions keep the 2^14 default,
  /// skewed ones slice finer so the hot partition's surplus spreads.
  uint32_t morsel_tuples = 1u << 14;

  // ------------------------------------------- cache-conscious kernels
  // Each hot path keeps its scalar implementation selectable for A/B
  // benchmarking (docs/tuning.md); the defaults are the fast variants.

  /// Sort that turns chunks/partitions into runs (phases 1 and 3).
  sort::SortKind sort = sort::SortKind::kMultiPassRadix;

  /// Bucket threshold / pass cap of the multi-pass radix sort.
  sort::RadixSortConfig sort_config;

  /// Scatter implementation for phase 2.3 range partitioning. kAuto
  /// picks per execution from the fan-out/input size (write combining
  /// above the ~100-partition crossover, the scalar loop below —
  /// docs/tuning.md). P-MPSM's fan-out equals the team size, so small
  /// teams resolve to scalar and only 100+-worker teams flip to write
  /// combining; explicit kScalar/kWriteCombining still force a kernel
  /// for A/B runs.
  ScatterKind scatter = ScatterKind::kAuto;

  /// Precompute the scatter's partition digits blockwise with the
  /// vectorized cluster kernel (simd/histogram_kernels.h ClusterDigits)
  /// instead of the fused scalar subtract-shift-clamp per tuple. Takes
  /// effect only when `simd` resolves past kScalar; false keeps the
  /// fused loop as the A/B baseline (BM_ScatterDigits*).
  bool simd_scatter_digits = true;

  /// Software-prefetch lookahead (tuples) of the merge-join kernel;
  /// 0 selects the scalar kernel.
  uint32_t merge_prefetch_distance = kDefaultMergePrefetchDistance;

  /// Skip non-overlapping private-run prefixes in the join phase with
  /// the same start search used for public runs.
  bool merge_skip_private_prefix = true;

  /// Vector ISA of the merge-advance, start-search, key-range and
  /// radix-histogram kernels (docs/simd.md). kAuto resolves to the
  /// widest ISA this build and CPU support; kScalar keeps the paper's
  /// one-key-per-compare loops as the A/B baseline. The sort's digit
  /// histograms follow sort_config.simd.
  simd::SimdKind simd = simd::SimdKind::kAuto;

  /// Checks every knob against its legal range for a team of
  /// `team_size` workers. The engine front door calls this before
  /// planning; the variant classes themselves stay lenient (e.g.
  /// EffectiveRadixBits clamps an undersized radix_bits) so the
  /// internal layer keeps its paper-fidelity behavior.
  Status Validate(uint32_t team_size) const;

  friend bool operator==(const MpsmOptions&, const MpsmOptions&) = default;
};

}  // namespace mpsm

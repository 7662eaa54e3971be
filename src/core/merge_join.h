// The merge-join kernel and the per-worker run-join driver.
//
// MPSM never merges runs into a global sort order; instead every worker
// merge-joins its private run against each public run independently
// (Figure 3 phase 3 / Figure 5 phase 4). The kernel below joins one
// (R-run, S-run) pair with full duplicate handling; the driver iterates
// a private run over all public runs, staggering the starting run so
// workers fan out across NUMA nodes, and implements the semi / anti /
// outer variants via a per-run match bitmap.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/consumers.h"
#include "core/join_types.h"
#include "numa/topology.h"
#include "parallel/counters.h"
#include "parallel/task_scheduler.h"
#include "simd/caps.h"
#include "simd/merge_kernels.h"
#include "simd/simd_kind.h"
#include "storage/run.h"

namespace mpsm {

/// Dense bitmap tracking which private tuples found a join partner
/// (needed by semi/anti/outer joins across multiple public runs).
class MatchBitmap {
 public:
  MatchBitmap() = default;
  explicit MatchBitmap(size_t n) : size_(n), words_((n + 63) / 64, 0) {}

  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  bool Get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// Scan positions after a kernel invocation (for traffic accounting).
struct MergeScan {
  size_t r_end = 0;  // one past the last private index examined
  size_t s_end = 0;  // one past the last public index examined
  uint64_t matches = 0;
};

namespace internal {

/// Shared merge loop; `kPrefetch` selects the pipelined variant that
/// keeps both run cursors `prefetch_tuples` ahead in flight.
template <bool kPrefetch, typename OnMatch>
MergeScan MergeJoinLoop(const Tuple* r, size_t nr, const Tuple* s, size_t ns,
                        size_t prefetch_tuples, OnMatch&& on_match) {
  MergeScan scan;
  size_t i = 0;
  size_t j = 0;
  while (i < nr && j < ns) {
    if constexpr (kPrefetch) {
      // Touch the line `prefetch_tuples` ahead of each cursor. Reads
      // past the run tail are harmless (prefetch never faults), and
      // duplicate prefetches of a resident line are ~free.
      __builtin_prefetch(r + i + prefetch_tuples, /*rw=*/0, /*locality=*/3);
      __builtin_prefetch(s + j + prefetch_tuples, /*rw=*/0, /*locality=*/3);
    }
    const uint64_t r_key = r[i].key;
    if (r_key < s[j].key) {
      ++i;
    } else if (r_key > s[j].key) {
      ++j;
    } else {
      size_t j_end = j + 1;
      while (j_end < ns && s[j_end].key == r_key) ++j_end;
      const size_t group = j_end - j;
      do {
        on_match(i, r[i], s + j, group);
        scan.matches += group;
        ++i;
      } while (i < nr && r[i].key == r_key);
      j = j_end;
    }
  }
  scan.r_end = i;
  scan.s_end = j;
  return scan;
}

#if MPSM_SIMD_X86

// SIMD variants of MergeJoinLoop, stamped per ISA so the kernels
// (simd/merge_kernels.h) inline fully. The public-run cursor — the one
// that moves ~multiplicity tuples per step — catches up against a
// register-resident window of W unpacked keys (SKeyWindow*): one
// packed compare per pivot, one load+unpack per W tuples of progress,
// galloping via the advance kernel when a pivot clears several whole
// windows (skewed runs). The private cursor steps scalar (it moves ~1
// tuple per iteration) and equal-key groups keep the scalar duplicate
// handling, so the match sequence is bit-identical to the scalar loop.
// Composes with the prefetch pipeline: the lookahead is issued per
// outer iteration, ahead of both cursors.
#define MPSM_MERGE_LOOP_SIMD(NAME, ISA, WINDOW, ADVANCE)                   \
  template <bool kPrefetch, typename OnMatch>                              \
  MPSM_SIMD_TARGET(ISA)                                                    \
  MergeScan NAME(const Tuple* r, size_t nr, const Tuple* s, size_t ns,     \
                 size_t prefetch_tuples, OnMatch&& on_match) {             \
    constexpr size_t kW = simd::WINDOW::kWidth;                            \
    constexpr size_t kNoWindow = static_cast<size_t>(-1);                  \
    MergeScan scan;                                                        \
    size_t i = 0;                                                          \
    size_t j = 0;                                                          \
    simd::WINDOW window;                                                   \
    size_t jw = kNoWindow; /* s index the cached window starts at */       \
    while (i < nr && j < ns) {                                             \
      if constexpr (kPrefetch) {                                           \
        __builtin_prefetch(r + i + prefetch_tuples, /*rw=*/0,              \
                           /*locality=*/3);                                \
        /* The public cursor outruns the private one by the        */      \
        /* multiplicity; a vector step consumes a whole window per */      \
        /* compare, so keep several windows' worth of s in flight. */      \
        __builtin_prefetch(s + j + 4 * prefetch_tuples, /*rw=*/0,          \
                           /*locality=*/3);                                \
        __builtin_prefetch(s + j + 4 * prefetch_tuples + 4, /*rw=*/0,      \
                           /*locality=*/3);                                \
      }                                                                    \
      const uint64_t pivot = r[i].key;                                     \
      /* Catch s up to the pivot's lower bound. Pivots ascend, so  */      \
      /* against one window the count of keys below the pivot only */      \
      /* grows: j never moves backward, and a cached window can be */      \
      /* compared unconditionally — no load dependent on j in the  */      \
      /* common path, so consecutive pivots pipeline.              */      \
      bool catch_up;                                                       \
      if (jw != kNoWindow) {                                               \
        const size_t count = window.CountLess(pivot);                      \
        j = jw + count;                                                    \
        catch_up = count == kW;                                            \
        if (catch_up) jw = kNoWindow; /* window exhausted */               \
      } else {                                                             \
        catch_up = s[j].key < pivot;                                       \
      }                                                                    \
      if (catch_up) {                                                      \
        int blocks = 0;                                                    \
        for (;;) {                                                         \
          if (jw == kNoWindow || j >= jw + kW) {                           \
            if (j + kW > ns) {                                             \
              while (j < ns && s[j].key < pivot) ++j;                      \
              break;                                                       \
            }                                                              \
            jw = j;                                                        \
            window.Load(s + jw);                                           \
          }                                                                \
          const size_t count = window.CountLess(pivot);                    \
          j = jw + count;                                                  \
          if (count < kW) break;                                           \
          jw = kNoWindow; /* window exhausted */                           \
          if (++blocks >= simd::kGallopAfterBlocks) {                      \
            j = simd::ADVANCE(s, j, ns, pivot);                            \
            break;                                                         \
          }                                                                \
        }                                                                  \
        if (j >= ns) break;                                                \
      }                                                                    \
      if (s[j].key == pivot) {                                             \
        size_t j_end = j + 1;                                              \
        while (j_end < ns && s[j_end].key == pivot) ++j_end;               \
        const size_t group = j_end - j;                                    \
        do {                                                               \
          on_match(i, r[i], s + j, group);                                 \
          scan.matches += group;                                           \
          ++i;                                                             \
        } while (i < nr && r[i].key == pivot);                             \
        j = j_end;                                                         \
        jw = kNoWindow; /* the group scan may leave the window */          \
      } else {                                                             \
        ++i; /* pivot unmatched; private side steps scalar */              \
      }                                                                    \
    }                                                                      \
    scan.r_end = i;                                                        \
    scan.s_end = j;                                                        \
    return scan;                                                           \
  }

MPSM_MERGE_LOOP_SIMD(MergeJoinLoopAvx2, "avx2", SKeyWindowAvx2,
                     AdvanceLowerBoundAvx2)
MPSM_MERGE_LOOP_SIMD(MergeJoinLoopAvx512, "avx512f", SKeyWindowAvx512,
                     AdvanceLowerBoundAvx512)

#undef MPSM_MERGE_LOOP_SIMD

#endif  // MPSM_SIMD_X86

}  // namespace internal

/// Merge-joins sorted arrays r[0..nr) and s[0..ns).
///
/// `on_match(r_index, r_tuple, s_group_begin, s_group_count)` fires once
/// per private tuple per equal-key group of public tuples. Handles
/// duplicates on both sides.
template <typename OnMatch>
MergeScan MergeJoinRunPair(const Tuple* r, size_t nr, const Tuple* s,
                           size_t ns, OnMatch&& on_match) {
  return internal::MergeJoinLoop<false>(r, nr, s, ns, 0,
                                        std::forward<OnMatch>(on_match));
}

/// Prefetch-pipelined variant of MergeJoinRunPair: issues software
/// prefetches `prefetch_tuples` ahead of both run cursors so the merge
/// streams from memory instead of stalling on each new cache line
/// (public runs are mostly remote, §3.3). Identical output contract.
template <typename OnMatch>
MergeScan MergeJoinRunPairPrefetch(const Tuple* r, size_t nr, const Tuple* s,
                                   size_t ns, size_t prefetch_tuples,
                                   OnMatch&& on_match) {
  return internal::MergeJoinLoop<true>(r, nr, s, ns, prefetch_tuples,
                                       std::forward<OnMatch>(on_match));
}

/// Kernel dispatch over both axes: the pipelined variant when
/// `prefetch_tuples` > 0 (the `merge_prefetch_distance` knob), and the
/// per-ISA SIMD-advance loop selected by `simd` (resolved via
/// simd::Resolve; kScalar keeps the paper's one-key-per-compare loop —
/// the `simd` knob). Every combination emits the identical match
/// sequence.
template <typename OnMatch>
MergeScan MergeJoinRunPairWith(size_t prefetch_tuples, simd::SimdKind simd,
                               const Tuple* r, size_t nr, const Tuple* s,
                               size_t ns, OnMatch&& on_match) {
#if MPSM_SIMD_X86
  const auto simd_loop = [&](auto&& loop) {
    return prefetch_tuples > 0
               ? loop.template operator()<true>(prefetch_tuples)
               : loop.template operator()<false>(size_t{0});
  };
  switch (simd::Resolve(simd)) {
    case simd::SimdKind::kAvx2:
      return simd_loop([&]<bool kPrefetch>(size_t distance) {
        return internal::MergeJoinLoopAvx2<kPrefetch>(
            r, nr, s, ns, distance, std::forward<OnMatch>(on_match));
      });
    case simd::SimdKind::kAvx512:
      return simd_loop([&]<bool kPrefetch>(size_t distance) {
        return internal::MergeJoinLoopAvx512<kPrefetch>(
            r, nr, s, ns, distance, std::forward<OnMatch>(on_match));
      });
    default:
      break;  // kScalar
  }
#else
  (void)simd;
#endif
  return prefetch_tuples > 0
             ? MergeJoinRunPairPrefetch(r, nr, s, ns, prefetch_tuples,
                                        std::forward<OnMatch>(on_match))
             : MergeJoinRunPair(r, nr, s, ns,
                                std::forward<OnMatch>(on_match));
}

/// Options for the per-worker run-join driver.
struct RunJoinOptions {
  JoinKind kind = JoinKind::kInner;
  StartSearch search = StartSearch::kInterpolation;

  /// Software-prefetch lookahead of the merge kernel, in tuples;
  /// 0 selects the scalar kernel.
  uint32_t prefetch_distance = kDefaultMergePrefetchDistance;

  /// Skip the private run's non-overlapping prefix with the same start
  /// search used for the public run (the scalar driver only skips the
  /// public side), saving one-by-one advances when Ri starts below Sj.
  bool skip_private_prefix = true;

  /// Vector ISA of the merge-advance and start-search kernels
  /// (docs/simd.md); kScalar selects the one-key-per-compare loops.
  simd::SimdKind simd = simd::SimdKind::kAuto;
};

/// Joins private run `ri` against every run in `s_runs`, starting with
/// run `first_run` and wrapping around (staggering remote accesses).
///
/// Counts memory traffic into `counters` (nullable) classifying each S
/// run as local/remote against `worker_node`. Returns the number of
/// output tuples delivered to `consumer`.
uint64_t JoinPrivateAgainstRuns(const Run& ri, const RunSet& s_runs,
                                uint32_t first_run,
                                const RunJoinOptions& options,
                                JoinConsumer& consumer,
                                numa::NodeId worker_node,
                                PerfCounters* counters);

/// Builds the stealing scheduler's phase-4 morsels. Inner joins are
/// sliced finely — one morsel per (private run i, public run j, tuple
/// range of i), task = i * |s_runs| + j, public runs staggered per i —
/// so a hot partition's merge work spreads over idle workers. The
/// bitmap-carrying kinds (semi/anti/outer) get one morsel per private
/// run (task = i, the full driver): the match bitmap spans all public
/// runs and must stay single-owner.
std::vector<Morsel> MergeJoinMorsels(const RunSet& r_runs,
                                     uint32_t num_public_runs, JoinKind kind,
                                     uint64_t morsel_tuples);

/// Executes one MergeJoinMorsels morsel. `worker_node` is the
/// *executing* worker's node; locality is classified against the runs'
/// homes, so stolen morsels are charged remote traffic.
void ExecuteMergeJoinMorsel(const Morsel& morsel, const RunSet& r_runs,
                            const RunSet& s_runs,
                            const RunJoinOptions& options,
                            JoinConsumer& consumer, numa::NodeId worker_node,
                            PerfCounters* counters);

}  // namespace mpsm

// The paper's three-phase sorting routine (§2.3):
//
//   1. One in-place MSD radix partitioning pass producing 2^8 = 256
//      partitions on the 8 most significant (used) bits of the key
//      (histogram -> partition boundaries -> swap into place).
//   2. IntroSort on each partition: quicksort limited to 2*log2(n)
//      recursion levels, falling back to heapsort beyond that.
//   3. Partitions below 16 elements are left to a final insertion-sort
//      pass that establishes the total order.
//
// The routine sorts 16-byte tuples by their 64-bit key; it is what every
// MPSM worker uses to turn its local chunk into a run. Individual phases
// are exposed for unit testing and for the kernel benchmarks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "simd/simd_kind.h"
#include "storage/tuple.h"
#include "util/status.h"

namespace mpsm::sort {

/// Number of buckets of the MSD radix pass (8 bits).
inline constexpr uint32_t kRadixBuckets = 256;

/// Quicksort-to-insertion-sort cutoff (paper: 16 elements).
inline constexpr size_t kInsertionThreshold = 16;

/// Which sort turns a chunk into a run.
enum class SortKind : uint8_t {
  kSinglePassRadix,  // the paper's single MSD pass + introsort (§2.3)
  kMultiPassRadix,   // recursive MSD passes above a bucket threshold
  kIntroSort,        // no radix pass (comparison baseline)
};

/// Name of a SortKind ("single-pass-radix", ...).
const char* SortKindName(SortKind kind);

/// Tuning knobs of the multi-pass MSD radix sort.
struct RadixSortConfig {
  /// Buckets larger than this many tuples are re-partitioned on the
  /// next 8 key bits instead of handed to introsort. The default keeps
  /// introsort working sets around 256 * 16 = 4096 tuples (64 KiB),
  /// comfortably inside L2.
  size_t repartition_threshold = kRadixBuckets * kInsertionThreshold;

  /// Hard cap on the number of 8-bit MSD passes (1 == the paper's
  /// single pass); bounds the recursion on adversarial distributions.
  uint32_t max_passes = 4;

  /// Vector ISA of the MSD digit-histogram pass (docs/simd.md); every
  /// kind partitions identically — the knob is an A/B axis.
  simd::SimdKind simd = simd::SimdKind::kAuto;

  /// Range-checks the knobs (callers embed this in their own
  /// Options::Validate()).
  Status Validate() const;

  friend bool operator==(const RadixSortConfig&,
                         const RadixSortConfig&) = default;
};

/// Sorts data[0..n) by key using the full Radix/IntroSort pipeline.
void RadixIntroSort(Tuple* data, size_t n);

/// Cache-conscious variant of RadixIntroSort: buckets that come out of
/// an MSD pass larger than config.repartition_threshold are recursively
/// re-partitioned on the next 8 key bits (up to config.max_passes
/// passes) before falling back to introsort, so the
/// comparison-sorted leaves always fit in cache.
void RadixIntroSortMultiPass(Tuple* data, size_t n,
                             const RadixSortConfig& config = {});

/// Dispatches to the sort selected by `kind`.
void SortTuples(Tuple* data, size_t n, SortKind kind,
                const RadixSortConfig& config = {});

/// Sorts data[0..n) by key with plain introsort (no radix pass); used
/// for small arrays and as a comparison point.
void IntroSort(Tuple* data, size_t n);

/// Insertion sort; exposed for testing. Sorts data[0..n) by key.
void InsertionSort(Tuple* data, size_t n);

/// Bottom-up heapsort; exposed for testing. Sorts data[0..n) by key.
void HeapSort(Tuple* data, size_t n);

/// In-place MSD radix partitioning ("American flag" pass): permutes
/// data[0..n) so that bucket b = (key >> shift) & 0xFF occupies
/// [bounds[b], bounds[b+1]). Returns the 257-entry boundary array.
/// `simd` selects the digit-histogram kernel; the permutation itself
/// is scalar (it is a data-dependent cycle walk).
std::array<size_t, kRadixBuckets + 1> MsdRadixPartition(
    Tuple* data, size_t n, uint32_t shift,
    simd::SimdKind simd = simd::SimdKind::kAuto);

/// Out-of-place MSD pass that fuses a copy into the partitioning
/// (the §2.3 amortization): dst[0..n) receives src's tuples grouped by
/// the 8-bit digit at `shift`, replacing the separate copy-then-permute
/// passes of copy + MsdRadixPartition. src and dst must not overlap.
/// Returns the same 257-entry boundary array.
std::array<size_t, kRadixBuckets + 1> MsdRadixPartitionCopy(
    const Tuple* src, size_t n, uint32_t shift, Tuple* dst,
    simd::SimdKind simd = simd::SimdKind::kAuto);

/// Finishes buckets [bucket_begin, bucket_end) of an MSD pass at
/// `shift` to a total order with the policy of `kind`/`config`
/// (further MSD passes for oversized buckets under kMultiPassRadix,
/// introsort otherwise; shift 0 buckets hold one repeated key and are
/// skipped). Exposed per bucket *range* so the morsel scheduler can
/// spread one oversized partition's bucket sorts over idle workers.
void SortMsdBuckets(Tuple* data,
                    const std::array<size_t, kRadixBuckets + 1>& bounds,
                    uint32_t bucket_begin, uint32_t bucket_end,
                    uint32_t shift, SortKind kind,
                    const RadixSortConfig& config = {});

/// Copies src[0..n) into dst[0..n) and sorts dst by key. For the radix
/// sort kinds the copy is fused with the first MSD pass; plain
/// memcpy + sort for kIntroSort and tiny inputs. No overlap allowed.
///
/// `src_is_local` steers the fusion around commandment C1 (touch
/// remote data once): a local source is swept three times
/// (max-key, histogram, scatter via MsdRadixPartitionCopy — cheaper
/// than copy-then-permute); a remote source is read exactly once by a
/// fused copy+max-key pass, with the radix pass running in place on
/// the local destination.
void SortCopyInto(const Tuple* src, size_t n, Tuple* dst, SortKind kind,
                  const RadixSortConfig& config = {},
                  bool src_is_local = true);

/// Shift such that the top 8 significant bits of keys <= max_key select
/// the radix bucket (0 when max_key < 256).
uint32_t RadixShiftForMaxKey(uint64_t max_key);

/// True iff data[0..n) is non-decreasing in key.
bool IsSortedByKey(const Tuple* data, size_t n);

}  // namespace mpsm::sort

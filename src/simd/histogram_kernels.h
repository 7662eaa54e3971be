// Vectorized histogram / digit-extraction kernels for the radix
// passes (§3.2.1, §2.3) and the key-range scan.
//
// The counting loops of the partitioning phases are comparison-free
// but not compute-free: every tuple costs a shift/mask (radix digit),
// a subtract-shift-clamp (range cluster) or a multiply-shift (hash
// digit) before the increment. These kernels lift one register of
// keys at a time out of the 16-byte tuples with unpack shuffles (no
// gathers), extract the digits with packed ALU ops, and spill them to
// a small stack buffer for the scalar increments — the table update
// itself stays scalar because neighboring tuples may hit the same
// bucket. All kinds produce bit-identical histograms.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/simd_kind.h"
#include "storage/tuple.h"

namespace mpsm::simd {

/// histogram[(key >> shift) & 0xFF] += 1 per tuple (the 8-bit MSD
/// radix pass of src/sort/). `histogram` must have 256 zero-initialized
/// (or accumulating) slots; shift <= 63.
void RadixDigitHistogram(const Tuple* data, size_t n, uint32_t shift,
                         uint64_t* histogram, SimdKind kind);

/// histogram[cluster(key)] += 1 per tuple under the KeyNormalizer
/// mapping of src/partition/: cluster = key <= min_key ? 0 :
/// min((key - min_key) >> shift, num_clusters - 1). num_clusters >= 1.
void ClusterHistogram(const Tuple* data, size_t n, uint64_t min_key,
                      uint32_t shift, uint32_t num_clusters,
                      uint64_t* histogram, SimdKind kind);

/// digits[i] = cluster(data[i].key) for every tuple, same mapping as
/// ClusterHistogram but spilled *in source order* for the scatter of
/// phase 2.3 (partition/prefix_scatter.h): the subtract-shift-clamp
/// per tuple vectorizes here, the scatter then maps each digit through
/// the splitter vector with a scalar table lookup. All kinds produce
/// identical digits.
void ClusterDigits(const Tuple* data, size_t n, uint64_t min_key,
                   uint32_t shift, uint32_t num_clusters, uint32_t* digits,
                   SimdKind kind);

/// histogram[digit(key)] += 1 per tuple for the radix hash join's
/// partitioning digit: digit = ((key * multiplier) << bit_offset) >>
/// (64 - bit_count) — the caller supplies its multiplicative hash
/// constant (baseline/hash_table.h HashKey). 1 <= bit_count <= 32.
void HashDigitHistogram(const Tuple* data, size_t n, uint64_t multiplier,
                        uint32_t bit_offset, uint32_t bit_count,
                        uint64_t* histogram, SimdKind kind);

/// Min and max key over data[0..n); n must be >= 1.
void KeyMinMax(const Tuple* data, size_t n, uint64_t* min_key,
               uint64_t* max_key, SimdKind kind);

}  // namespace mpsm::simd

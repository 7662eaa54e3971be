// SIMD kernel layer: every available SimdKind must match the scalar
// oracle bit for bit — advance/lower-bound, merge match sequence,
// search finishes, histograms, key ranges — plus dispatch resolution
// and the engine-level scalar-vs-auto A/B over the full algorithm x
// JoinKind matrix (the forced-scalar fallback CI leans on off-x86).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "baseline/hash_table.h"
#include "baseline/reference_join.h"
#include "core/consumers.h"
#include "core/interpolation_search.h"
#include "core/merge_join.h"
#include "engine/engine.h"
#include "numa/topology.h"
#include "simd/caps.h"
#include "simd/histogram_kernels.h"
#include "simd/merge_kernels.h"
#include "simd/search_kernels.h"
#include "sort/radix_introsort.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mpsm {
namespace {

std::vector<Tuple> SortedTuples(size_t n, uint64_t domain, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Tuple> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = Tuple{rng.NextBounded(domain), i};
  }
  std::sort(data.begin(), data.end(), TupleKeyLess{});
  return data;
}

/// Steers every algorithm's vector kernels, the sorts' digit histograms
/// included, to `kind`.
void SetSimd(engine::EngineOptions& options, simd::SimdKind kind) {
  options.mpsm.simd = kind;
  options.mpsm.sort_config.simd = kind;
  options.dmpsm.simd = kind;
  options.dmpsm.sort_config.simd = kind;
  options.radix.simd = kind;
}

size_t OracleLowerBound(const std::vector<Tuple>& data, uint64_t key) {
  return static_cast<size_t>(
      std::lower_bound(data.begin(), data.end(), Tuple{key, 0},
                       TupleKeyLess{}) -
      data.begin());
}

// ------------------------------------------------------- dispatch

TEST(SimdCapsTest, ScalarIsAFixedPointAndAutoResolvesSupported) {
  EXPECT_EQ(simd::Resolve(simd::SimdKind::kScalar),
            simd::SimdKind::kScalar);
  const auto kinds = simd::SupportedKinds();
  ASSERT_FALSE(kinds.empty());
  EXPECT_EQ(kinds.front(), simd::SimdKind::kScalar);
  for (const simd::SimdKind kind : kinds) {
    EXPECT_EQ(simd::Resolve(kind), kind)
        << simd::SimdKindName(kind) << " must resolve to itself";
  }
  const simd::SimdKind resolved = simd::Resolve(simd::SimdKind::kAuto);
  EXPECT_NE(resolved, simd::SimdKind::kAuto);
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), resolved), kinds.end());
}

TEST(SimdCapsTest, UnsupportedKindsDegradeInsteadOfFaulting) {
  const simd::Caps& caps = simd::DetectCaps();
  if (!caps.avx512f) {
    const simd::SimdKind resolved = simd::Resolve(simd::SimdKind::kAvx512);
    EXPECT_TRUE(resolved == simd::SimdKind::kAvx2 ||
                resolved == simd::SimdKind::kScalar);
  }
  if (!caps.avx2) {
    EXPECT_EQ(simd::Resolve(simd::SimdKind::kAvx2),
              simd::SimdKind::kScalar);
  }
}

TEST(SimdCapsTest, KeysPerCompareMatchesRegisterWidth) {
  EXPECT_EQ(simd::KeysPerCompare(simd::SimdKind::kScalar), 1u);
  EXPECT_EQ(simd::KeysPerCompare(simd::SimdKind::kAvx2), 4u);
  EXPECT_EQ(simd::KeysPerCompare(simd::SimdKind::kAvx512), 8u);
}

TEST(SimdCapsTest, KindNamesRoundTrip) {
  for (const simd::SimdKind kind :
       {simd::SimdKind::kScalar, simd::SimdKind::kAvx2,
        simd::SimdKind::kAvx512, simd::SimdKind::kAuto}) {
    const auto parsed = simd::ParseSimdKind(simd::SimdKindName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(simd::ParseSimdKind("mmx").has_value());
  EXPECT_FALSE(simd::ParseSimdKind("sse").has_value());
}

// ------------------------------------------------ advance kernels

class SimdKindSweep : public testing::TestWithParam<simd::SimdKind> {};

std::string KindName(const testing::TestParamInfo<simd::SimdKind>& info) {
  return simd::SimdKindName(info.param);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimdKindSweep,
                         testing::ValuesIn(simd::SupportedKinds()),
                         KindName);

TEST_P(SimdKindSweep, AdvanceMatchesLowerBoundOracle) {
  const simd::AdvanceFn advance = simd::AdvanceForKind(GetParam());
  if (advance == nullptr) GTEST_SKIP() << "scalar has no pointer kernel";

  for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{17},
                         size_t{64}, size_t{1000}, size_t{5000}}) {
    // domain ~ n/2 forces heavy duplicates.
    const auto data = SortedTuples(n, std::max<uint64_t>(n / 2, 2), 7 + n);
    std::vector<uint64_t> keys{0, 1, UINT64_MAX};
    Xoshiro256 rng(n);
    for (int k = 0; k < 200; ++k) {
      keys.push_back(rng.NextBounded(std::max<uint64_t>(n, 4)));
    }
    for (size_t i = 0; i < n; i += std::max<size_t>(n / 13, 1)) {
      keys.push_back(data[i].key);      // exact hits
      keys.push_back(data[i].key + 1);  // just above
    }
    for (const uint64_t key : keys) {
      const size_t oracle = OracleLowerBound(data, key);
      // From the start, from a position at/below the bound, and from
      // the bound itself (the merge calls it mid-run).
      for (const size_t begin :
           {size_t{0}, oracle / 2, oracle, std::min(oracle + 1, n)}) {
        const size_t expected = std::max(oracle, begin);
        EXPECT_EQ(advance(data.data(), begin, n, key), expected)
            << "n=" << n << " key=" << key << " begin=" << begin;
      }
    }
  }
}

TEST_P(SimdKindSweep, AdvanceGallopsAcrossAllEqualRuns) {
  const simd::AdvanceFn advance = simd::AdvanceForKind(GetParam());
  if (advance == nullptr) GTEST_SKIP();
  // A long all-equal prefix exercises the gallop + binary narrowing.
  std::vector<Tuple> data(4000, Tuple{5, 0});
  for (size_t i = 0; i < 100; ++i) data.push_back(Tuple{9, i});
  EXPECT_EQ(advance(data.data(), 0, data.size(), 6), 4000u);
  EXPECT_EQ(advance(data.data(), 0, data.size(), 9), 4000u);
  EXPECT_EQ(advance(data.data(), 0, data.size(), 10), data.size());
  EXPECT_EQ(advance(data.data(), 0, data.size(), 5), 0u);
}

// ------------------------------------------------- merge kernels

struct MatchEvent {
  size_t r_index;
  uint64_t key;
  const Tuple* s_group;
  size_t count;

  friend bool operator==(const MatchEvent& a, const MatchEvent& b) {
    return a.r_index == b.r_index && a.key == b.key &&
           a.s_group == b.s_group && a.count == b.count;
  }
};

std::vector<MatchEvent> CollectMerge(simd::SimdKind kind, uint32_t prefetch,
                                     const std::vector<Tuple>& r,
                                     const std::vector<Tuple>& s,
                                     MergeScan* scan) {
  std::vector<MatchEvent> events;
  *scan = MergeJoinRunPairWith(
      prefetch, kind, r.data(), r.size(), s.data(), s.size(),
      [&](size_t i, const Tuple& rt, const Tuple* sg, size_t count) {
        events.push_back(MatchEvent{i, rt.key, sg, count});
      });
  return events;
}

TEST_P(SimdKindSweep, MergeMatchSequenceIsBitIdenticalToScalar) {
  struct Shape {
    size_t nr;
    size_t ns;
    uint64_t domain;
  };
  for (const Shape& shape :
       {Shape{3000, 12000, 6000},   // the paper's multiplicity-4 shape
        Shape{5000, 5000, 100},     // heavy duplicates both sides
        Shape{2000, 8000, 1u << 30},  // sparse: almost no matches
        Shape{1, 4000, 4000}, Shape{4000, 1, 4000}, Shape{0, 100, 10},
        Shape{100, 0, 10}}) {
    const auto r = SortedTuples(shape.nr, shape.domain, 21);
    const auto s = SortedTuples(shape.ns, shape.domain, 42);
    for (const uint32_t prefetch : {0u, kDefaultMergePrefetchDistance}) {
      MergeScan scalar_scan, simd_scan;
      const auto expected = CollectMerge(simd::SimdKind::kScalar, prefetch,
                                         r, s, &scalar_scan);
      const auto actual =
          CollectMerge(GetParam(), prefetch, r, s, &simd_scan);
      EXPECT_EQ(actual, expected)
          << "nr=" << shape.nr << " ns=" << shape.ns << " pf=" << prefetch;
      EXPECT_EQ(simd_scan.r_end, scalar_scan.r_end);
      EXPECT_EQ(simd_scan.s_end, scalar_scan.s_end);
      EXPECT_EQ(simd_scan.matches, scalar_scan.matches);
    }
  }
}

TEST_P(SimdKindSweep, MergeHandlesDisjointRunsViaGalloping) {
  // All of r below all of s, and interleaved bands — long skips drive
  // the window-exhausted + gallop paths.
  std::vector<Tuple> r, s;
  for (size_t i = 0; i < 3000; ++i) r.push_back(Tuple{i, i});
  for (size_t i = 0; i < 3000; ++i) s.push_back(Tuple{10000 + i, i});
  MergeScan scalar_scan, simd_scan;
  const auto expected = CollectMerge(simd::SimdKind::kScalar, 16, r, s,
                                     &scalar_scan);
  const auto actual = CollectMerge(GetParam(), 16, r, s, &simd_scan);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(expected.size(), 0u);
  EXPECT_EQ(simd_scan.r_end, scalar_scan.r_end);
  EXPECT_EQ(simd_scan.s_end, scalar_scan.s_end);
}

// ------------------------------------------------- search kernels

TEST_P(SimdKindSweep, WindowedSearchesMatchOracle) {
  const simd::AdvanceFn advance = simd::AdvanceForKind(GetParam());
  if (advance == nullptr) GTEST_SKIP();

  for (const size_t n :
       {size_t{0}, size_t{1}, size_t{50}, size_t{4096}, size_t{100000}}) {
    const auto data = SortedTuples(n, std::max<uint64_t>(2 * n, 4), 5);
    Xoshiro256 rng(n + 1);
    std::vector<uint64_t> keys{0, UINT64_MAX};
    for (int k = 0; k < 300; ++k) {
      keys.push_back(rng.NextBounded(std::max<uint64_t>(2 * n, 4)));
    }
    for (const uint64_t key : keys) {
      const size_t oracle = OracleLowerBound(data, key);
      EXPECT_EQ(InterpolationLowerBoundWindowed(data.data(), n, key,
                                                advance),
                oracle)
          << "interpolation n=" << n << " key=" << key;
      EXPECT_EQ(BinaryLowerBoundWindowed(data.data(), n, key, advance),
                oracle)
          << "binary n=" << n << " key=" << key;
      EXPECT_EQ(LinearLowerBoundWindowed(data.data(), n, key, advance),
                oracle)
          << "linear n=" << n << " key=" << key;
      EXPECT_EQ(simd::LowerBoundWindowed(data.data(), n, key, advance,
                                         nullptr),
                oracle);
    }
  }
}

// ---------------------------------------------- histogram kernels

TEST_P(SimdKindSweep, RadixDigitHistogramMatchesScalar) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                         size_t{100}, size_t{4097}}) {
    const auto data = SortedTuples(n, UINT64_MAX, n + 3);
    for (const uint32_t shift : {0u, 8u, 24u, 56u}) {
      std::vector<uint64_t> expected(256, 0), actual(256, 0);
      simd::RadixDigitHistogram(data.data(), n, shift, expected.data(),
                                simd::SimdKind::kScalar);
      simd::RadixDigitHistogram(data.data(), n, shift, actual.data(),
                                GetParam());
      EXPECT_EQ(actual, expected) << "n=" << n << " shift=" << shift;
    }
  }
}

TEST_P(SimdKindSweep, ClusterHistogramMatchesScalar) {
  for (const size_t n : {size_t{0}, size_t{9}, size_t{100}, size_t{4097}}) {
    const auto data = SortedTuples(n, uint64_t{1} << 40, n + 11);
    struct Mapping {
      uint64_t min_key;
      uint32_t shift;
      uint32_t clusters;
    };
    for (const Mapping& m :
         {Mapping{0, 32, 256}, Mapping{uint64_t{1} << 39, 20, 1024},
          Mapping{123, 0, 2}, Mapping{uint64_t{1} << 41, 8, 64}}) {
      std::vector<uint64_t> expected(m.clusters, 0), actual(m.clusters, 0);
      simd::ClusterHistogram(data.data(), n, m.min_key, m.shift, m.clusters,
                             expected.data(), simd::SimdKind::kScalar);
      simd::ClusterHistogram(data.data(), n, m.min_key, m.shift, m.clusters,
                             actual.data(), GetParam());
      EXPECT_EQ(actual, expected)
          << "n=" << n << " min=" << m.min_key << " shift=" << m.shift;
    }
  }
}

TEST_P(SimdKindSweep, ClusterDigitsMatchesScalar) {
  // The scatter-digit kernel must spill every tuple's cluster in
  // *source order* (the vectorized lanes are permuted internally);
  // equality against the scalar loop at odd sizes proves both the
  // mapping and the lane restoration.
  for (const size_t n : {size_t{0}, size_t{1}, size_t{9}, size_t{100},
                         size_t{4097}}) {
    const auto data = SortedTuples(n, uint64_t{1} << 40, n + 13);
    struct Mapping {
      uint64_t min_key;
      uint32_t shift;
      uint32_t clusters;
    };
    for (const Mapping& m :
         {Mapping{0, 32, 256}, Mapping{uint64_t{1} << 39, 20, 1024},
          Mapping{123, 0, 2}, Mapping{uint64_t{1} << 41, 8, 64}}) {
      std::vector<uint32_t> expected(n), actual(n);
      simd::ClusterDigits(data.data(), n, m.min_key, m.shift, m.clusters,
                          expected.data(), simd::SimdKind::kScalar);
      simd::ClusterDigits(data.data(), n, m.min_key, m.shift, m.clusters,
                          actual.data(), GetParam());
      EXPECT_EQ(actual, expected)
          << "n=" << n << " min=" << m.min_key << " shift=" << m.shift;
    }
  }
}

TEST_P(SimdKindSweep, HashDigitHistogramMatchesScalar) {
  for (const size_t n : {size_t{0}, size_t{15}, size_t{1000}}) {
    const auto data = SortedTuples(n, UINT64_MAX, n + 17);
    for (const uint32_t offset : {0u, 11u}) {
      for (const uint32_t bits : {1u, 8u, 16u}) {
        const size_t buckets = size_t{1} << bits;
        std::vector<uint64_t> expected(buckets, 0), actual(buckets, 0);
        simd::HashDigitHistogram(data.data(), n, baseline::kHashMultiplier,
                                 offset, bits, expected.data(),
                                 simd::SimdKind::kScalar);
        simd::HashDigitHistogram(data.data(), n, baseline::kHashMultiplier,
                                 offset, bits, actual.data(), GetParam());
        EXPECT_EQ(actual, expected)
            << "n=" << n << " offset=" << offset << " bits=" << bits;
      }
    }
  }
}

TEST_P(SimdKindSweep, KeyMinMaxMatchesScalar) {
  for (const size_t n : {size_t{1}, size_t{7}, size_t{16}, size_t{4097}}) {
    const auto data = SortedTuples(n, UINT64_MAX, n + 23);
    uint64_t expected_min = 0, expected_max = 0, min_key = 0, max_key = 0;
    simd::KeyMinMax(data.data(), n, &expected_min, &expected_max,
                    simd::SimdKind::kScalar);
    simd::KeyMinMax(data.data(), n, &min_key, &max_key, GetParam());
    EXPECT_EQ(min_key, expected_min) << "n=" << n;
    EXPECT_EQ(max_key, expected_max) << "n=" << n;
  }
}

TEST_P(SimdKindSweep, MsdRadixPartitionAgreesAcrossKinds) {
  auto data = SortedTuples(5000, UINT64_MAX, 31);
  std::shuffle(data.begin(), data.end(), std::mt19937{99});
  auto scalar_copy = data;
  const auto scalar_bounds =
      sort::MsdRadixPartition(scalar_copy.data(), scalar_copy.size(), 56,
                              simd::SimdKind::kScalar);
  auto simd_copy = data;
  const auto simd_bounds = sort::MsdRadixPartition(
      simd_copy.data(), simd_copy.size(), 56, GetParam());
  EXPECT_EQ(simd_bounds, scalar_bounds);
}

// --------------------------------- engine matrix: scalar vs auto A/B

TEST(SimdEngineTest, ScalarAndAutoProduceIdenticalJoinsAcrossMatrix) {
  const auto topology = numa::Topology::Simulated(4, 8);
  constexpr uint32_t kWorkers = 4;
  workload::DatasetSpec spec;
  spec.r_tuples = 6000;
  spec.multiplicity = 1.5;
  spec.key_domain = 15000;
  spec.s_mode = workload::SKeyMode::kIndependent;
  spec.seed = 321;
  const auto dataset = workload::Generate(topology, kWorkers, spec);

  for (const engine::Algorithm algorithm :
       {engine::Algorithm::kPMpsm, engine::Algorithm::kBMpsm,
        engine::Algorithm::kDMpsm, engine::Algorithm::kRadix,
        engine::Algorithm::kWisconsin}) {
    for (const JoinKind kind :
         {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti,
          JoinKind::kLeftOuter}) {
      if (!engine::SupportsKind(algorithm, kind)) continue;

      uint64_t counts[2] = {0, 0};
      int slot = 0;
      for (const simd::SimdKind simd_kind :
           {simd::SimdKind::kScalar, simd::SimdKind::kAuto}) {
        engine::EngineOptions options;
        options.workers = kWorkers;
        SetSimd(options, simd_kind);
        engine::Engine engine(topology, options);
        CountFactory consumer(kWorkers);
        engine::JoinSpec join;
        join.r = &dataset.r;
        join.s = &dataset.s;
        join.kind = kind;
        join.consumers = &consumer;
        join.algorithm = algorithm;
        auto report = engine.Execute(join);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        counts[slot++] = consumer.Result();
        EXPECT_EQ(report->simd_used,
                  simd::Resolve(engine::PlanSimdKnob(report->plan)));
        if (simd_kind == simd::SimdKind::kScalar &&
            algorithm != engine::Algorithm::kWisconsin) {
          EXPECT_EQ(report->simd_used, simd::SimdKind::kScalar);
        }
      }
      EXPECT_EQ(counts[0], counts[1])
          << engine::AlgorithmName(algorithm) << " " << JoinKindName(kind);

      CountFactory reference(1);
      const uint64_t expected = baseline::ReferenceJoin(
          dataset.r.ToVector(), dataset.s.ToVector(), kind,
          reference.ConsumerForWorker(0));
      EXPECT_EQ(counts[0], expected)
          << engine::AlgorithmName(algorithm) << " " << JoinKindName(kind);
    }
  }
}

TEST(SimdEngineTest, ScatterDigitKnobIsAnIdentityAB) {
  // simd_scatter_digits only swaps how phase 2.3 computes each tuple's
  // partition digit (precomputed vector stream vs fused scalar lookup);
  // the scatter itself is identical, so the join must be too.
  const auto topology = numa::Topology::Simulated(2, 4);
  constexpr uint32_t kWorkers = 4;
  workload::DatasetSpec spec;
  spec.r_tuples = 8000;
  spec.multiplicity = 1.5;
  spec.key_domain = 32000;
  spec.s_mode = workload::SKeyMode::kIndependent;
  spec.seed = 77;
  const auto dataset = workload::Generate(topology, kWorkers, spec);

  uint64_t counts[2] = {0, 0};
  int slot = 0;
  for (const bool precompute : {false, true}) {
    engine::EngineOptions options;
    options.workers = kWorkers;
    options.mpsm.simd_scatter_digits = precompute;
    engine::Engine engine(topology, options);
    CountFactory consumer(kWorkers);
    engine::JoinSpec join;
    join.r = &dataset.r;
    join.s = &dataset.s;
    join.consumers = &consumer;
    join.algorithm = engine::Algorithm::kPMpsm;
    auto report = engine.Execute(join);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->plan.mpsm.simd_scatter_digits, precompute);
    counts[slot++] = consumer.Result();
  }
  EXPECT_EQ(counts[0], counts[1]);

  CountFactory reference(1);
  EXPECT_EQ(counts[0],
            baseline::ReferenceJoin(dataset.r.ToVector(), dataset.s.ToVector(),
                                    JoinKind::kInner,
                                    reference.ConsumerForWorker(0)));
}

TEST(SimdEngineTest, UnsupportedForcedKindStillExecutes) {
  // Forcing the widest kind must never fault: resolution degrades to
  // what the host can run (the off-x86 CI safety net).
  const auto topology = numa::Topology::Simulated(2, 4);
  workload::DatasetSpec spec;
  spec.r_tuples = 4000;
  spec.multiplicity = 2.0;
  spec.seed = 8;
  const auto dataset = workload::Generate(topology, 4, spec);

  engine::EngineOptions options;
  options.workers = 4;
  SetSimd(options, simd::SimdKind::kAvx512);
  engine::Engine engine(topology, options);
  CountFactory consumer(4);
  engine::JoinSpec join;
  join.r = &dataset.r;
  join.s = &dataset.s;
  join.consumers = &consumer;
  join.algorithm = engine::Algorithm::kPMpsm;
  auto report = engine.Execute(join);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  CountFactory reference(1);
  const uint64_t expected = baseline::ReferenceJoin(
      dataset.r.ToVector(), dataset.s.ToVector(), JoinKind::kInner,
      reference.ConsumerForWorker(0));
  EXPECT_EQ(consumer.Result(), expected);
}

TEST(SimdEngineTest, PlanSurfacesTheResolvedKind) {
  const auto topology = numa::Topology::Simulated(4, 8);
  workload::DatasetSpec spec;
  spec.r_tuples = 1u << 16;
  spec.multiplicity = 2.0;
  spec.seed = 7;
  const auto dataset = workload::Generate(topology, 8, spec);

  engine::EngineOptions options;
  options.workers = 8;
  SetSimd(options, simd::SimdKind::kScalar);
  engine::Engine engine(topology, options);
  engine::JoinSpec join;
  join.r = &dataset.r;
  join.s = &dataset.s;
  auto plan = engine.Plan(join);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(engine::PlanSimdKnob(*plan), simd::SimdKind::kScalar);
  EXPECT_NE(plan->ToString().find("simd: scalar"), std::string::npos)
      << plan->ToString();
}

TEST(SimdPlannerTest, WiderKindsPriceThePhase4MergeCheaper) {
  engine::PlannerInputs in;
  in.r_tuples = uint64_t{1} << 24;
  in.s_tuples = uint64_t{1} << 26;
  in.team_size = 32;
  in.numa_nodes = 4;
  const auto machine = sim::MachineModel::HyPer1();
  const disk::DMpsmOptions dmpsm;

  MpsmOptions scalar_options;
  scalar_options.simd = simd::SimdKind::kScalar;
  MpsmOptions wide_options;
  // Resolve() may degrade on the host, so compare scalar against the
  // widest kind the host actually has.
  wide_options.simd = simd::Resolve(simd::SimdKind::kAuto);

  const auto scalar_cost = engine::Planner::EstimateCost(
      engine::Algorithm::kPMpsm, in, machine, scalar_options, dmpsm);
  const auto wide_cost = engine::Planner::EstimateCost(
      engine::Algorithm::kPMpsm, in, machine, wide_options, dmpsm);
  if (wide_options.simd == simd::SimdKind::kScalar) {
    EXPECT_DOUBLE_EQ(wide_cost.phase_seconds[kPhaseJoin],
                     scalar_cost.phase_seconds[kPhaseJoin]);
  } else {
    EXPECT_LT(wide_cost.phase_seconds[kPhaseJoin],
              scalar_cost.phase_seconds[kPhaseJoin]);
    // Phases without a merge loop are untouched by the knob.
    EXPECT_DOUBLE_EQ(wide_cost.phase_seconds[kPhaseSortPublic],
                     scalar_cost.phase_seconds[kPhaseSortPublic]);
  }
}

}  // namespace
}  // namespace mpsm

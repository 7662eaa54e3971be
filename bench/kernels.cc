// google-benchmark micro-kernels for the primitives every MPSM phase is
// built from: sorting, merge join, histograms, scatter, search, CDF —
// plus the phase-scheduler A/B (static vs stealing) on a skewed join.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "cache/run_cache.h"
#include "core/consumers.h"
#include "core/interpolation_search.h"
#include "core/merge_join.h"
#include "core/p_mpsm.h"
#include "disk/d_mpsm.h"
#include "engine/engine.h"
#include "io/io_backend.h"
#include "numa/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/worker_team.h"
#include "partition/cdf.h"
#include "partition/equi_height.h"
#include "partition/key_normalizer.h"
#include "partition/prefix_scatter.h"
#include "partition/radix_histogram.h"
#include "service/join_service.h"
#include "sim/machine_model.h"
#include "simd/caps.h"
#include "simd/histogram_kernels.h"
#include "sort/radix_introsort.h"
#include "storage/run.h"
#include "util/env.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mpsm {
namespace {

std::vector<Tuple> RandomTuples(size_t n, uint64_t seed = 42) {
  Xoshiro256 rng(seed);
  std::vector<Tuple> data(n);
  for (auto& t : data) {
    t = Tuple{rng.NextBounded(uint64_t{1} << 32), rng.Next() & 0xFFFFFFFF};
  }
  return data;
}

void BM_RadixIntroSort(benchmark::State& state) {
  const auto input = RandomTuples(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto data = input;
    state.ResumeTiming();
    sort::RadixIntroSort(data.data(), data.size());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RadixIntroSort)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);

void BM_RadixSortMultiPass(benchmark::State& state) {
  const auto input = RandomTuples(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto data = input;
    state.ResumeTiming();
    sort::RadixIntroSortMultiPass(data.data(), data.size());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RadixSortMultiPass)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);

void BM_StdSort(benchmark::State& state) {
  const auto input = RandomTuples(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto data = input;
    state.ResumeTiming();
    std::sort(data.begin(), data.end(), TupleKeyLess{});
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StdSort)->Arg(1 << 16)->Arg(1 << 20);

// A/B pair for the merge kernel: identical workload, scalar kernel vs
// the prefetch-pipelined variant (distance = kDefaultMergePrefetchDistance).
void MergeJoinBench(benchmark::State& state, uint32_t prefetch_distance,
                    simd::SimdKind simd_kind = simd::SimdKind::kScalar) {
  if (simd::Resolve(simd_kind) != simd_kind) {
    state.SkipWithError("simd kind unsupported on this host");
    return;
  }
  auto r = RandomTuples(state.range(0), 1);
  auto s = RandomTuples(state.range(0) * 4, 2);
  sort::RadixIntroSort(r.data(), r.size());
  sort::RadixIntroSort(s.data(), s.size());
  for (auto _ : state) {
    uint64_t matches = 0;
    MergeJoinRunPairWith(prefetch_distance, simd_kind, r.data(), r.size(),
                         s.data(), s.size(),
                         [&](size_t, const Tuple&, const Tuple*,
                             size_t count) { matches += count; });
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * (r.size() + s.size()));
}

void BM_MergeJoinKernel(benchmark::State& state) {
  MergeJoinBench(state, 0);
}
BENCHMARK(BM_MergeJoinKernel)->Arg(1 << 16)->Arg(1 << 19)->Arg(1 << 21);

void BM_MergeJoinKernelPrefetch(benchmark::State& state) {
  MergeJoinBench(state, kDefaultMergePrefetchDistance);
}
BENCHMARK(BM_MergeJoinKernelPrefetch)->Arg(1 << 16)->Arg(1 << 19)->Arg(1 << 21);

// SIMD A/B family for the merge compare (docs/simd.md): same workload
// and prefetch pipeline, only the advance kernel varies. Unsupported
// kinds skip with an error so the JSON row says why.
void BM_MergeScalar(benchmark::State& state) {
  MergeJoinBench(state, kDefaultMergePrefetchDistance,
                 simd::SimdKind::kScalar);
}
BENCHMARK(BM_MergeScalar)->Arg(1 << 20)->Arg(1 << 21);

void BM_MergeAvx2(benchmark::State& state) {
  MergeJoinBench(state, kDefaultMergePrefetchDistance,
                 simd::SimdKind::kAvx2);
}
BENCHMARK(BM_MergeAvx2)->Arg(1 << 20)->Arg(1 << 21);

void BM_MergeAvx512(benchmark::State& state) {
  MergeJoinBench(state, kDefaultMergePrefetchDistance,
                 simd::SimdKind::kAvx512);
}
BENCHMARK(BM_MergeAvx512)->Arg(1 << 20)->Arg(1 << 21);

void BM_RadixHistogram(benchmark::State& state) {
  const auto data = RandomTuples(1 << 20);
  const KeyNormalizer normalizer(0, (uint64_t{1} << 32) - 1,
                                 static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    auto histogram =
        BuildRadixHistogram(data.data(), data.size(), normalizer);
    benchmark::DoNotOptimize(histogram.data());
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_RadixHistogram)->Arg(5)->Arg(8)->Arg(11)->Arg(14);

// SIMD A/B pair for the cluster-histogram pass (arg = radix bits).
void HistogramSimdBench(benchmark::State& state, simd::SimdKind simd_kind) {
  if (simd::Resolve(simd_kind) != simd_kind) {
    state.SkipWithError("simd kind unsupported on this host");
    return;
  }
  const auto data = RandomTuples(1 << 20);
  const KeyNormalizer normalizer(0, (uint64_t{1} << 32) - 1,
                                 static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    auto histogram =
        BuildRadixHistogram(data.data(), data.size(), normalizer, simd_kind);
    benchmark::DoNotOptimize(histogram.data());
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}

void BM_HistogramScalar(benchmark::State& state) {
  HistogramSimdBench(state, simd::SimdKind::kScalar);
}
BENCHMARK(BM_HistogramScalar)->Arg(11)->Arg(14);

void BM_HistogramSimd(benchmark::State& state) {
  HistogramSimdBench(state, simd::Resolve(simd::SimdKind::kAuto));
}
BENCHMARK(BM_HistogramSimd)->Arg(11)->Arg(14);

// SIMD A/B for the phase-2.3 digit precompute (MpsmOptions::
// simd_scatter_digits): the per-tuple cluster digit stream the scatter
// consumes instead of recomputing each key's cluster in its fused
// scalar lambda. arg = log2 tuples.
void ScatterDigitsBench(benchmark::State& state, simd::SimdKind simd_kind) {
  if (simd::Resolve(simd_kind) != simd_kind) {
    state.SkipWithError("simd kind unsupported on this host");
    return;
  }
  const size_t n = size_t{1} << state.range(0);
  const auto data = RandomTuples(n);
  std::vector<uint32_t> digits(n);
  for (auto _ : state) {
    simd::ClusterDigits(data.data(), n, 0, 22, 1024, digits.data(),
                        simd_kind);
    benchmark::DoNotOptimize(digits.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_ScatterDigitsScalar(benchmark::State& state) {
  ScatterDigitsBench(state, simd::SimdKind::kScalar);
}
BENCHMARK(BM_ScatterDigitsScalar)->Arg(20)->Arg(22);

void BM_ScatterDigitsSimd(benchmark::State& state) {
  ScatterDigitsBench(state, simd::Resolve(simd::SimdKind::kAuto));
}
BENCHMARK(BM_ScatterDigitsSimd)->Arg(20)->Arg(22);

void BM_ScatterPrefixSum(benchmark::State& state) {
  const auto data = RandomTuples(1 << 20);
  const uint32_t partitions = 32;
  std::vector<Tuple> out(data.size());
  for (auto _ : state) {
    std::vector<uint64_t> histogram(partitions, 0);
    for (const auto& t : data) ++histogram[t.key % partitions];
    std::vector<Tuple*> dest(partitions);
    uint64_t offset = 0;
    for (uint32_t p = 0; p < partitions; ++p) {
      dest[p] = out.data() + offset;
      offset += histogram[p];
    }
    std::vector<uint64_t> cursor(partitions, 0);
    for (const auto& t : data) {
      const uint32_t p = static_cast<uint32_t>(t.key % partitions);
      dest[p][cursor[p]++] = t;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_ScatterPrefixSum);

void BM_ScatterAtomicCursor(benchmark::State& state) {
  const auto data = RandomTuples(1 << 20);
  const uint32_t partitions = 32;
  std::vector<Tuple> out(data.size());
  std::vector<uint64_t> histogram(partitions, 0);
  for (const auto& t : data) ++histogram[t.key % partitions];
  std::vector<Tuple*> dest(partitions);
  uint64_t offset = 0;
  for (uint32_t p = 0; p < partitions; ++p) {
    dest[p] = out.data() + offset;
    offset += histogram[p];
  }
  for (auto _ : state) {
    std::vector<std::atomic<uint64_t>> cursor(partitions);
    for (auto& c : cursor) c = 0;
    for (const auto& t : data) {
      const uint32_t p = static_cast<uint32_t>(t.key % partitions);
      dest[p][cursor[p].fetch_add(1, std::memory_order_relaxed)] = t;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_ScatterAtomicCursor);

// A/B pair for the phase-2.3 scatter: one plan (histogram + prefix
// sums) built outside the timed region, then the scalar loop vs. the
// write-combining kernel scatter the same tuples into the same layout.
// args: {log2 tuples, partition fan-out (power of two)}.
void ScatterBench(benchmark::State& state, ScatterKind kind) {
  const size_t n = size_t{1} << state.range(0);
  const uint32_t partitions = static_cast<uint32_t>(state.range(1));
  const uint64_t mask = partitions - 1;
  const auto data = RandomTuples(n);
  const auto partition_of = [mask](uint64_t key) {
    return static_cast<uint32_t>(key & mask);
  };

  std::vector<uint64_t> histogram(partitions, 0);
  for (const auto& t : data) ++histogram[partition_of(t.key)];
  std::vector<Tuple> out(n);
  std::vector<Tuple*> dest(partitions);
  uint64_t offset = 0;
  for (uint32_t p = 0; p < partitions; ++p) {
    dest[p] = out.data() + offset;
    offset += histogram[p];
  }

  std::vector<uint64_t> cursor(partitions);
  for (auto _ : state) {
    std::fill(cursor.begin(), cursor.end(), 0);
    ScatterChunkWith(kind, data.data(), n, partition_of, dest.data(),
                     cursor.data(), partitions);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_ScatterScalar(benchmark::State& state) {
  ScatterBench(state, ScatterKind::kScalar);
}
BENCHMARK(BM_ScatterScalar)
    ->Args({20, 32})
    ->Args({20, 512})
    ->Args({20, 2048})
    ->Args({22, 1024});

void BM_ScatterWriteCombining(benchmark::State& state) {
  ScatterBench(state, ScatterKind::kWriteCombining);
}
BENCHMARK(BM_ScatterWriteCombining)
    ->Args({20, 32})
    ->Args({20, 512})
    ->Args({20, 2048})
    ->Args({22, 1024});

void BM_LowerBound(benchmark::State& state) {
  auto data = RandomTuples(1 << 22);
  sort::RadixIntroSort(data.data(), data.size());
  Xoshiro256 rng(3);
  const bool interpolate = state.range(0) == 1;
  for (auto _ : state) {
    const uint64_t key = rng.NextBounded(uint64_t{1} << 32);
    const size_t pos =
        interpolate
            ? InterpolationLowerBound(data.data(), data.size(), key)
            : BinaryLowerBound(data.data(), data.size(), key);
    benchmark::DoNotOptimize(pos);
  }
}
BENCHMARK(BM_LowerBound)->Arg(0)->Arg(1);

// SIMD A/B pair for the merge-start search: scalar interpolation
// descent to hi-lo == 1 vs the windowed descent with a packed finish.
void SearchSimdBench(benchmark::State& state, simd::SimdKind simd_kind) {
  if (simd::Resolve(simd_kind) != simd_kind) {
    state.SkipWithError("simd kind unsupported on this host");
    return;
  }
  auto data = RandomTuples(1 << 22);
  sort::RadixIntroSort(data.data(), data.size());
  const simd::AdvanceFn advance = simd::AdvanceForKind(simd_kind);
  Xoshiro256 rng(3);
  for (auto _ : state) {
    const uint64_t key = rng.NextBounded(uint64_t{1} << 32);
    const size_t pos =
        advance == nullptr
            ? InterpolationLowerBound(data.data(), data.size(), key)
            : InterpolationLowerBoundWindowed(data.data(), data.size(), key,
                                              advance);
    benchmark::DoNotOptimize(pos);
  }
}

void BM_SearchScalar(benchmark::State& state) {
  SearchSimdBench(state, simd::SimdKind::kScalar);
}
BENCHMARK(BM_SearchScalar);

void BM_SearchSimd(benchmark::State& state) {
  SearchSimdBench(state, simd::Resolve(simd::SimdKind::kAuto));
}
BENCHMARK(BM_SearchSimd);

// Scheduler A/B on the Figure 16 workload: negatively correlated 80:20
// skew with the equi-height strawman splitters, so the static scripts
// leave the low-key workers with most of the phase-4 merge work. The
// stealing scheduler spreads those merges as morsels. Wall time on a
// single-core dev VM cannot show parallel balance, so the modeled
// HyPer1 phase times are exported as counters (bench/common.h
// convention: the machine model carries the parallelism signal);
// model_phase4_ms is the number the scheduler A/B is judged on.
// MPSM_SKEW_BENCH_LOG2 scales |R| (default 2^16; CI smoke uses less).
void PMpsmSkewBench(benchmark::State& state, SchedulerKind scheduler) {
  const auto topology = numa::Topology::HyPer1();
  const uint32_t team_size = 32;
  workload::DatasetSpec spec;
  spec.r_tuples = size_t{1} << GetEnvInt("MPSM_SKEW_BENCH_LOG2", 16);
  spec.multiplicity = 4;
  spec.key_domain = spec.r_tuples * 5 / 2;
  spec.r_distribution = workload::KeyDistribution::kSkewHighEnd;
  spec.s_distribution = workload::KeyDistribution::kSkewLowEnd;
  spec.s_mode = workload::SKeyMode::kIndependent;
  spec.seed = 42;
  const auto dataset = workload::Generate(topology, team_size, spec);
  WorkerTeam team(topology, team_size);

  MpsmOptions options;
  options.scheduler = scheduler;
  options.cost_balanced_splitters = false;  // fig 16b: skewed phase 4

  double phase4_ms = 0;
  double total_ms = 0;
  double stolen = 0;
  for (auto _ : state) {
    CountFactory counts(team_size);
    auto info = PMpsmJoin(options).Execute(team, dataset.r, dataset.s,
                                           counts);
    if (!info.ok()) {
      state.SkipWithError("join failed");
      return;
    }
    benchmark::DoNotOptimize(counts.Result());
    const auto modeled =
        sim::ModelExecution(sim::MachineModel::HyPer1(), info->workers);
    phase4_ms = modeled.phase_seconds[kPhaseJoin] * 1e3;
    total_ms = modeled.total_seconds * 1e3;
    stolen = static_cast<double>(
        info->aggregate.TotalCounters().morsels_stolen);
  }
  state.counters["model_phase4_ms"] = phase4_ms;
  state.counters["model_total_ms"] = total_ms;
  state.counters["morsels_stolen"] = stolen;
  state.SetItemsProcessed(state.iterations() *
                          (dataset.r.size() + dataset.s.size()));
}

void BM_PMpsmSkewJoinStatic(benchmark::State& state) {
  PMpsmSkewBench(state, SchedulerKind::kStatic);
}
BENCHMARK(BM_PMpsmSkewJoinStatic)->Unit(benchmark::kMillisecond);

void BM_PMpsmSkewJoinStealing(benchmark::State& state) {
  PMpsmSkewBench(state, SchedulerKind::kStealing);
}
BENCHMARK(BM_PMpsmSkewJoinStealing)->Unit(benchmark::kMillisecond);

// Engine-path overhead A/B: the same P-MPSM join once through the
// direct variant class and once through the engine front door (plan +
// validate + dispatch on a reused session). The engine run forces
// P-MPSM so both sides execute identical work; the delta is the
// planner, which must stay under 1% of wall time (tracked in
// BENCH_kernels.json). MPSM_ENGINE_BENCH_LOG2 scales |R| (default
// 2^16).
void PMpsmEnginePathBench(benchmark::State& state, bool through_engine) {
  const auto topology = numa::Topology::HyPer1();
  const uint32_t team_size = 32;
  workload::DatasetSpec spec;
  spec.r_tuples = size_t{1} << GetEnvInt("MPSM_ENGINE_BENCH_LOG2", 16);
  spec.multiplicity = 4;
  spec.seed = 42;
  const auto dataset = workload::Generate(topology, team_size, spec);

  engine::EngineOptions engine_options;
  engine_options.workers = team_size;
  engine::Engine engine(topology, engine_options);
  WorkerTeam team(topology, team_size);

  double plan_ms = 0;
  for (auto _ : state) {
    CountFactory counts(team_size);
    if (through_engine) {
      engine::JoinSpec join;
      join.r = &dataset.r;
      join.s = &dataset.s;
      join.consumers = &counts;
      join.algorithm = engine::Algorithm::kPMpsm;
      auto report = engine.Execute(join);
      if (!report.ok()) {
        state.SkipWithError("engine join failed");
        return;
      }
      plan_ms = report->plan_seconds * 1e3;
    } else {
      auto info = PMpsmJoin().Execute(team, dataset.r, dataset.s, counts);
      if (!info.ok()) {
        state.SkipWithError("join failed");
        return;
      }
    }
    benchmark::DoNotOptimize(counts.Result());
  }
  if (through_engine) state.counters["plan_ms"] = plan_ms;
  state.SetItemsProcessed(state.iterations() *
                          (dataset.r.size() + dataset.s.size()));
}

void BM_PMpsmJoinDirect(benchmark::State& state) {
  PMpsmEnginePathBench(state, /*through_engine=*/false);
}
BENCHMARK(BM_PMpsmJoinDirect)->Unit(benchmark::kMillisecond);

void BM_PMpsmJoinEngine(benchmark::State& state) {
  PMpsmEnginePathBench(state, /*through_engine=*/true);
}
BENCHMARK(BM_PMpsmJoinEngine)->Unit(benchmark::kMillisecond);

// Tracing overhead A/B (docs/observability.md): the identical
// engine-path P-MPSM join with tracing off (the default — every
// record helper is one thread-local load and a taken-not branch) vs
// on (per-thread ring appends into the query's TraceSink). The Off
// row must stay within 1% of BM_PMpsmJoinEngine; the On-Off delta is
// the full cost of a Perfetto-loadable trace.
void TraceOverheadBench(benchmark::State& state, bool trace) {
  const auto topology = numa::Topology::HyPer1();
  const uint32_t team_size = 32;
  workload::DatasetSpec spec;
  spec.r_tuples = size_t{1} << GetEnvInt("MPSM_ENGINE_BENCH_LOG2", 16);
  spec.multiplicity = 4;
  spec.seed = 42;
  const auto dataset = workload::Generate(topology, team_size, spec);

  engine::EngineOptions engine_options;
  engine_options.workers = team_size;
  engine_options.trace = trace;
  engine::Engine engine(topology, engine_options);

  uint64_t trace_events = 0;
  for (auto _ : state) {
    CountFactory counts(team_size);
    engine::JoinSpec join;
    join.r = &dataset.r;
    join.s = &dataset.s;
    join.consumers = &counts;
    join.algorithm = engine::Algorithm::kPMpsm;
    auto report = engine.Execute(join);
    if (!report.ok()) {
      state.SkipWithError("engine join failed");
      return;
    }
    if (report->trace != nullptr) {
      trace_events = report->trace->Summary().events;
    }
    benchmark::DoNotOptimize(counts.Result());
  }
  if (trace) state.counters["trace_events"] = static_cast<double>(trace_events);
  state.SetItemsProcessed(state.iterations() *
                          (dataset.r.size() + dataset.s.size()));
}

void BM_TraceOverheadOff(benchmark::State& state) {
  TraceOverheadBench(state, /*trace=*/false);
}
BENCHMARK(BM_TraceOverheadOff)->Unit(benchmark::kMillisecond);

void BM_TraceOverheadOn(benchmark::State& state) {
  TraceOverheadBench(state, /*trace=*/true);
}
BENCHMARK(BM_TraceOverheadOn)->Unit(benchmark::kMillisecond);

// Metrics hot path: one Histogram::Record (bucket index from a bit
// scan + three relaxed fetch_adds) — the cost every io stall, query
// duration, and admission wait sample pays.
void BM_MetricsHistogramRecord(benchmark::State& state) {
  obs::Histogram histogram;
  uint64_t value = 1;
  for (auto _ : state) {
    histogram.Record(value);
    value = value * 6364136223846793005ull + 1442695040888963407ull;
    benchmark::DoNotOptimize(&histogram);
  }
  benchmark::DoNotOptimize(histogram.Count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramRecord);

// Cross-query run-cache A/B (docs/cache.md): the same P-MPSM join over
// a 2^22-tuple public input, cold (phase 1 re-sorts S every query) vs
// warm (sorted runs served from the cache, only phases 2-4 run). The
// warm/cold ratio is what a repeat-join workload banks per query;
// |S| = 2^MPSM_CACHE_BENCH_LOG2 (default 22), |R| = |S|/4.
void RunCacheJoinBench(benchmark::State& state, bool warm) {
  const auto topology = numa::Topology::HyPer1();
  const uint32_t team = 32;
  workload::DatasetSpec spec;
  const int s_log2 = GetEnvInt("MPSM_CACHE_BENCH_LOG2", 22);
  spec.r_tuples = size_t{1} << (s_log2 - 2);
  spec.multiplicity = 4;  // |S| = 2^s_log2: phase 1 dominates
  spec.seed = 9;
  const auto dataset = workload::Generate(topology, team, spec);

  cache::RunCache run_cache;
  engine::EngineOptions options;
  options.workers = team;
  engine::Engine engine(topology, options);
  engine::JoinSpec join;
  join.r = &dataset.r;
  join.s = &dataset.s;
  join.algorithm = engine::Algorithm::kPMpsm;
  if (warm) {
    engine.set_run_cache(&run_cache);
    CountFactory prime(team);
    join.consumers = &prime;
    if (!engine.Execute(join).ok()) {
      state.SkipWithError("priming join failed");
      return;
    }
  }
  for (auto _ : state) {
    CountFactory counts(team);
    join.consumers = &counts;
    auto report = engine.Execute(join);
    if (!report.ok() ||
        (warm && report->run_source != engine::RunSource::kCachedBase)) {
      state.SkipWithError("join failed or missed the cache");
      return;
    }
    benchmark::DoNotOptimize(counts.Result());
  }
  state.SetItemsProcessed(state.iterations() *
                          (dataset.r.size() + dataset.s.size()));
}

void BM_RunCacheColdJoin(benchmark::State& state) {
  RunCacheJoinBench(state, /*warm=*/false);
}
BENCHMARK(BM_RunCacheColdJoin)->Unit(benchmark::kMillisecond);

void BM_RunCacheWarmJoin(benchmark::State& state) {
  RunCacheJoinBench(state, /*warm=*/true);
}
BENCHMARK(BM_RunCacheWarmJoin)->Unit(benchmark::kMillisecond);

// Freshness A/B after a 1% ingest: merge the delta runs on read
// against the cached base (what the cache does) vs re-sort the grown
// input from scratch every query (what a session without the cache
// must do once the rows are in the base table).
void RunCacheDeltaBench(benchmark::State& state, bool merge_on_read) {
  const auto topology = numa::Topology::HyPer1();
  const uint32_t team = 32;
  workload::DatasetSpec spec;
  const int s_log2 = GetEnvInt("MPSM_CACHE_BENCH_LOG2", 22);
  spec.r_tuples = size_t{1} << (s_log2 - 2);
  spec.multiplicity = 4;
  spec.seed = 9;
  auto dataset = workload::Generate(topology, team, spec);
  const auto delta = RandomTuples(dataset.s.size() / 100, 77);

  cache::RunCache run_cache;
  engine::EngineOptions options;
  options.workers = team;
  engine::Engine engine(topology, options);
  engine::JoinSpec join;
  join.r = &dataset.r;
  join.s = &dataset.s;
  join.algorithm = engine::Algorithm::kPMpsm;

  std::shared_ptr<const Relation> grown;
  if (merge_on_read) {
    engine.set_run_cache(&run_cache);
    CountFactory prime(team);
    join.consumers = &prime;
    if (!engine.Execute(join).ok()) {
      state.SkipWithError("priming join failed");
      return;
    }
    run_cache.Ingest(dataset.s, delta);
  } else {
    // Fold the delta into one grown relation outside the timed region;
    // every iteration then pays the full sort of 1.01 * |S|.
    run_cache.Ingest(dataset.s, delta);
    grown = run_cache.MaterializedView(dataset.s, topology, team);
    join.s = grown.get();
  }
  for (auto _ : state) {
    CountFactory counts(team);
    join.consumers = &counts;
    auto report = engine.Execute(join);
    if (!report.ok() ||
        (merge_on_read &&
         report->run_source != engine::RunSource::kCachedMerge)) {
      state.SkipWithError("join failed or missed the cache");
      return;
    }
    benchmark::DoNotOptimize(counts.Result());
  }
  state.SetItemsProcessed(state.iterations() *
                          (dataset.r.size() + dataset.s.size() +
                           delta.size()));
}

void BM_RunCacheDeltaMergeJoin(benchmark::State& state) {
  RunCacheDeltaBench(state, /*merge_on_read=*/true);
}
BENCHMARK(BM_RunCacheDeltaMergeJoin)->Unit(benchmark::kMillisecond);

void BM_RunCacheDeltaResortJoin(benchmark::State& state) {
  RunCacheDeltaBench(state, /*merge_on_read=*/false);
}
BENCHMARK(BM_RunCacheDeltaResortJoin)->Unit(benchmark::kMillisecond);

// Write-side cost: sorting + logging one delta batch (arg = log2
// batch tuples) — the price paid at ingest time so reads can merge.
void BM_RunCacheIngest(benchmark::State& state) {
  const size_t batch_n = size_t{1} << state.range(0);
  auto rel = Relation::FromVector(RandomTuples(1024, 5));
  const auto batch = RandomTuples(batch_n, 7);
  cache::RunCache run_cache;
  size_t since_reset = 0;
  for (auto _ : state) {
    run_cache.Ingest(rel, batch);
    if (++since_reset == 256) {  // bound the accumulating delta log
      state.PauseTiming();
      run_cache.InvalidateRelation(rel.id());
      since_reset = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() * batch_n);
}
BENCHMARK(BM_RunCacheIngest)->Arg(12)->Arg(16);

// Spill-path I/O backend A/B on the lowmem join: D-MPSM with a
// synthetic 100 us/page device (PageStoreOptions::io_delay_us burns
// inside the software backends' reads). The sync backend eats the
// delay in every submitter — io_stall_ms tracks exactly that wait —
// while the threadpool overlaps it with merge compute (poll-or-steal,
// docs/io.md). The uring backend rides the real page cache (no
// synthetic delay is injectable into the kernel), so its row tracks
// raw subsystem overhead instead. MPSM_IO_BENCH_LOG2 scales |R|
// (default 2^15; CI smoke uses less).
void DMpsmIoBench(benchmark::State& state, io::IoBackendKind backend) {
  if (backend == io::IoBackendKind::kUring && !io::UringSupported()) {
    state.SkipWithError("io_uring unavailable on this host");
    return;
  }
  const auto topology = numa::Topology::Probe();
  const uint32_t team_size = 4;
  workload::DatasetSpec spec;
  spec.r_tuples = size_t{1} << GetEnvInt("MPSM_IO_BENCH_LOG2", 15);
  spec.multiplicity = 2;
  spec.seed = 42;
  const auto dataset = workload::Generate(topology, team_size, spec);
  WorkerTeam team(topology, team_size);

  disk::DMpsmOptions options;
  options.tuples_per_page = 512;
  options.pool_pages = 16;
  options.scheduler = SchedulerKind::kStealing;
  options.io_backend = backend;
  if (backend != io::IoBackendKind::kUring) options.io_delay_us = 100;

  double stall_ms = 0;
  double mean_depth = 0;
  double batches = 0;
  double pages = 0;
  for (auto _ : state) {
    CountFactory counts(team_size);
    disk::DMpsmReport report;
    auto info = disk::DMpsmJoin(options).Execute(team, dataset.r,
                                                 dataset.s, counts, &report);
    if (!info.ok()) {
      state.SkipWithError("join failed");
      return;
    }
    benchmark::DoNotOptimize(counts.Result());
    stall_ms = report.io_sched.io_stall_ns / 1e6;
    mean_depth = report.io_sched.mean_queue_depth;
    batches = static_cast<double>(report.io_sched.io_batches);
    pages = static_cast<double>(report.io_sched.pages_read);
  }
  state.counters["io_stall_ms"] = stall_ms;
  state.counters["mean_queue_depth"] = mean_depth;
  state.counters["io_batches"] = batches;
  state.counters["pages_read"] = pages;
  state.SetItemsProcessed(state.iterations() *
                          (dataset.r.size() + dataset.s.size()));
}

void BM_DMpsmIoSync(benchmark::State& state) {
  DMpsmIoBench(state, io::IoBackendKind::kSync);
}
BENCHMARK(BM_DMpsmIoSync)->Unit(benchmark::kMillisecond);

void BM_DMpsmIoThreadpool(benchmark::State& state) {
  DMpsmIoBench(state, io::IoBackendKind::kThreadpool);
}
BENCHMARK(BM_DMpsmIoThreadpool)->Unit(benchmark::kMillisecond);

void BM_DMpsmIoUring(benchmark::State& state) {
  DMpsmIoBench(state, io::IoBackendKind::kUring);
}
BENCHMARK(BM_DMpsmIoUring)->Unit(benchmark::kMillisecond);

// Crash-recovery journaling overhead A/B (docs/recovery.md): the same
// spilling join with the durable manifest off vs on. On pays one
// persistent named spool file plus ~3 records per worker, each an
// append + fdatasync behind a write barrier — the per-run/per-chunk
// commit discipline. The Off/On delta is the price of restartability
// on the BM_DMpsmIoThreadpool shape (budgeted under 3%).
void DMpsmJournalBench(benchmark::State& state, bool journal) {
  const auto topology = numa::Topology::Probe();
  const uint32_t team_size = 4;
  workload::DatasetSpec spec;
  spec.r_tuples = size_t{1} << GetEnvInt("MPSM_IO_BENCH_LOG2", 15);
  spec.multiplicity = 2;
  spec.seed = 42;
  const auto dataset = workload::Generate(topology, team_size, spec);
  WorkerTeam team(topology, team_size);

  disk::DMpsmOptions options;
  options.tuples_per_page = 512;
  options.pool_pages = 16;
  options.scheduler = SchedulerKind::kStealing;
  options.io_backend = io::IoBackendKind::kThreadpool;
  options.io_delay_us = 100;
  char dir_template[] = "/tmp/mpsm_bench_journal_XXXXXX";
  if (journal) {
    if (::mkdtemp(dir_template) == nullptr) {
      state.SkipWithError("mkdtemp failed");
      return;
    }
    options.directory = dir_template;
    options.recovery.journal = true;
    options.recovery.journal_path = std::string(dir_template) + "/m.jnl";
    options.recovery.spool_path = std::string(dir_template) + "/s.pages";
  }

  double commits = 0;
  for (auto _ : state) {
    CountFactory counts(team_size);
    disk::DMpsmReport report;
    auto info = disk::DMpsmJoin(options).Execute(team, dataset.r,
                                                 dataset.s, counts, &report);
    if (!info.ok()) {
      state.SkipWithError("join failed");
      return;
    }
    benchmark::DoNotOptimize(counts.Result());
    commits = static_cast<double>(report.journal_commits);
  }
  state.counters["journal_commits"] = commits;
  state.SetItemsProcessed(state.iterations() *
                          (dataset.r.size() + dataset.s.size()));
  if (journal) (void)::rmdir(dir_template);  // artifacts retired on success
}

void BM_DMpsmJournalOff(benchmark::State& state) {
  DMpsmJournalBench(state, /*journal=*/false);
}
BENCHMARK(BM_DMpsmJournalOff)->Unit(benchmark::kMillisecond);

void BM_DMpsmJournalOn(benchmark::State& state) {
  DMpsmJournalBench(state, /*journal=*/true);
}
BENCHMARK(BM_DMpsmJournalOn)->Unit(benchmark::kMillisecond);

// Buffer pool frame micro-costs (docs/storage.md): one pin+decode+
// unpin round trip when the page is resident (hit: pure frame-table
// work), when it must be read and another frame evicted (miss: one
// device round trip through the scheduler at page-cache speed), and
// one AppendPage when write-back absorbs the device write (the
// foreground cost of spooling a page).
struct PoolBenchHarness {
  explicit PoolBenchHarness(size_t frames, size_t tuples_per_page = 512) {
    disk::PageStoreOptions store_options;
    store_options.tuples_per_page = tuples_per_page;
    store = std::make_unique<disk::PageStore>(store_options);
    if (!store->Open().ok()) return;
    io::IoSchedulerOptions io_options;
    io_options.backend = io::IoBackendKind::kThreadpool;
    io_options.completion_queues = 2;
    auto sched = io::IoScheduler::Create(store->fd(), store->page_bytes(),
                                         store->io_delay_us(), io_options);
    if (!sched.ok()) return;
    scheduler = std::move(*sched);
    bufferpool::BufferPoolOptions pool_options;
    pool_options.frames = frames;
    auto created = bufferpool::BufferPool::Create(store.get(),
                                                  scheduler.get(),
                                                  pool_options);
    if (created.ok()) pool = std::move(*created);
  }

  ~PoolBenchHarness() {
    if (pool != nullptr) (void)pool->Close();
  }

  /// Pin `page`, decode it into `out`, unpin. False on any failure.
  bool PinDecodeUnpin(disk::PageId page, Tuple* out) {
    bufferpool::PagePinRequest request;
    request.page = page;
    bufferpool::PagePinCompletion completion;
    if (!pool->SubmitPins(&request, 1).ok()) return false;
    while (pool->DrainPins(0, &completion, 1) == 0) {
      if (!pool->Pump(true).ok()) return false;
    }
    if (!completion.status.ok()) return false;
    const auto count = store->DecodePage(pool->Data(completion.frame), out);
    pool->Unpin(completion.frame);
    return count.ok();
  }

  std::unique_ptr<disk::PageStore> store;
  std::unique_ptr<io::IoScheduler> scheduler;
  std::unique_ptr<bufferpool::BufferPool> pool;
};

void BM_BufferPoolHit(benchmark::State& state) {
  constexpr size_t kPages = 64;
  PoolBenchHarness harness(/*frames=*/kPages + 8);
  std::vector<Tuple> tuples(harness.store->tuples_per_page(), Tuple{1, 2});
  for (size_t p = 0; p < kPages; ++p) {
    if (!harness.store->WritePage(tuples.data(), tuples.size()).ok()) {
      state.SkipWithError("spool write failed");
      return;
    }
  }
  // Warm: after one pass everything is resident.
  std::vector<Tuple> out(harness.store->tuples_per_page());
  for (size_t p = 0; p < kPages; ++p) {
    if (!harness.PinDecodeUnpin(p, out.data())) {
      state.SkipWithError("warmup pin failed");
      return;
    }
  }
  size_t page = 0;
  for (auto _ : state) {
    if (!harness.PinDecodeUnpin(page, out.data())) {
      state.SkipWithError("pin failed");
      return;
    }
    page = (page + 1) % kPages;
  }
  const auto stats = harness.pool->stats();
  state.counters["hit_rate"] =
      static_cast<double>(stats.hits) / (stats.hits + stats.misses);
  state.SetItemsProcessed(state.iterations() * tuples.size());
}
BENCHMARK(BM_BufferPoolHit);

void BM_BufferPoolMiss(benchmark::State& state) {
  // 4 frames cycling over 64 pages: every pin evicts and reads.
  constexpr size_t kPages = 64;
  PoolBenchHarness harness(/*frames=*/4);
  std::vector<Tuple> tuples(harness.store->tuples_per_page(), Tuple{1, 2});
  for (size_t p = 0; p < kPages; ++p) {
    if (!harness.store->WritePage(tuples.data(), tuples.size()).ok()) {
      state.SkipWithError("spool write failed");
      return;
    }
  }
  std::vector<Tuple> out(harness.store->tuples_per_page());
  size_t page = 0;
  for (auto _ : state) {
    if (!harness.PinDecodeUnpin(page, out.data())) {
      state.SkipWithError("pin failed");
      return;
    }
    page = (page + 1) % kPages;
  }
  const auto stats = harness.pool->stats();
  state.counters["evictions"] = static_cast<double>(stats.evictions);
  state.SetItemsProcessed(state.iterations() * tuples.size());
}
BENCHMARK(BM_BufferPoolMiss);

void BM_BufferPoolWriteback(benchmark::State& state) {
  // Foreground AppendPage cost while the flusher retires frames in
  // the background; append_stall_ms is the time the appender actually
  // waited for a free frame.
  PoolBenchHarness harness(/*frames=*/32);
  std::vector<Tuple> tuples(harness.store->tuples_per_page(), Tuple{1, 2});
  for (auto _ : state) {
    if (!harness.pool->AppendPage(tuples.data(), tuples.size()).ok()) {
      state.SkipWithError("append failed");
      return;
    }
  }
  if (!harness.pool->FlushAll().ok()) {
    state.SkipWithError("flush failed");
    return;
  }
  const auto stats = harness.pool->stats();
  state.counters["writebacks"] = static_cast<double>(stats.writebacks);
  state.counters["append_stall_ms"] = stats.append_stall_ns / 1e6;
  state.SetItemsProcessed(state.iterations() * tuples.size());
}
BENCHMARK(BM_BufferPoolWriteback);

// Run spooling on the synthetic device (docs/storage.md): a D-MPSM
// join whose spooled pages ride the pool's write-back cache.
// spool_stall_ms is DMpsmReport::spool_write_stall_ns — the foreground
// sort phases' wait for a free frame.
void BM_DMpsmSpoolWriteback(benchmark::State& state) {
  const auto topology = numa::Topology::Probe();
  const uint32_t team_size = 4;
  workload::DatasetSpec spec;
  spec.r_tuples = size_t{1} << GetEnvInt("MPSM_IO_BENCH_LOG2", 15);
  spec.multiplicity = 2;
  spec.seed = 42;
  const auto dataset = workload::Generate(topology, team_size, spec);
  WorkerTeam team(topology, team_size);

  disk::DMpsmOptions options;
  options.tuples_per_page = 512;
  options.pool_pages = 16;
  options.io_backend = io::IoBackendKind::kThreadpool;
  options.io_delay_us = 100;

  double spool_stall_ms = 0;
  double writebacks = 0;
  for (auto _ : state) {
    CountFactory counts(team_size);
    disk::DMpsmReport report;
    auto info = disk::DMpsmJoin(options).Execute(team, dataset.r,
                                                 dataset.s, counts, &report);
    if (!info.ok()) {
      state.SkipWithError("join failed");
      return;
    }
    benchmark::DoNotOptimize(counts.Result());
    spool_stall_ms = report.spool_write_stall_ns / 1e6;
    writebacks = static_cast<double>(report.pool.writebacks);
  }
  state.counters["spool_stall_ms"] = spool_stall_ms;
  state.counters["writebacks"] = writebacks;
  state.SetItemsProcessed(state.iterations() *
                          (dataset.r.size() + dataset.s.size()));
}

BENCHMARK(BM_DMpsmSpoolWriteback)->Unit(benchmark::kMillisecond);

void BM_CdfEstimateRank(benchmark::State& state) {
  auto data = RandomTuples(1 << 20);
  sort::RadixIntroSort(data.data(), data.size());
  Run run{data.data(), data.size(), 0};
  const Cdf cdf = Cdf::FromHistograms({BuildEquiHeightHistogram(run, 128)});
  Xoshiro256 rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cdf.EstimateRank(rng.NextBounded(uint64_t{1} << 32)));
  }
}
BENCHMARK(BM_CdfEstimateRank);

// Concurrent join service throughput A/B (docs/service.md): N
// closed-loop clients each submit MPSM_SERVICE_BENCH_QUERIES queries
// joining their own private input against one shared public relation.
// Baseline: one Engine serialized behind a mutex (what a server
// without the service layer would do). Service: JoinService with
// admission control and shared-sort batching. Counters report
// queries/sec and client-observed p50/p99 latency; the arg is the
// client count. `cached` wires the cross-lane run cache: the shared
// public input is sorted once and every later query merges on read.
void ServiceThroughputBench(benchmark::State& state, bool through_service,
                            bool cached = false) {
  const auto topology = numa::Topology::Simulated(2, 4);
  constexpr uint32_t kTeam = 4;
  const size_t clients = static_cast<size_t>(state.range(0));
  const size_t per_client =
      static_cast<size_t>(GetEnvInt("MPSM_SERVICE_BENCH_QUERIES", 4));

  workload::DatasetSpec public_spec;
  public_spec.r_tuples = size_t{1}
                         << GetEnvInt("MPSM_SERVICE_BENCH_LOG2", 15);
  public_spec.multiplicity = 2;
  public_spec.s_mode = workload::SKeyMode::kIndependent;
  public_spec.seed = 7;
  const auto shared = workload::Generate(topology, kTeam, public_spec);

  std::vector<workload::Dataset> privates;
  privates.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    workload::DatasetSpec private_spec;
    private_spec.r_tuples = 1024;
    private_spec.multiplicity = 1;  // this side's S is unused
    private_spec.s_mode = workload::SKeyMode::kIndependent;
    private_spec.seed = 100 + c;
    privates.push_back(workload::Generate(topology, kTeam, private_spec));
  }

  engine::EngineOptions engine_options;
  engine_options.workers = kTeam;
  // Pin the algorithm so both sides run identical per-query work; the
  // delta is the concurrency layer.
  engine_options.force_algorithm = engine::Algorithm::kPMpsm;

  std::vector<double> latencies_ms;
  double elapsed_s = 0;
  for (auto _ : state) {
    latencies_ms.clear();
    latencies_ms.reserve(clients * per_client);
    std::mutex latency_mu;

    std::optional<service::JoinService> service;
    std::optional<engine::Engine> serial_engine;
    std::mutex serial_mu;
    if (through_service) {
      service::ServiceOptions options;
      options.lanes =
          static_cast<uint32_t>(GetEnvInt("MPSM_SERVICE_BENCH_LANES", 2));
      options.max_batch = 32;
      if (cached) options.run_cache_bytes = uint64_t{1} << 30;
      options.engine = engine_options;
      service.emplace(topology, options);
    } else {
      serial_engine.emplace(topology, engine_options);
    }

    std::atomic<bool> failed{false};
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t k = 0; k < per_client; ++k) {
          CountFactory counts(kTeam);
          engine::JoinSpec spec;
          spec.r = &privates[c].r;
          spec.s = &shared.s;
          spec.consumers = &counts;
          const auto q0 = std::chrono::steady_clock::now();
          bool ok = false;
          if (through_service) {
            auto id = service->Submit(spec);
            ok = id.ok() && service->Wait(*id).ok();
          } else {
            std::lock_guard<std::mutex> lock(serial_mu);
            ok = serial_engine->Execute(spec).ok();
          }
          if (!ok) failed.store(true);
          const double ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - q0)
                                .count();
          std::lock_guard<std::mutex> lock(latency_mu);
          latencies_ms.push_back(ms);
        }
      });
    }
    for (auto& t : threads) t.join();
    elapsed_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start)
                    .count();
    service.reset();  // lanes joined inside the timed region's iteration
    if (failed.load()) {
      state.SkipWithError("join failed");
      return;
    }
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  if (!latencies_ms.empty() && elapsed_s > 0) {
    const size_t n = latencies_ms.size();
    state.counters["qps"] = static_cast<double>(n) / elapsed_s;
    state.counters["p50_ms"] = latencies_ms[n / 2];
    state.counters["p99_ms"] = latencies_ms[std::min(n - 1, n * 99 / 100)];
  }
  state.SetItemsProcessed(state.iterations() * clients * per_client);
}

void BM_ServiceThroughputSerial(benchmark::State& state) {
  ServiceThroughputBench(state, /*through_service=*/false);
}
BENCHMARK(BM_ServiceThroughputSerial)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_ServiceThroughputService(benchmark::State& state) {
  ServiceThroughputBench(state, /*through_service=*/true);
}
BENCHMARK(BM_ServiceThroughputService)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_ServiceThroughputCached(benchmark::State& state) {
  ServiceThroughputBench(state, /*through_service=*/true, /*cached=*/true);
}
BENCHMARK(BM_ServiceThroughputCached)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mpsm

BENCHMARK_MAIN();

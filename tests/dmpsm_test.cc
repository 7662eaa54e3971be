// D-MPSM and its disk substrate: page store round trips, page index
// ordering, staging pipeline lifecycle, and end-to-end join equality
// with the in-memory algorithms under tight RAM budgets.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "baseline/reference_join.h"
#include "bufferpool/buffer_pool.h"
#include "core/consumers.h"
#include "disk/d_mpsm.h"
#include "disk/page_index.h"
#include "disk/page_store.h"
#include "disk/staging_pipeline.h"
#include "io/io_scheduler.h"
#include "numa/topology.h"
#include "util/bits.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mpsm {
namespace {

using disk::DMpsmJoin;
using disk::DMpsmOptions;
using disk::DMpsmReport;
using disk::PageIndex;
using disk::PageIndexEntry;
using disk::PageStore;
using disk::PageStoreOptions;
using disk::StagingPipeline;

// -------------------------------------------------------- page store

TEST(PageStoreTest, RoundTripsPages) {
  PageStoreOptions options;
  options.tuples_per_page = 8;
  PageStore store(options);
  ASSERT_TRUE(store.Open().ok());

  std::vector<Tuple> page1, page2;
  for (uint64_t i = 0; i < 8; ++i) page1.push_back(Tuple{i, i * 10});
  for (uint64_t i = 0; i < 5; ++i) page2.push_back(Tuple{100 + i, i});

  auto id1 = store.WritePage(page1.data(), page1.size());
  auto id2 = store.WritePage(page2.data(), page2.size());
  ASSERT_TRUE(id1.ok() && id2.ok());
  EXPECT_NE(*id1, *id2);
  EXPECT_EQ(store.num_pages(), 2u);

  std::vector<Tuple> out(8);
  auto count = store.ReadPage(*id2, out.data());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(out[i], page2[i]);

  count = store.ReadPage(*id1, out.data());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 8u);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], page1[i]);

  const auto io = store.io_stats();
  EXPECT_EQ(io.pages_written, 2u);
  EXPECT_EQ(io.pages_read, 2u);
}

TEST(PageStoreTest, RejectsOverflowAndBadIds) {
  PageStoreOptions options;
  options.tuples_per_page = 4;
  PageStore store(options);
  ASSERT_TRUE(store.Open().ok());

  std::vector<Tuple> tuples(5, Tuple{1, 2});
  EXPECT_FALSE(store.WritePage(tuples.data(), 5).ok());

  std::vector<Tuple> out(4);
  EXPECT_FALSE(store.ReadPage(7, out.data()).ok());
}

TEST(PageStoreTest, ConcurrentAppendsAllocateDistinctPages) {
  PageStoreOptions options;
  options.tuples_per_page = 16;
  PageStore store(options);
  ASSERT_TRUE(store.Open().ok());

  constexpr int kThreads = 8;
  constexpr int kPagesEach = 50;
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int p = 0; p < kPagesEach; ++p) {
        // Page content encodes (thread, page) for verification.
        std::vector<Tuple> tuples(16, Tuple{static_cast<uint64_t>(t),
                                            static_cast<uint64_t>(p)});
        if (!store.WritePage(tuples.data(), tuples.size()).ok()) {
          failed = true;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed);
  EXPECT_EQ(store.num_pages(),
            static_cast<uint64_t>(kThreads) * kPagesEach);

  // Every page is intact (single writer per page).
  std::vector<Tuple> out(16);
  for (uint64_t id = 0; id < store.num_pages(); ++id) {
    auto count = store.ReadPage(id, out.data());
    ASSERT_TRUE(count.ok());
    ASSERT_EQ(*count, 16u);
    for (size_t i = 1; i < 16; ++i) EXPECT_EQ(out[i], out[0]);
  }
}

// -------------------------------------------------------- page index

TEST(PageIndexTest, FinalizeSortsByKeyThenRun) {
  PageIndex index;
  index.Add(PageIndexEntry{50, 1, 10, 4});
  index.Add(PageIndexEntry{10, 2, 11, 4});
  index.Add(PageIndexEntry{50, 0, 12, 4});
  index.Add(PageIndexEntry{30, 0, 13, 4});
  index.Finalize();

  ASSERT_EQ(index.size(), 4u);
  EXPECT_EQ(index[0].min_key, 10u);
  EXPECT_EQ(index[1].min_key, 30u);
  EXPECT_EQ(index[2].min_key, 50u);
  EXPECT_EQ(index[2].run, 0u);  // ties broken by run
  EXPECT_EQ(index[3].run, 1u);
}

TEST(PageIndexTest, AppendMergesParts) {
  PageIndex a, b;
  a.Add(PageIndexEntry{1, 0, 0, 1});
  b.Add(PageIndexEntry{2, 1, 1, 1});
  a.Append(b);
  a.Finalize();
  EXPECT_EQ(a.size(), 2u);
}

// -------------------------------------------------- staging pipeline

TEST(StagingPipelineTest, DeliversAllPagesInOrderUnderTinyPool) {
  PageStoreOptions options;
  options.tuples_per_page = 4;
  PageStore store(options);
  ASSERT_TRUE(store.Open().ok());

  PageIndex index;
  constexpr uint64_t kPages = 40;
  for (uint64_t p = 0; p < kPages; ++p) {
    std::vector<Tuple> tuples(4, Tuple{p, p});
    auto id = store.WritePage(tuples.data(), tuples.size());
    ASSERT_TRUE(id.ok());
    index.Add(PageIndexEntry{p, 0, *id, 4});
  }
  index.Finalize();

  constexpr uint32_t kConsumers = 3;
  io::IoSchedulerOptions io_options;
  io_options.backend = io::IoBackendKind::kThreadpool;
  io_options.completion_queues = 2;  // pool loads + write-backs
  auto scheduler = io::IoScheduler::Create(
      store.fd(), store.page_bytes(), store.io_delay_us(), io_options);
  ASSERT_TRUE(scheduler.ok());
  bufferpool::BufferPoolOptions pool_options;
  pool_options.frames = 8;
  auto pool = bufferpool::BufferPool::Create(&store, scheduler->get(),
                                             pool_options);
  ASSERT_TRUE(pool.ok());
  StagingPipeline pipeline(store, index, /*capacity_pages=*/2, kConsumers,
                           pool->get());
  pipeline.Start();

  std::atomic<bool> mismatch{false};
  std::vector<std::thread> consumers;
  for (uint32_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      for (size_t pos = 0; pos < kPages; ++pos) {
        const auto* frame = pipeline.Acquire(pos);
        if (frame == nullptr || frame->tuples.empty() ||
            frame->tuples[0].key != pos) {
          mismatch = true;
        }
        pipeline.Release(pos);
      }
    });
  }
  for (auto& thread : consumers) thread.join();
  EXPECT_FALSE(mismatch);
  EXPECT_TRUE(pipeline.status().ok());
  EXPECT_LE(pipeline.peak_resident_pages(), 2u);
}

// ------------------------------------------------------- d-mpsm join

class DMpsmTest : public testing::TestWithParam<
                      std::tuple<uint32_t, size_t, size_t>> {};

TEST_P(DMpsmTest, MatchesReferenceUnderRamBudget) {
  const auto [team_size, tuples_per_page, pool_pages] = GetParam();
  const auto topology = numa::Topology::Simulated(4, 16);

  workload::DatasetSpec spec;
  spec.r_tuples = 6000;
  spec.multiplicity = 2.0;
  spec.key_domain = 20000;
  spec.seed = 31 + team_size;
  const auto dataset = workload::Generate(topology, team_size, spec);

  WorkerTeam team(topology, team_size);
  DMpsmOptions options;
  options.tuples_per_page = tuples_per_page;
  options.pool_pages = pool_pages;
  CountFactory counts(team_size);
  DMpsmReport report;
  auto info = DMpsmJoin(options).Execute(team, dataset.r, dataset.s, counts,
                                         &report);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  CountFactory reference(1);
  const uint64_t expected = baseline::ReferenceJoin(
      dataset.r.ToVector(), dataset.s.ToVector(), JoinKind::kInner,
      reference.ConsumerForWorker(0));
  EXPECT_EQ(counts.Result(), expected);

  // RAM budget respected and everything was spooled + read back.
  EXPECT_LE(report.peak_pool_pages, pool_pages);
  EXPECT_GT(report.io.pages_written, 0u);
  EXPECT_GT(report.io.pages_read, 0u);
  // One index entry per spooled S page.
  uint64_t expected_s_pages = 0;
  for (uint32_t c = 0; c < dataset.s.num_chunks(); ++c) {
    expected_s_pages +=
        (dataset.s.chunk(c).size + tuples_per_page - 1) / tuples_per_page;
  }
  EXPECT_EQ(report.index_entries, expected_s_pages);
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, DMpsmTest,
    testing::Values(std::make_tuple(1u, 256u, 4u),
                    std::make_tuple(2u, 128u, 2u),
                    std::make_tuple(4u, 64u, 1u),   // minimal pool
                    std::make_tuple(4u, 256u, 8u),
                    std::make_tuple(8u, 512u, 16u)),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_pp" +
             std::to_string(std::get<1>(info.param)) + "_pool" +
             std::to_string(std::get<2>(info.param));
    });

TEST(DMpsmTest, KernelKnobsMatchReference) {
  // The disk variant's sort/prefetch knobs (docs/tuning.md) must not
  // change the join result, including the scalar fallbacks.
  const auto topology = numa::Topology::Simulated(2, 8);
  workload::DatasetSpec spec;
  spec.r_tuples = 5000;
  spec.multiplicity = 2.0;
  spec.key_domain = 16000;
  spec.seed = 91;
  const uint32_t team_size = 4;
  const auto dataset = workload::Generate(topology, team_size, spec);

  CountFactory reference(1);
  const uint64_t expected = baseline::ReferenceJoin(
      dataset.r.ToVector(), dataset.s.ToVector(), JoinKind::kInner,
      reference.ConsumerForWorker(0));

  for (sort::SortKind sort_kind :
       {sort::SortKind::kSinglePassRadix, sort::SortKind::kMultiPassRadix,
        sort::SortKind::kIntroSort}) {
    for (uint32_t prefetch : {0u, kDefaultMergePrefetchDistance}) {
      DMpsmOptions options;
      options.tuples_per_page = 128;
      options.pool_pages = 4;
      options.sort = sort_kind;
      options.merge_prefetch_distance = prefetch;

      WorkerTeam team(topology, team_size);
      CountFactory counts(team_size);
      const auto info =
          DMpsmJoin(options).Execute(team, dataset.r, dataset.s, counts);
      ASSERT_TRUE(info.ok()) << info.status().ToString();
      EXPECT_EQ(counts.Result(), expected)
          << sort::SortKindName(sort_kind) << "/pf" << prefetch;
    }
  }
}

TEST(DMpsmTest, StealingSchedulerMatchesStatic) {
  // Under the stealing scheduler the sort+spool phases are stealable
  // morsels and page fetches become consumer-executed tasks
  // (StagingPipeline consumer_loads); the join result must be
  // identical, and with a tiny pool the blocked consumers should be
  // performing loads themselves.
  const auto topology = numa::Topology::Simulated(2, 8);
  workload::DatasetSpec spec;
  spec.r_tuples = 8000;
  spec.multiplicity = 2.0;
  spec.key_domain = 24000;
  spec.seed = 17;
  const uint32_t team_size = 4;
  const auto dataset = workload::Generate(topology, team_size, spec);
  WorkerTeam team(topology, team_size);

  DMpsmOptions static_options;
  static_options.tuples_per_page = 64;
  static_options.pool_pages = 2;
  CountFactory static_counts(team_size);
  DMpsmReport static_report;
  ASSERT_TRUE(DMpsmJoin(static_options)
                  .Execute(team, dataset.r, dataset.s, static_counts,
                           &static_report)
                  .ok());
  EXPECT_EQ(static_report.consumer_page_loads, 0u);

  DMpsmOptions stealing_options = static_options;
  stealing_options.scheduler = SchedulerKind::kStealing;
  CountFactory stealing_counts(team_size);
  DMpsmReport stealing_report;
  ASSERT_TRUE(DMpsmJoin(stealing_options)
                  .Execute(team, dataset.r, dataset.s, stealing_counts,
                           &stealing_report)
                  .ok());

  EXPECT_GT(static_counts.Result(), 0u);
  EXPECT_EQ(stealing_counts.Result(), static_counts.Result());
  EXPECT_LE(stealing_report.peak_pool_pages, stealing_options.pool_pages);
  // With a 2-page pool and 4 consumers marching over 100+ pages, some
  // fetches land on consumers (the prefetch thread alone cannot keep
  // every wait non-productive).
  EXPECT_GT(stealing_report.consumer_page_loads, 0u);
}

TEST(DMpsmTest, MaxSumMatchesReference) {
  const auto topology = numa::Topology::Simulated(2, 4);
  workload::DatasetSpec spec;
  spec.r_tuples = 3000;
  spec.multiplicity = 3.0;
  spec.seed = 7;
  const auto dataset = workload::Generate(topology, 4, spec);

  WorkerTeam team(topology, 4);
  MaxPayloadSumFactory agg(4);
  auto info = DMpsmJoin().Execute(team, dataset.r, dataset.s, agg);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(agg.Result().value_or(0),
            baseline::ReferenceMaxPayloadSum(dataset.r.ToVector(),
                                             dataset.s.ToVector()));
}

TEST(DMpsmTest, SkewedKeysWithDuplicatesAcrossPageBoundaries) {
  // Heavy duplication forces equal keys to span page boundaries — the
  // trickiest case for the window/cursor logic.
  const auto topology = numa::Topology::Simulated(2, 4);
  const uint32_t team_size = 4;
  std::vector<Tuple> r_tuples, s_tuples;
  Xoshiro256 rng(99);
  for (int i = 0; i < 4000; ++i) {
    r_tuples.push_back(Tuple{rng.NextBounded(37), rng.Next() & 0xFFFF});
    s_tuples.push_back(Tuple{rng.NextBounded(37), rng.Next() & 0xFFFF});
  }
  // Chunked relations from explicit tuples.
  auto make_relation = [&](const std::vector<Tuple>& tuples) {
    Relation rel = Relation::Allocate(topology, tuples.size(), team_size);
    size_t offset = 0;
    for (uint32_t c = 0; c < rel.num_chunks(); ++c) {
      for (size_t i = 0; i < rel.chunk(c).size; ++i) {
        rel.chunk(c).data[i] = tuples[offset++];
      }
    }
    return rel;
  };
  Relation r = make_relation(r_tuples);
  Relation s = make_relation(s_tuples);

  WorkerTeam team(topology, team_size);
  DMpsmOptions options;
  options.tuples_per_page = 32;  // many boundary-spanning groups
  options.pool_pages = 2;
  CountFactory counts(team_size);
  auto info = DMpsmJoin(options).Execute(team, r, s, counts);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  CountFactory reference(1);
  EXPECT_EQ(counts.Result(),
            baseline::ReferenceJoin(r_tuples, s_tuples, JoinKind::kInner,
                                    reference.ConsumerForWorker(0)));
}

TEST(DMpsmTest, EmptyInputs) {
  const auto topology = numa::Topology::Simulated(2, 4);
  WorkerTeam team(topology, 4);
  Relation empty = Relation::Allocate(topology, 0, 4);

  workload::DatasetSpec spec;
  spec.r_tuples = 500;
  spec.multiplicity = 1.0;
  const auto dataset = workload::Generate(topology, 4, spec);

  CountFactory counts(4);
  auto info = DMpsmJoin().Execute(team, empty, dataset.s, counts);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(counts.Result(), 0u);

  CountFactory counts2(4);
  info = DMpsmJoin().Execute(team, dataset.r, empty, counts2);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(counts2.Result(), 0u);
}

TEST(DMpsmTest, JoinsRelationManyTimesThePoolBudget) {
  // ISSUE acceptance: a relation at least 4x the configured pool
  // budget joins correctly, with clock eviction and async write-back
  // doing real work along the way (docs/storage.md).
  const auto topology = numa::Topology::Simulated(2, 8);
  constexpr uint32_t kTeam = 4;
  workload::DatasetSpec spec;
  spec.r_tuples = 6000;
  spec.multiplicity = 2.0;
  spec.key_domain = 20000;
  spec.seed = 97;
  const auto dataset = workload::Generate(topology, kTeam, spec);

  DMpsmOptions options;
  options.tuples_per_page = 64;
  options.pool_budget_bytes = 48 << 10;
  // Both inputs spool in full, so the on-disk footprint dwarfs the
  // pool: 18000 tuples * 16 B = 281 KB >= 4 * 48 KB.
  const uint64_t spool_bytes =
      (dataset.r.size() + dataset.s.size()) * sizeof(Tuple);
  ASSERT_GE(spool_bytes, 4 * options.pool_budget_bytes);

  WorkerTeam team(topology, kTeam);
  CountFactory counts(kTeam);
  DMpsmReport report;
  auto info = DMpsmJoin(options).Execute(team, dataset.r, dataset.s, counts,
                                         &report);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  CountFactory reference(1);
  const uint64_t expected = baseline::ReferenceJoin(
      dataset.r.ToVector(), dataset.s.ToVector(), JoinKind::kInner,
      reference.ConsumerForWorker(0));
  EXPECT_EQ(counts.Result(), expected);

  // The budget was honored and the pool actually cycled frames.
  const size_t page_bytes = 64 * sizeof(Tuple) + sizeof(uint64_t);
  EXPECT_LE(report.pool.frames * page_bytes, options.pool_budget_bytes);
  EXPECT_GT(report.pool.evictions, 0u);
  EXPECT_GT(report.pool.writebacks, 0u);
  EXPECT_GT(report.pool.misses, 0u);
}

TEST(DMpsmTest, AsyncWritebackReducesSpoolStalls) {
  // With a synthetic device delay, a blocking spool would stall its
  // worker for the full device time of every page it writes; the
  // write-back cache absorbs the writes in the background flusher.
  const auto topology = numa::Topology::Simulated(2, 8);
  constexpr uint32_t kTeam = 4;
  workload::DatasetSpec spec;
  spec.r_tuples = 2000;
  spec.multiplicity = 1.0;
  spec.seed = 41;
  const auto dataset = workload::Generate(topology, kTeam, spec);

  CountFactory reference(1);
  const uint64_t expected = baseline::ReferenceJoin(
      dataset.r.ToVector(), dataset.s.ToVector(), JoinKind::kInner,
      reference.ConsumerForWorker(0));

  DMpsmOptions options;
  options.tuples_per_page = 64;
  options.io_delay_us = 200;
  WorkerTeam team(topology, kTeam);
  CountFactory counts(kTeam);
  DMpsmReport report;
  auto info =
      DMpsmJoin(options).Execute(team, dataset.r, dataset.s, counts, &report);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(counts.Result(), expected);
  EXPECT_GT(report.pool.writebacks, 0u);

  uint64_t spooled_pages = 0;
  for (const Relation* relation : {&dataset.r, &dataset.s}) {
    for (uint32_t c = 0; c < relation->num_chunks(); ++c) {
      spooled_pages +=
          bits::CeilDiv(relation->chunk(c).size, options.tuples_per_page);
    }
  }
  // The default pool has frame headroom beyond the spooled page count,
  // so appenders should (almost) never wait for a frame: far below the
  // device time a blocking spool would spend.
  EXPECT_LT(report.spool_write_stall_ns * 2,
            spooled_pages * options.io_delay_us * 1000);
}

TEST(DMpsmTest, RejectsInvalidOptions) {
  const auto topology = numa::Topology::Simulated(2, 4);
  WorkerTeam team(topology, 4);
  workload::DatasetSpec spec;
  spec.r_tuples = 100;
  const auto dataset = workload::Generate(topology, 4, spec);

  DMpsmOptions options;
  options.pool_pages = 0;
  CountFactory counts(4);
  auto info =
      DMpsmJoin(options).Execute(team, dataset.r, dataset.s, counts);
  EXPECT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mpsm

// Infrastructure: NUMA topology + arenas, barrier, worker team,
// counters, relations and runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>

#include "numa/arena.h"
#include "numa/topology.h"
#include "parallel/barrier.h"
#include "parallel/counters.h"
#include "parallel/worker_team.h"
#include "storage/relation.h"
#include "storage/run.h"

namespace mpsm {
namespace {

// ---------------------------------------------------------- topology

TEST(TopologyTest, SimulatedLayout) {
  const auto topo = numa::Topology::Simulated(4, 8);
  EXPECT_EQ(topo.num_nodes(), 4u);
  EXPECT_EQ(topo.num_cores(), 32u);
  EXPECT_TRUE(topo.simulated());
  for (uint32_t core = 0; core < 32; ++core) {
    EXPECT_EQ(topo.NodeOfCore(core), core / 8);
  }
  for (uint32_t node = 0; node < 4; ++node) {
    EXPECT_EQ(topo.CoresOfNode(node).size(), 8u);
  }
}

TEST(TopologyTest, DistanceMatrix) {
  const auto topo = numa::Topology::Simulated(3, 2, 25);
  for (uint32_t a = 0; a < 3; ++a) {
    for (uint32_t b = 0; b < 3; ++b) {
      EXPECT_EQ(topo.Distance(a, b), a == b ? 10u : 25u);
      EXPECT_EQ(topo.IsLocal(a, b), a == b);
    }
  }
}

TEST(TopologyTest, HyPer1MatchesFigure11) {
  const auto topo = numa::Topology::HyPer1();
  EXPECT_EQ(topo.num_nodes(), 4u);
  EXPECT_EQ(topo.num_cores(), 32u);
}

TEST(TopologyTest, WorkerPlacementSpreadsAcrossNodes) {
  const auto topo = numa::Topology::Simulated(4, 8);
  // The first 4 workers land on 4 distinct nodes (socket-major).
  std::set<numa::NodeId> nodes;
  for (uint32_t w = 0; w < 4; ++w) {
    nodes.insert(topo.NodeForWorker(w, 32));
  }
  EXPECT_EQ(nodes.size(), 4u);
  // 32 workers use all 32 distinct cores.
  std::set<uint32_t> cores;
  for (uint32_t w = 0; w < 32; ++w) {
    cores.insert(topo.CoreForWorker(w, 32));
  }
  EXPECT_EQ(cores.size(), 32u);
}

// Team 0 is the standalone placement: socket-major round robin with no
// offset, identical whatever the team size.
TEST(TopologyTest, TeamZeroKeepsStandalonePlacement) {
  for (const auto& topo :
       {numa::Topology::Simulated(1, 4), numa::Topology::Simulated(4, 8),
        numa::Topology::HyPer1()}) {
    const uint32_t nodes = topo.num_nodes();
    for (uint32_t team_size : {1u, 2u, 4u, 32u, 64u}) {
      for (uint32_t w = 0; w < team_size; ++w) {
        const auto& cores = topo.CoresOfNode(w % nodes);
        EXPECT_EQ(topo.CoreForWorker(w, team_size, 0),
                  cores[(w / nodes) % cores.size()])
            << topo.ToString() << " team " << team_size << " worker " << w;
        EXPECT_EQ(topo.CoreForWorker(w, team_size),
                  topo.CoreForWorker(w, team_size, 0));
      }
    }
  }
}

TEST(TopologyTest, TwoTeamsOfTwoGetDisjointCores) {
  const auto topo = numa::Topology::Simulated(1, 4);
  std::set<uint32_t> team0;
  std::set<uint32_t> team1;
  for (uint32_t w = 0; w < 2; ++w) {
    team0.insert(topo.CoreForWorker(w, 2, 0));
    team1.insert(topo.CoreForWorker(w, 2, 1));
  }
  EXPECT_EQ(team0, (std::set<uint32_t>{0, 1}));
  EXPECT_EQ(team1, (std::set<uint32_t>{2, 3}));
}

TEST(TopologyTest, TeamOffsetKeepsNodesAndCoversTheMachine) {
  const auto topo = numa::Topology::Simulated(4, 8);
  std::set<uint32_t> cores;
  for (uint32_t team = 0; team < 8; ++team) {
    for (uint32_t w = 0; w < 4; ++w) {
      const uint32_t core = topo.CoreForWorker(w, 4, team);
      EXPECT_EQ(topo.NodeOfCore(core), topo.NodeForWorker(w, 4))
          << "team " << team << " worker " << w;
      EXPECT_TRUE(cores.insert(core).second)
          << "core " << core << " placed twice";
    }
  }
  EXPECT_EQ(cores.size(), 32u);
}

TEST(TopologyTest, TeamPlacementWrapsWhenTeamsExceedCores) {
  // 3 teams x 3 workers on 4 cores, and 5 teams x 2 workers on 2x2:
  // placement wraps within each worker's node and stays in range.
  for (const auto& [topo, team_size, teams] :
       {std::tuple{numa::Topology::Simulated(1, 4), 3u, 3u},
        std::tuple{numa::Topology::Simulated(2, 2), 2u, 5u}}) {
    std::set<uint32_t> cores;
    for (uint32_t team = 0; team < teams; ++team) {
      for (uint32_t w = 0; w < team_size; ++w) {
        const uint32_t core = topo.CoreForWorker(w, team_size, team);
        ASSERT_LT(core, topo.num_cores());
        EXPECT_EQ(topo.NodeOfCore(core), topo.NodeForWorker(w, team_size));
        cores.insert(core);
      }
    }
    EXPECT_EQ(cores.size(), topo.num_cores());
  }
}

TEST(TopologyTest, ProbeNeverFails) {
  const auto topo = numa::Topology::Probe();
  EXPECT_GE(topo.num_nodes(), 1u);
  EXPECT_GE(topo.num_cores(), 1u);
  EXPECT_FALSE(topo.ToString().empty());
}

// ------------------------------------------------------------- arena

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  numa::Arena arena(2, /*block_bytes=*/4096);
  EXPECT_EQ(arena.node(), 2u);

  auto* a = arena.AllocateArray<Tuple>(100);
  auto* b = arena.AllocateArray<Tuple>(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
  // Disjoint: writing one must not clobber the other.
  std::memset(a, 0xAA, 100 * sizeof(Tuple));
  std::memset(b, 0x55, 100 * sizeof(Tuple));
  EXPECT_EQ(reinterpret_cast<unsigned char*>(a)[99 * 16], 0xAA);
  EXPECT_EQ(reinterpret_cast<unsigned char*>(b)[0], 0x55);
}

TEST(ArenaTest, GrowsBeyondBlockSize) {
  numa::Arena arena(0, /*block_bytes=*/1024);
  // Allocation larger than the block must still succeed.
  auto* big = arena.AllocateArray<Tuple>(10000);
  big[9999] = Tuple{1, 2};
  EXPECT_EQ(big[9999].key, 1u);
  EXPECT_GE(arena.bytes_allocated(), 10000 * sizeof(Tuple));
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
}

TEST(ArenaTest, ManySmallAllocations) {
  numa::Arena arena(1, 4096);
  std::vector<uint64_t*> pointers;
  for (int i = 0; i < 1000; ++i) {
    auto* p = arena.AllocateArray<uint64_t>(7);
    *p = i;
    pointers.push_back(p);
  }
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(*pointers[i], uint64_t(i));
}

TEST(NodeArenasTest, OneArenaPerNode) {
  const auto topo = numa::Topology::Simulated(4, 2);
  numa::NodeArenas arenas(topo);
  for (uint32_t node = 0; node < 4; ++node) {
    EXPECT_EQ(arenas.OfNode(node).node(), node);
  }
  EXPECT_EQ(arenas.ForWorker(1, 8).node(), topo.NodeForWorker(1, 8));
}

// ----------------------------------------------------------- barrier

TEST(BarrierTest, SingleParticipant) {
  Barrier barrier(1);
  EXPECT_TRUE(barrier.Wait());
  EXPECT_TRUE(barrier.Wait());  // reusable
}

TEST(BarrierTest, ExactlyOneSerialThreadPerRound) {
  constexpr uint32_t kThreads = 8;
  constexpr int kRounds = 50;
  Barrier barrier(kThreads);
  std::atomic<int> serial_count{0};
  std::atomic<int> phase_check{0};

  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        phase_check.fetch_add(1);
        if (barrier.Wait()) serial_count.fetch_add(1);
        // All kThreads arrivals of this round must be visible.
        EXPECT_GE(phase_check.load(), (round + 1) * int(kThreads));
        barrier.Wait();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(serial_count.load(), kRounds);
}

// ---------------------------------------------------------- counters

TEST(CountersTest, ClassifiedTraffic) {
  PerfCounters c;
  c.CountRead(true, true, 100);
  c.CountRead(false, true, 200);
  c.CountRead(true, false, 300);
  c.CountRead(false, false, 400);
  c.CountWrite(true, true, 10);
  c.CountWrite(false, false, 20);
  EXPECT_EQ(c.bytes_read_local_seq, 100u);
  EXPECT_EQ(c.bytes_read_remote_seq, 200u);
  EXPECT_EQ(c.bytes_read_local_rand, 300u);
  EXPECT_EQ(c.bytes_read_remote_rand, 400u);
  EXPECT_EQ(c.bytes_written_local_seq, 10u);
  EXPECT_EQ(c.bytes_written_remote_rand, 20u);
  EXPECT_EQ(c.TotalBytes(), 1030u);
}

TEST(CountersTest, SortWorkAccumulates) {
  PerfCounters c;
  c.CountSort(0);  // no-op
  c.CountSort(1024);
  EXPECT_EQ(c.sort_tuples, 1024u);
  EXPECT_EQ(c.sort_tuple_logs, 1024u * 10);
  c.CountSort(1);
  EXPECT_EQ(c.sort_tuples, 1025u);
}

TEST(CountersTest, AggregationAndPhaseNames) {
  WorkerStats a, b;
  a.phase_seconds[kPhaseJoin] = 1.5;
  a.phase_counters[kPhaseJoin].output_tuples = 10;
  b.phase_seconds[kPhaseJoin] = 0.5;
  b.phase_counters[kPhaseSortPublic].sort_tuples = 7;
  a += b;
  EXPECT_DOUBLE_EQ(a.phase_seconds[kPhaseJoin], 2.0);
  EXPECT_DOUBLE_EQ(a.TotalSeconds(), 2.0);
  EXPECT_EQ(a.TotalCounters().output_tuples, 10u);
  EXPECT_EQ(a.TotalCounters().sort_tuples, 7u);
  for (uint32_t p = 0; p < kNumJoinPhases; ++p) {
    EXPECT_STRNE(JoinPhaseName(static_cast<JoinPhase>(p)), "unknown");
  }
}

// -------------------------------------------------------- worker team

TEST(WorkerTeamTest, RunsAllWorkersWithCorrectContext) {
  const auto topo = numa::Topology::Simulated(4, 4);
  WorkerTeam team(topo, 8);
  std::vector<uint32_t> seen(8, 0);
  std::vector<numa::NodeId> nodes(8, 99);
  team.Run([&](WorkerContext& ctx) {
    seen[ctx.worker_id] = 1;
    nodes[ctx.worker_id] = ctx.node;
    EXPECT_EQ(ctx.team_size, 8u);
    EXPECT_EQ(ctx.arena->node(), ctx.node);
    EXPECT_EQ(ctx.topology, &team.topology());
  });
  EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0u), 8u);
  for (uint32_t w = 0; w < 8; ++w) {
    EXPECT_EQ(nodes[w], topo.NodeForWorker(w, 8));
  }
}

TEST(WorkerTeamTest, LanePlacesWorkersOnItsOwnCores) {
  const auto topo = numa::Topology::Simulated(2, 4);
  // Lane 0 (standalone) and lane 1 share the standalone placement;
  // lane L places as topology team L - 1.
  for (uint32_t lane : {0u, 1u, 2u, 3u}) {
    WorkerTeam team(topo, 4, lane);
    EXPECT_EQ(team.lane(), lane);
    std::vector<uint32_t> cores(4, 99);
    team.Run([&](WorkerContext& ctx) { cores[ctx.worker_id] = ctx.core; });
    for (uint32_t w = 0; w < 4; ++w) {
      const uint32_t expected =
          topo.CoreForWorker(w, 4, lane == 0 ? 0 : lane - 1);
      EXPECT_EQ(cores[w], expected) << "lane " << lane << " worker " << w;
      EXPECT_EQ(team.core(w), expected);
    }
  }
}

TEST(WorkerTeamTest, PhaseScopeAccumulatesTime) {
  const auto topo = numa::Topology::Simulated(1, 4);
  WorkerTeam team(topo, 4);
  team.Run([&](WorkerContext& ctx) {
    {
      PhaseScope scope(ctx, kPhaseSortPublic);
      volatile uint64_t sink = 0;
      for (int i = 0; i < 100000; ++i) sink = sink + i;
    }
    ctx.Counters(kPhaseJoin).output_tuples = ctx.worker_id;
  });
  for (uint32_t w = 0; w < 4; ++w) {
    EXPECT_GT(team.stats(w).phase_seconds[kPhaseSortPublic], 0.0);
    EXPECT_EQ(team.stats(w).phase_counters[kPhaseJoin].output_tuples, w);
  }
  const auto aggregate = team.AggregateStats();
  EXPECT_EQ(aggregate.TotalCounters().output_tuples, 0u + 1 + 2 + 3);
  EXPECT_GT(team.CriticalPathSeconds(), 0.0);
}

TEST(WorkerTeamTest, StatsResetBetweenRuns) {
  const auto topo = numa::Topology::Simulated(1, 2);
  WorkerTeam team(topo, 2);
  team.Run([](WorkerContext& ctx) {
    ctx.Counters(kPhaseJoin).output_tuples = 5;
  });
  team.Run([](WorkerContext&) {});
  EXPECT_EQ(team.AggregateStats().TotalCounters().output_tuples, 0u);
}

TEST(WorkerTeamTest, BarrierSynchronizesPhases) {
  const auto topo = numa::Topology::Simulated(2, 2);
  WorkerTeam team(topo, 4);
  std::atomic<int> phase1_done{0};
  std::atomic<bool> violated{false};
  team.Run([&](WorkerContext& ctx) {
    phase1_done.fetch_add(1);
    ctx.barrier->Wait();
    if (phase1_done.load() != 4) violated = true;
  });
  EXPECT_FALSE(violated);
}

// ------------------------------------------------ relations and runs

TEST(RelationTest, ChunkSizesBalanced) {
  const auto topo = numa::Topology::Simulated(2, 2);
  const auto rel = Relation::Allocate(topo, 10, 4);
  EXPECT_EQ(rel.size(), 10u);
  EXPECT_EQ(rel.num_chunks(), 4u);
  // 10 = 3 + 3 + 2 + 2.
  EXPECT_EQ(rel.chunk(0).size, 3u);
  EXPECT_EQ(rel.chunk(1).size, 3u);
  EXPECT_EQ(rel.chunk(2).size, 2u);
  EXPECT_EQ(rel.chunk(3).size, 2u);
  size_t total = 0;
  for (uint32_t c = 0; c < 4; ++c) total += rel.chunk(c).size;
  EXPECT_EQ(total, 10u);
}

TEST(RelationTest, GlobalAtCrossesChunks) {
  const auto topo = numa::Topology::Simulated(1, 1);
  auto rel = Relation::Allocate(topo, 10, 3);
  for (uint32_t c = 0, v = 0; c < 3; ++c) {
    for (size_t i = 0; i < rel.chunk(c).size; ++i, ++v) {
      rel.chunk(c).data[i] = Tuple{v, v};
    }
  }
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(rel.At(i).key, i);
  EXPECT_EQ(rel.ToVector().size(), 10u);
}

TEST(RelationTest, FromVector) {
  auto rel = Relation::FromVector({{1, 2}, {3, 4}});
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.num_chunks(), 1u);
  EXPECT_EQ(rel.At(1).key, 3u);
}

TEST(RunTest, SortedCheckAndTotals) {
  std::vector<Tuple> sorted = {{1, 0}, {2, 0}, {2, 0}};
  std::vector<Tuple> unsorted = {{2, 0}, {1, 0}};
  ::mpsm::Run a{sorted.data(), sorted.size(), 0};
  ::mpsm::Run b{unsorted.data(), unsorted.size(), 1};
  EXPECT_TRUE(IsSortedRun(a));
  EXPECT_FALSE(IsSortedRun(b));
  EXPECT_EQ(a.MinKey(), 1u);
  EXPECT_EQ(a.MaxKey(), 2u);
  EXPECT_EQ(TotalSize({a, b}), 5u);
}

}  // namespace
}  // namespace mpsm

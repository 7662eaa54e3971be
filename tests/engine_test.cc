// Engine front door: planner golden decisions, front-door validation,
// session reuse, and the engine round-trip matrix (every planned
// algorithm must reproduce the reference join for every JoinKind it
// supports).
#include <gtest/gtest.h>

#include <string>

#include "baseline/reference_join.h"
#include "core/consumers.h"
#include "engine/engine.h"
#include "io/io_backend.h"
#include "numa/topology.h"
#include "workload/generator.h"
#include "workload/query.h"

namespace mpsm::engine {
namespace {

numa::Topology Topo() { return numa::Topology::Simulated(4, 8); }

/// A uniform FK dataset big enough to clear the tiny-input rule.
workload::Dataset MediumDataset(const numa::Topology& topology,
                                uint32_t chunks) {
  workload::DatasetSpec spec;
  spec.r_tuples = 1u << 16;
  spec.multiplicity = 2.0;
  spec.seed = 7;
  return workload::Generate(topology, chunks, spec);
}

// ----------------------------------------------------- planner golden

TEST(PlannerGoldenTest, InMemoryUniformChoosesPMpsm) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 8);
  EngineOptions options;
  options.workers = 8;
  Engine engine(topology, options);

  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  auto plan = engine.Plan(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->algorithm, Algorithm::kPMpsm);
  EXPECT_GT(plan->predicted_seconds, 0.0);
  // The estimate is near-uniform and the candidate list is complete.
  EXPECT_LT(plan->inputs.skew, 2.0);
  EXPECT_EQ(plan->candidates.size(), kNumAlgorithms);
  // Planning must not spawn worker threads.
  EXPECT_EQ(engine.team(), nullptr);
  EXPECT_EQ(engine.stats().team_spawns, 0u);
}

TEST(PlannerGoldenTest, MemoryBudgetSpillsToDMpsm) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 8);
  EngineOptions options;
  options.workers = 8;
  Engine engine(topology, options);

  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  // Working set = 2 * (|R| + |S|) * 16 bytes ~ 6.3 MB; budget 1 MB.
  spec.memory_budget_bytes = 1u << 20;
  auto plan = engine.Plan(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->algorithm, Algorithm::kDMpsm);
  // Budget-driven buffer pool: half the budget.
  EXPECT_EQ(plan->dmpsm.pool_budget_bytes, spec.memory_budget_bytes / 2);
  // In-memory candidates are marked infeasible, with the reason.
  const auto& pmpsm = plan->candidates[static_cast<size_t>(Algorithm::kPMpsm)];
  EXPECT_FALSE(pmpsm.feasible);
  EXPECT_NE(pmpsm.note.find("budget"), std::string::npos);
}

TEST(PlannerGoldenTest, GenerousBudgetStaysInMemory) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 8);
  EngineOptions options;
  options.workers = 8;
  Engine engine(topology, options);

  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.memory_budget_bytes = uint64_t{1} << 30;
  auto plan = engine.Plan(spec);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, Algorithm::kPMpsm);
}

TEST(PlannerGoldenTest, TinyInputsChooseWisconsin) {
  const auto topology = Topo();
  workload::DatasetSpec spec;
  spec.r_tuples = 1000;
  spec.multiplicity = 2.0;
  const auto dataset = workload::Generate(topology, 4, spec);

  EngineOptions options;
  options.workers = 4;
  Engine engine(topology, options);
  JoinSpec join;
  join.r = &dataset.r;
  join.s = &dataset.s;
  auto plan = engine.Plan(join);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, Algorithm::kWisconsin);
  EXPECT_NE(plan->rationale.find("tiny"), std::string::npos);
}

TEST(PlannerGoldenTest, AsyncIoBackendPricesDMpsmCheaperThanSync) {
  // The machine model charges the spill device at depth-scaled
  // bandwidth and overlaps it with merge compute for async backends;
  // the sync baseline serializes depth-1 reads behind the compute.
  PlannerInputs in;
  in.r_tuples = uint64_t{1} << 24;
  in.s_tuples = uint64_t{1} << 26;
  in.team_size = 32;
  in.numa_nodes = 4;
  const auto machine = sim::MachineModel::HyPer1();
  const MpsmOptions mpsm;

  disk::DMpsmOptions sync_options;
  sync_options.io_backend = io::IoBackendKind::kSync;
  disk::DMpsmOptions async_options;
  async_options.io_backend = io::IoBackendKind::kThreadpool;
  async_options.io_queue_depth = 16;

  const auto sync_cost = Planner::EstimateCost(Algorithm::kDMpsm, in,
                                               machine, mpsm, sync_options);
  const auto async_cost = Planner::EstimateCost(Algorithm::kDMpsm, in,
                                                machine, mpsm, async_options);
  EXPECT_LT(async_cost.total_seconds, sync_cost.total_seconds);
  // The whole gap is the join phase, where the reads happen.
  EXPECT_LT(async_cost.phase_seconds[kPhaseJoin],
            sync_cost.phase_seconds[kPhaseJoin]);
  EXPECT_DOUBLE_EQ(async_cost.phase_seconds[kPhaseSortPublic],
                   sync_cost.phase_seconds[kPhaseSortPublic]);
}

TEST(PlannerGoldenTest, ResolvesIoKnobsIntoDMpsmOptions) {
  EngineOptions options;
  options.dmpsm.io_backend = io::IoBackendKind::kAuto;
  options.dmpsm.io_queue_depth = 4;
  options.dmpsm.io_batch_pages = 2;
  const auto resolved = ResolveDMpsmOptions(options, /*budget=*/0);
  EXPECT_EQ(resolved.io_backend, io::IoBackendKind::kAuto);
  EXPECT_EQ(resolved.io_queue_depth, 4u);
  EXPECT_EQ(resolved.io_batch_pages, 2u);
}

TEST(PlannerGoldenTest, DefaultOptionsPlanWithTheAlgorithmDefaults) {
  // A default session plans with each algorithm's own default option
  // struct; only the per-query fields (the JoinKind, D-MPSM's
  // budget-derived pool) differ from it.
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 8);
  EngineOptions options;
  options.workers = 8;
  Engine engine(topology, options);

  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.kind = JoinKind::kLeftSemi;
  auto plan = engine.Plan(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  MpsmOptions expected_mpsm;
  expected_mpsm.kind = JoinKind::kLeftSemi;
  EXPECT_EQ(plan->mpsm, expected_mpsm);
  EXPECT_EQ(plan->dmpsm, disk::DMpsmOptions{});
  EXPECT_EQ(plan->radix, baseline::RadixJoinOptions{});

  spec.kind = JoinKind::kInner;
  spec.memory_budget_bytes = 1u << 20;
  plan = engine.Plan(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->algorithm, Algorithm::kDMpsm);
  EXPECT_EQ(plan->mpsm, MpsmOptions{});
  disk::DMpsmOptions expected_dmpsm;
  expected_dmpsm.pool_budget_bytes = spec.memory_budget_bytes / 2;
  EXPECT_EQ(plan->dmpsm, expected_dmpsm);
  EXPECT_EQ(plan->radix, baseline::RadixJoinOptions{});
}

TEST(PlannerGoldenTest, RunBenchmarkQueryForwardsEveryMpsmKnob) {
  // Every MpsmOptions field, set off its default, must reach the plan
  // of both in-memory MPSM variants unchanged.
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 4);
  EngineOptions session;
  session.workers = 4;
  Engine engine(topology, session);

  MpsmOptions options;
  options.kind = JoinKind::kLeftSemi;
  options.radix_bits = 12;
  options.equi_height_factor = 2;
  options.start_search = StartSearch::kBinary;
  options.cost_balanced_splitters = false;
  options.phase_barriers = false;
  options.scheduler = SchedulerKind::kStatic;
  options.morsel_tuples = 1u << 12;
  options.sort = sort::SortKind::kSinglePassRadix;
  options.sort_config.repartition_threshold = 1024;
  options.sort_config.max_passes = 2;
  options.sort_config.simd = simd::SimdKind::kScalar;
  options.scatter = ScatterKind::kWriteCombining;
  options.simd_scatter_digits = false;
  options.merge_prefetch_distance = 0;
  options.merge_skip_private_prefix = false;
  options.simd = simd::SimdKind::kScalar;
  for (const Algorithm algorithm : {Algorithm::kPMpsm, Algorithm::kBMpsm}) {
    auto result = workload::RunBenchmarkQuery(algorithm, engine, dataset.r,
                                              dataset.s, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->plan().mpsm, options) << AlgorithmName(algorithm);
  }

  // D-MPSM runs on the session's own knobs, as through Engine directly.
  options.kind = JoinKind::kInner;
  auto spilled = workload::RunBenchmarkQuery(Algorithm::kDMpsm, engine,
                                             dataset.r, dataset.s, options);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_EQ(spilled->plan().dmpsm, session.dmpsm);
}

TEST(PlannerGoldenTest, RejectsBadIoKnobsAtTheFrontDoor) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 8);
  EngineOptions options;
  options.workers = 8;
  options.dmpsm.io_queue_depth = 0;
  Engine engine(topology, options);
  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  auto plan = engine.Plan(spec);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlannerGoldenTest, NonInnerJoinsStayInTheMpsmFamily) {
  const auto topology = Topo();
  workload::DatasetSpec spec;
  spec.r_tuples = 1000;  // tiny on purpose: rule 3 precedes rule 4
  spec.multiplicity = 2.0;
  const auto dataset = workload::Generate(topology, 4, spec);

  EngineOptions options;
  options.workers = 4;
  Engine engine(topology, options);
  for (const JoinKind kind :
       {JoinKind::kLeftSemi, JoinKind::kLeftAnti, JoinKind::kLeftOuter}) {
    JoinSpec join;
    join.r = &dataset.r;
    join.s = &dataset.s;
    join.kind = kind;
    auto plan = engine.Plan(join);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(plan->algorithm == Algorithm::kPMpsm ||
                plan->algorithm == Algorithm::kBMpsm)
        << AlgorithmName(plan->algorithm);
  }
}

TEST(PlannerGoldenTest, SkewedDataRaisesTheSkewEstimate) {
  const auto topology = Topo();
  workload::DatasetSpec spec;
  spec.r_tuples = 1u << 16;
  spec.multiplicity = 1.0;
  spec.r_distribution = workload::KeyDistribution::kSkewHighEnd;
  spec.s_distribution = workload::KeyDistribution::kSkewLowEnd;
  spec.s_mode = workload::SKeyMode::kIndependent;
  const auto dataset = workload::Generate(topology, 4, spec);
  const double skew = Planner::EstimateSkew(dataset.r, dataset.s);
  EXPECT_GT(skew, 2.0);

  const auto uniform = MediumDataset(topology, 4);
  EXPECT_LT(Planner::EstimateSkew(uniform.r, uniform.s), 2.0);
}

TEST(PlannerGoldenTest, ForcedAlgorithmWinsAndPlanExplains) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 8);
  EngineOptions options;
  options.workers = 8;
  Engine engine(topology, options);

  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.algorithm = Algorithm::kBMpsm;
  auto plan = engine.Plan(spec);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, Algorithm::kBMpsm);
  EXPECT_NE(plan->rationale.find("forced"), std::string::npos);
  // The EXPLAIN dump names the chosen algorithm.
  EXPECT_NE(plan->ToString().find("b-mpsm"), std::string::npos);
}

TEST(PlannerGoldenTest, SpillWithNonInnerKindIsNotSupported) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 8);
  EngineOptions options;
  options.workers = 8;
  Engine engine(topology, options);

  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.kind = JoinKind::kLeftOuter;
  spec.memory_budget_bytes = 1u << 20;
  auto plan = engine.Plan(spec);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kNotSupported);
}

// ------------------------------------------------ front-door validation

TEST(EngineValidationTest, RejectsUndersizedRadixBits) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 16);
  EngineOptions options;
  options.workers = 16;
  options.mpsm.radix_bits = 3;  // < ceil(log2(16)) = 4
  Engine engine(topology, options);

  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  auto plan = engine.Plan(spec);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("radix_bits"), std::string::npos);
}

TEST(EngineValidationTest, RejectsZeroPoolPagesOverride) {
  disk::DMpsmOptions options;
  options.pool_pages = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.pool_pages = 1;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(EngineValidationTest, RejectsIllegalRadixJoinBits) {
  baseline::RadixJoinOptions options;
  options.pass1_bits = 0;
  options.pass2_bits = 4;  // pass2 without pass1
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.pass1_bits = 20;  // > 16
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options = {};
  EXPECT_TRUE(options.Validate().ok());
}

TEST(EngineValidationTest, RejectsBadMpsmKnobsThroughTheEngine) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 4);
  EngineOptions options;
  options.workers = 4;
  options.mpsm.equi_height_factor = 0;
  Engine engine(topology, options);

  CountFactory counts(4);
  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.consumers = &counts;
  auto report = engine.Execute(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineValidationTest, RejectsMismatchedChunking) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 4);
  EngineOptions options;
  options.workers = 8;  // != the inputs' 4 chunks
  Engine engine(topology, options);

  CountFactory counts(8);
  JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.consumers = &counts;
  auto report = engine.Execute(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ session reuse

TEST(EngineSessionTest, ConsecutiveQueriesReuseTeamAndTopology) {
  const auto topology = Topo();
  const auto dataset = MediumDataset(topology, 8);
  EngineOptions options;
  options.workers = 8;
  Engine engine(topology, options);
  // Injected topology: the engine never probes.
  EXPECT_EQ(engine.stats().topology_probes, 0u);

  for (int query = 0; query < 3; ++query) {
    CountFactory counts(8);
    JoinSpec spec;
    spec.r = &dataset.r;
    spec.s = &dataset.s;
    spec.consumers = &counts;
    auto report = engine.Execute(spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(counts.Result(), 0u);
  }
  EXPECT_EQ(engine.stats().queries_executed, 3u);
  EXPECT_EQ(engine.stats().plans_created, 3u);
  EXPECT_EQ(engine.stats().team_spawns, 1u);
}

TEST(EngineSessionTest, AutoTeamSizeFollowsChunkingAndRespawnsOnce) {
  const auto topology = Topo();
  EngineOptions options;  // workers = 0: size from the inputs
  Engine engine(topology, options);

  const auto four = MediumDataset(topology, 4);
  const auto eight = MediumDataset(topology, 8);
  auto run = [&](const workload::Dataset& dataset, uint32_t chunks) {
    CountFactory counts(chunks);
    JoinSpec spec;
    spec.r = &dataset.r;
    spec.s = &dataset.s;
    spec.consumers = &counts;
    ASSERT_TRUE(engine.Execute(spec).ok());
  };
  run(four, 4);
  run(four, 4);
  EXPECT_EQ(engine.stats().team_spawns, 1u);
  run(eight, 8);  // different chunking: one re-spawn
  EXPECT_EQ(engine.stats().team_spawns, 2u);
  EXPECT_EQ(engine.team()->size(), 8u);
}

// ------------------------------------------------- round-trip matrix

struct MatrixCase {
  Algorithm algorithm;
  JoinKind kind;
  io::IoBackendKind io_backend;
};

std::string MatrixName(const testing::TestParamInfo<MatrixCase>& info) {
  std::string name = std::string(AlgorithmName(info.param.algorithm)) + "_" +
                     JoinKindName(info.param.kind) + "_" +
                     io::IoBackendKindName(info.param.io_backend);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class EngineMatrixTest : public testing::TestWithParam<MatrixCase> {};

TEST_P(EngineMatrixTest, MatchesReferenceJoin) {
  const auto [algorithm, kind, io_backend] = GetParam();
  if (io_backend == io::IoBackendKind::kUring && !io::UringSupported()) {
    GTEST_SKIP() << "io_uring unavailable on this host";
  }
  const auto topology = Topo();
  constexpr uint32_t kWorkers = 4;

  workload::DatasetSpec spec;
  spec.r_tuples = 6000;
  spec.multiplicity = 1.5;
  spec.key_domain = 15000;  // duplicates and unmatched tuples exist
  spec.s_mode = workload::SKeyMode::kIndependent;
  spec.seed = 321;
  const auto dataset = workload::Generate(topology, kWorkers, spec);

  EngineOptions options;
  options.workers = kWorkers;
  options.dmpsm.io_backend = io_backend;
  Engine engine(topology, options);

  CountFactory counts(kWorkers);
  JoinSpec join;
  join.r = &dataset.r;
  join.s = &dataset.s;
  join.kind = kind;
  join.consumers = &counts;
  join.algorithm = algorithm;

  auto report = engine.Execute(join);
  if (!SupportsKind(algorithm, kind)) {
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kNotSupported);
    return;
  }
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->plan.algorithm, algorithm);

  CountFactory reference(1);
  const uint64_t expected =
      baseline::ReferenceJoin(dataset.r.ToVector(), dataset.s.ToVector(),
                              kind, reference.ConsumerForWorker(0));
  EXPECT_EQ(counts.Result(), expected);
  EXPECT_EQ(report->info.output_tuples, expected);

  // Variant-specific diagnostics land in the unified report.
  EXPECT_EQ(report->pmpsm.has_value(), algorithm == Algorithm::kPMpsm);
  EXPECT_EQ(report->dmpsm.has_value(), algorithm == Algorithm::kDMpsm);
}

std::vector<MatrixCase> AllMatrixCases() {
  // The 5x4 algorithm x JoinKind matrix under every io backend (the
  // backend only steers the D-MPSM spill path, but the whole matrix
  // must stay green regardless of the session-level knob).
  std::vector<MatrixCase> cases;
  for (const io::IoBackendKind backend :
       {io::IoBackendKind::kSync, io::IoBackendKind::kThreadpool,
        io::IoBackendKind::kUring}) {
    for (const Algorithm a :
         {Algorithm::kPMpsm, Algorithm::kBMpsm, Algorithm::kDMpsm,
          Algorithm::kRadix, Algorithm::kWisconsin}) {
      for (const JoinKind k : {JoinKind::kInner, JoinKind::kLeftSemi,
                               JoinKind::kLeftAnti, JoinKind::kLeftOuter}) {
        cases.push_back({a, k, backend});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, EngineMatrixTest,
                         testing::ValuesIn(AllMatrixCases()), MatrixName);

}  // namespace
}  // namespace mpsm::engine

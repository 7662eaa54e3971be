// The paper's benchmark query harness (§5.1):
//
//   SELECT max(R.payload + S.payload)
//   FROM R, S WHERE R.joinkey = S.joinkey
//
// One entry point runs the query with any of the implemented join
// algorithms, so tests and benches compare like for like. The harness
// runs exclusively through mpsm::engine::Engine (the library's front
// door): each call forces one algorithm onto the planner and returns
// the executed plan alongside the answer.
#pragma once

#include <optional>

#include "core/join_stats.h"
#include "core/join_types.h"
#include "engine/engine.h"
#include "storage/relation.h"
#include "util/status.h"

namespace mpsm::workload {

/// Join algorithms the harness can dispatch to — the engine's own
/// enum, so harness and engine can never drift apart.
using Algorithm = engine::Algorithm;

/// Harness display name; differs from engine::AlgorithmName only in
/// flagging the radix join as the Vectorwise stand-in ("radix (vw)").
const char* AlgorithmName(Algorithm algorithm);

/// The query's answer plus the engine's full execution report (plan,
/// measured phases, counters, variant diagnostics, trace when enabled
/// — serializable with report.ToJson()).
struct QueryResult {
  std::optional<uint64_t> max_sum;  // nullopt for an empty join
  engine::JoinReport report;

  /// Shorthands into the report.
  const JoinRunInfo& info() const { return report.info; }
  const engine::JoinPlan& plan() const { return report.plan; }
};

/// Runs the benchmark query on `engine`'s session. `r` plays the
/// private/build role, `s` the public/probe role (callers decide role
/// reversal by swapping). `options` replaces the session's
/// EngineOptions::mpsm, so it steers P-MPSM and B-MPSM; D-MPSM and the
/// hash baselines run on the session's own knobs.
Result<QueryResult> RunBenchmarkQuery(Algorithm algorithm,
                                      engine::Engine& engine,
                                      const Relation& r, const Relation& s,
                                      const MpsmOptions& options = {});

}  // namespace mpsm::workload

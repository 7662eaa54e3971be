#include "workload/query.h"

namespace mpsm::workload {

const char* AlgorithmName(Algorithm algorithm) {
  if (algorithm == Algorithm::kRadix) return "radix (vw)";
  return engine::AlgorithmName(algorithm);
}

Result<QueryResult> RunBenchmarkQuery(Algorithm algorithm,
                                      engine::Engine& engine,
                                      const Relation& r, const Relation& s,
                                      const MpsmOptions& options) {
  // Per-query knob override: the harness MpsmOptions steer P-MPSM and
  // B-MPSM; D-MPSM and the hash baselines keep the session's knobs.
  engine::EngineOptions query_options = engine.options();
  query_options.force_algorithm.reset();
  query_options.mpsm = options;

  engine::JoinSpec spec;
  spec.r = &r;
  spec.s = &s;
  spec.kind = options.kind;
  spec.algorithm = algorithm;
  spec.options = &query_options;

  MaxPayloadSumFactory consumers(engine.TeamSizeFor(spec));
  spec.consumers = &consumers;

  MPSM_ASSIGN_OR_RETURN(engine::JoinReport report, engine.Execute(spec));

  QueryResult result;
  result.max_sum = consumers.Result();
  result.report = std::move(report);
  return result;
}

}  // namespace mpsm::workload

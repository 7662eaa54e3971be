// Observability layer (src/obs): trace-sink ring invariants, the log
// histogram against a sorted-vector oracle, exporter goldens, the
// tracing-off zero-allocation guarantee, and per-query trace isolation
// under a concurrent JoinService sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/consumers.h"
#include "engine/engine.h"
#include "numa/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/worker_team.h"
#include "service/join_service.h"
#include "workload/generator.h"

namespace mpsm::obs {

// Allocation hooks for the zero-allocation check; external linkage so
// the replaced global operator new (bottom of this file) can see them.
// Counting is scoped to the guard so gtest's own allocations stay out.
std::atomic<uint64_t> g_test_allocations{0};
std::atomic<bool> g_count_allocations{false};

namespace {

// --- TraceSink ring invariants -------------------------------------

TEST(TraceSinkTest, SpansRecordInEndOrderAndNest) {
  TraceSink sink(/*query_id=*/7);
  ScopedTraceThread scope(&sink, "caller", 0);
  {
    TraceSpan outer(kCatQuery, "outer");
    {
      TraceSpan inner(kCatPhase, "inner");
      inner.arg1("morsels", 3);
    }
    TraceInstant(kCatIo, "tick", "pages", 1);
  }

  size_t count = 0;
  const TraceEvent* events = sink.RingEvents(0, &count);
  ASSERT_EQ(count, 3u);
  // RAII spans close inner-first: ring order is inner, tick, outer.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "tick");
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_EQ(events[0].arg1, 3u);
  EXPECT_EQ(events[1].dur_ns, 0);  // instant

  // Nesting: outer contains inner.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[2];
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.start_ns + outer.dur_ns, inner.start_ns + inner.dur_ns);
  EXPECT_GE(inner.dur_ns, 0);
  EXPECT_GE(outer.dur_ns, inner.dur_ns);
}

TEST(TraceSinkTest, EachThreadGetsItsOwnRing) {
  TraceSink sink(/*query_id=*/1);
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 32;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      ScopedTraceThread scope(&sink, "worker", static_cast<uint32_t>(t));
      for (int i = 0; i < kEventsPerThread; ++i) {
        TraceInstant(kCatMorsel, "morsel", "i", static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  ASSERT_EQ(sink.threads(), static_cast<size_t>(kThreads));
  EXPECT_EQ(sink.dropped_events(), 0u);
  for (int t = 0; t < kThreads; ++t) {
    size_t count = 0;
    const TraceEvent* events = sink.RingEvents(static_cast<size_t>(t), &count);
    ASSERT_EQ(count, static_cast<size_t>(kEventsPerThread));
    for (int i = 0; i < kEventsPerThread; ++i) {
      // Per-ring order is the thread's own program order.
      EXPECT_EQ(events[i].arg1, static_cast<uint64_t>(i));
    }
  }
  const TraceSummary summary = sink.Summary();
  EXPECT_EQ(summary.events, uint64_t{kThreads} * kEventsPerThread);
  EXPECT_EQ(summary.threads, static_cast<uint64_t>(kThreads));
}

TEST(TraceSinkTest, FullRingDropsInstantsButKeepsSpans) {
  TraceSinkOptions options;
  options.ring_events = kSpanReserve + 8;
  TraceSink sink(/*query_id=*/1, options);
  ScopedTraceThread scope(&sink, "caller", 0);
  // Flood with instants: at most ring_events - kSpanReserve may land.
  for (size_t i = 0; i < options.ring_events; ++i) {
    TraceInstant(kCatIo, "flood");
  }
  // Spans still record into the reserved tail.
  sink.RecordSpan(kCatPhase, "phase", 0, 100);
  EXPECT_GT(sink.dropped_events(), 0u);
  size_t count = 0;
  const TraceEvent* events = sink.RingEvents(0, &count);
  ASSERT_GT(count, 0u);
  EXPECT_STREQ(events[count - 1].name, "phase");
}

TEST(TraceSinkTest, ChromeJsonIsWellFormed) {
  TraceSink sink(/*query_id=*/42);
  {
    ScopedTraceThread scope(&sink, "caller", 0);
    TraceSpan span(kCatQuery, "query");
    TraceInstant(kCatPool, "pool.hit", "page", 9);
  }
  const std::string json = sink.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":42"), std::string::npos);
  EXPECT_NE(json.find("pool.hit"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness proxy; the CI leg
  // parses the real export with tools/check_trace.py).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// --- Histogram vs sorted-vector oracle -----------------------------

TEST(HistogramTest, QuantilesMatchOracleWithinBucketBounds) {
  std::mt19937_64 rng(7);
  // Log-uniform samples: exercise many octaves.
  std::vector<uint64_t> samples;
  Histogram histogram;
  for (int i = 0; i < 20000; ++i) {
    const int shift = static_cast<int>(rng() % 40);
    const uint64_t value = (uint64_t{1} << shift) + rng() % 1000;
    samples.push_back(value);
    histogram.Record(value);
  }
  std::sort(samples.begin(), samples.end());

  EXPECT_EQ(histogram.Count(), samples.size());
  for (const double q : {0.5, 0.95, 0.99}) {
    // Same 1-based rank the histogram uses.
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(q * static_cast<double>(samples.size()) +
                                 0.5));
    const uint64_t oracle = samples[rank - 1];
    const uint64_t estimate = histogram.Quantile(q);
    // The estimate is the upper edge of the oracle's bucket: never
    // below the oracle, and within one sub-bucket width (12.5%).
    EXPECT_GE(estimate, oracle) << "q=" << q;
    EXPECT_EQ(estimate,
              Histogram::BucketUpperEdge(Histogram::BucketOf(oracle)))
        << "q=" << q;
    EXPECT_LE(static_cast<double>(estimate),
              static_cast<double>(oracle) * 1.125 + 1.0)
        << "q=" << q;
  }
}

TEST(HistogramTest, BucketEdgesRoundTrip) {
  for (uint64_t value : {uint64_t{0}, uint64_t{1}, uint64_t{7}, uint64_t{8},
                         uint64_t{9}, uint64_t{100}, uint64_t{1000},
                         (uint64_t{1} << 20) + 17, (uint64_t{1} << 40) + 123}) {
    const size_t bucket = Histogram::BucketOf(value);
    EXPECT_LE(value, Histogram::BucketUpperEdge(bucket)) << value;
    if (bucket > 0) {
      EXPECT_GT(value, Histogram::BucketUpperEdge(bucket - 1)) << value;
    }
  }
}

// --- Exporter goldens on a local registry --------------------------

TEST(MetricsRegistryTest, PrometheusTextGolden) {
  MetricsRegistry registry;
  registry.counter("test_requests_total", "Requests served").Add(3);
  registry.gauge("test_queue_depth", "Waiting requests").Set(2);
  Histogram& h = registry.histogram("test_latency_ns", "Request latency");
  h.Record(100);
  h.Record(200);

  const std::string text = registry.ToPrometheusText();
  const std::string expected =
      "# HELP test_requests_total Requests served\n"
      "# TYPE test_requests_total counter\n"
      "test_requests_total 3\n"
      "# HELP test_queue_depth Waiting requests\n"
      "# TYPE test_queue_depth gauge\n"
      "test_queue_depth 2\n"
      "# HELP test_latency_ns Request latency\n"
      "# TYPE test_latency_ns summary\n"
      "test_latency_ns{quantile=\"0.5\"} 103\n"
      "test_latency_ns{quantile=\"0.95\"} 207\n"
      "test_latency_ns{quantile=\"0.99\"} 207\n"
      "test_latency_ns_sum 300\n"
      "test_latency_ns_count 2\n";
  EXPECT_EQ(text, expected);
}

TEST(MetricsRegistryTest, LabeledSeriesAndJson) {
  MetricsRegistry registry;
  registry.counter("test_lane_queries_total", "Per lane", {{"lane", "0"}})
      .Add(5);
  registry.counter("test_lane_queries_total", "Per lane", {{"lane", "1"}})
      .Add(7);
  // Idempotent registration: same name + labels, same instrument.
  registry.counter("test_lane_queries_total", "Per lane", {{"lane", "0"}})
      .Add(1);

  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("test_lane_queries_total{lane=\"0\"} 6"),
            std::string::npos);
  EXPECT_NE(text.find("test_lane_queries_total{lane=\"1\"} 7"),
            std::string::npos);
  // One HELP/TYPE header for the family, not one per series.
  EXPECT_EQ(text.find("# HELP test_lane_queries_total"),
            text.rfind("# HELP test_lane_queries_total"));

  const std::string json = registry.ToJson();
  EXPECT_EQ(json,
            "{\"test_lane_queries_total{lane=\\\"0\\\"}\":6,"
            "\"test_lane_queries_total{lane=\\\"1\\\"}\":7}");
}

// --- Tracing off: zero allocation, zero recording ------------------

TEST(TraceDisabledTest, RecordHelpersAllocateNothing) {
  ASSERT_EQ(CurrentTraceSink(), nullptr);
  const uint64_t before = g_test_allocations.load();
  g_count_allocations.store(true);
  for (int i = 0; i < 1000; ++i) {
    TraceSpan span(kCatPhase, "phase");
    span.arg1("k", 1);
    TraceInstant(kCatIo, "io.batch", "pages", 4);
    TraceSpanEndingNow(kCatIo, "io.stall", 100);
  }
  g_count_allocations.store(false);
  EXPECT_EQ(g_test_allocations.load(), before);
}

// --- Worker placement: report, EXPLAIN ANALYZE, pin failures -------

TEST(PlacementReportTest, WorkerCoresInJsonAndExplainAnalyze) {
  const auto topology = numa::Topology::Simulated(2, 4);
  workload::DatasetSpec data;
  data.r_tuples = 1u << 12;
  const auto dataset = workload::Generate(topology, 4, data);

  engine::Engine engine(topology);
  engine.set_lane(2);  // a second service lane: offset placement
  MaxPayloadSumFactory consumers(4);
  engine::JoinSpec spec;
  spec.r = &dataset.r;
  spec.s = &dataset.s;
  spec.consumers = &consumers;
  auto report = engine.Execute(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(report->info.worker_cores.size(), 4u);
  std::string json_cores = "\"worker_cores\":[";
  std::string explain_cores = "placement: worker cores";
  for (uint32_t w = 0; w < 4; ++w) {
    const uint32_t core = topology.CoreForWorker(w, 4, /*team_index=*/1);
    EXPECT_EQ(report->info.worker_cores[w], core);
    json_cores += (w == 0 ? "" : ",") + std::to_string(core);
    explain_cores += " " + std::to_string(core);
  }
  json_cores += "]";
  EXPECT_NE(report->ToJson().find(json_cores), std::string::npos)
      << report->ToJson();
  EXPECT_NE(report->ExplainAnalyzeString().find(explain_cores + "\n"),
            std::string::npos)
      << report->ExplainAnalyzeString();
}

TEST(PlacementReportTest, RefusedPinsAreCounted) {
  // Worker 1 lands on node 1's first core, id 1 << 16: no host this
  // runs on has that CPU, so the OS refuses the pin.
  const auto topology = numa::Topology::Simulated(2, 1u << 16);
  Counter& failures = MetricsRegistry::Global().counter(
      "mpsm_worker_pin_failures_total",
      "Worker threads the OS refused to pin to their placement core");
  const uint64_t before = failures.Value();
  WorkerTeam team(topology, 2);
  team.Run([](WorkerContext&) {});
  EXPECT_GE(failures.Value(), before + 1);
  EXPECT_NE(MetricsRegistry::Global().ToPrometheusText().find(
                "mpsm_worker_pin_failures_total"),
            std::string::npos);
}

// --- Per-query trace isolation under a concurrent service ----------

TEST(ServiceTraceTest, ConcurrentQueriesGetIsolatedTraces) {
  const auto topology = numa::Topology::Simulated(2, 4);

  workload::DatasetSpec data;
  data.r_tuples = 1u << 12;
  data.multiplicity = 2.0;
  const auto dataset = workload::Generate(topology, 4, data);

  service::ServiceOptions options;
  options.lanes = 2;
  options.engine.workers = 4;
  options.engine.trace = true;
  options.shared_sort = false;  // every query runs + traces on its own
  service::JoinService service(topology, options);

  constexpr int kQueries = 8;
  std::vector<std::unique_ptr<MaxPayloadSumFactory>> consumers;
  std::vector<service::JoinService::QueryId> ids;
  for (int i = 0; i < kQueries; ++i) {
    consumers.push_back(
        std::make_unique<MaxPayloadSumFactory>(options.engine.workers));
    engine::JoinSpec spec;
    spec.r = &dataset.r;
    spec.s = &dataset.s;
    spec.consumers = consumers.back().get();
    auto id = service.Submit(spec);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }

  std::vector<engine::JoinReport> reports;
  for (const auto id : ids) {
    auto report = service.Wait(id);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    reports.push_back(std::move(*report));
  }

  std::vector<uint64_t> seen_ids;
  for (const engine::JoinReport& report : reports) {
    ASSERT_NE(report.trace, nullptr);
    // The sink carries exactly this query's id (per-query sink =
    // isolation by construction; this asserts the service plumbed
    // distinct sinks, not one shared).
    EXPECT_EQ(report.trace->query_id(), report.query_id);
    seen_ids.push_back(report.query_id);
    const TraceSummary summary = report.trace->Summary();
    EXPECT_GT(summary.events, 0u);
    // Every trace has its own query-root span under its own pid.
    const std::string json = report.trace->ToChromeJson();
    EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\":" + std::to_string(report.query_id)),
              std::string::npos);
  }
  std::sort(seen_ids.begin(), seen_ids.end());
  EXPECT_EQ(std::adjacent_find(seen_ids.begin(), seen_ids.end()),
            seen_ids.end())
      << "duplicate query ids across concurrent traces";
}

}  // namespace
}  // namespace mpsm::obs

// Replaced global operator new: counts allocations while the
// TraceDisabledTest guard is on (the whole test binary routes through
// here; array new's default implementation calls this too). The
// nothrow form is replaced as well, so memory it hands out (e.g.
// std::stable_sort's temporary buffer) is malloc'd like everything
// the replaced operator delete frees — under ASan the runtime's own
// nothrow new would otherwise pair with this free().
namespace {
void* CountedMalloc(std::size_t size) noexcept {
  if (mpsm::obs::g_count_allocations.load(std::memory_order_relaxed)) {
    mpsm::obs::g_test_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size != 0 ? size : 1);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

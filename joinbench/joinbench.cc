// joinbench — the MPSM join benchmark program (README.md).
//
// Runs one workload of the paper's query
//   SELECT max(R.payload + S.payload) FROM R, S WHERE R.key = S.key
// through the library's public front doors (engine::Engine::Execute,
// service::JoinService::{Submit, Wait, Ingest}), checks every answer
// against the benchmark's own computation, and prints one JSON result
// line: end-to-end metrics when untraced, per-layer metrics when traced.
//
//   joinbench --workload inmem_fk --seed 1 --seconds 20 --trace 0
//             [--setup-only 1] [--untraced-p50-ms MS]
//             [--out DIR] [--spill-dir DIR]
//
// One process runs one set-up and, unless --setup-only, one timed pass;
// run.py repeats set-up in fresh processes for the setup_s median and
// runs the untraced reference of a traced run.
//
// The inputs come from --seed only; the library never sees the seed.
// Each run executes a fixed number of queries derived from --seconds,
// so two runs with the same arguments do the same work.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/consumers.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/join_service.h"
#include "simd/simd_kind.h"

namespace {

using namespace mpsm;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "joinbench: %s\n", message.c_str());
  std::exit(2);
}

// ------------------------------------------------------------ inputs

/// splitmix64: the benchmark's own generator, so the inputs depend on
/// --seed and on nothing in the library.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Bounded(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  /// Payloads stay below 2^32, so R.payload + S.payload never wraps.
  uint64_t Payload() { return Next() & 0xFFFFFFFFull; }
};

// Keys are a bijective 32-bit mix of a tuple's index: unique, spread
// over [0, 2^32), and invertible, so the checker maps an S key back to
// the R tuple it references without a hash table or a join.
constexpr uint32_t kMul1 = 0x7FEB352Du;
constexpr uint32_t kMul2 = 0x846CA68Bu;

constexpr uint32_t InverseOdd(uint32_t a) {
  uint32_t x = a;  // Newton: each step doubles the correct low bits
  for (int i = 0; i < 5; ++i) x *= 2u - a * x;
  return x;
}

uint32_t Mix32(uint32_t x) {
  x ^= x >> 16;
  x *= kMul1;
  x ^= x >> 15;
  x *= kMul2;
  x ^= x >> 16;
  return x;
}

uint32_t Unmix32(uint32_t x) {
  x ^= x >> 16;
  x *= InverseOdd(kMul2);
  x ^= (x >> 15) ^ (x >> 30);
  x *= InverseOdd(kMul1);
  x ^= x >> 16;
  return x;
}

/// Key universe of one run: index u in [0, size) <-> Mix32(u ^ salt).
struct KeySpace {
  uint32_t salt = 0;
  uint64_t size = 0;
  uint64_t Key(uint64_t u) const {
    return Mix32(static_cast<uint32_t>(u) ^ salt);
  }
  /// Index of `key`, or `size` when the key is not in the universe.
  uint64_t Index(uint64_t key) const {
    if (key > 0xFFFFFFFFull) return size;
    const uint64_t u = Unmix32(static_cast<uint32_t>(key)) ^ salt;
    return u < size ? u : size;
  }
};

/// The three numbers a query answer is checked on.
struct Answer {
  uint64_t count = 0;  // output tuples
  uint64_t max = 0;    // the paper's max(R.payload + S.payload)
  uint64_t sum = 0;    // sum of R.payload + S.payload, mod 2^64

  void Add(uint64_t r_payload, uint64_t s_payload) {
    ++count;
    max = std::max(max, r_payload + s_payload);
    sum += r_payload + s_payload;
  }
  void Merge(const Answer& other) {
    count += other.count;
    max = std::max(max, other.max);
    sum += other.sum;
  }
  bool operator==(const Answer&) const = default;
  std::string ToString() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "count=%" PRIu64 " max=%" PRIu64
                  " sum=%" PRIu64, count, max, sum);
    return buf;
  }
};

/// Benchmark-side join consumer: one padded accumulator per worker.
class AnswerFactory final : public ConsumerFactory {
 public:
  explicit AnswerFactory(uint32_t workers) : workers_(workers) {}

  JoinConsumer& ConsumerForWorker(uint32_t w) override {
    if (w < workers_.size()) return workers_[w];
    overflow_.store(true, std::memory_order_relaxed);
    return spare_;
  }

  /// nullopt when the engine asked for more workers than announced.
  std::optional<Answer> Result() const {
    if (overflow_.load(std::memory_order_relaxed)) return std::nullopt;
    Answer total;
    for (const Worker& w : workers_) total.Merge(w.answer);
    return total;
  }

 private:
  struct alignas(64) Worker final : JoinConsumer {
    Answer answer;
    void OnMatch(const Tuple& r, const Tuple* s, size_t n) override {
      for (size_t i = 0; i < n; ++i) answer.Add(r.payload, s[i].payload);
    }
  };
  std::vector<Worker> workers_;
  Worker spare_;
  std::atomic<bool> overflow_{false};
};

/// A relation of the tuples of universe indices [first, first + n).
Relation MakeDimension(const numa::Topology& topology, const KeySpace& keys,
                       uint64_t first, size_t n, uint32_t chunks, Rng& rng) {
  Relation rel = Relation::Allocate(topology, n, chunks);
  size_t u = first;
  for (uint32_t c = 0; c < rel.num_chunks(); ++c) {
    for (Tuple& t : rel.chunk(c)) t = Tuple{keys.Key(u++), rng.Payload()};
  }
  return rel;
}

/// Foreign-key tuples: each references a uniformly drawn universe index.
/// Drawn independently, the tuples are in no key order (shuffled).
void FillFacts(Tuple* out, size_t n, const KeySpace& keys, Rng& rng) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = Tuple{keys.Key(rng.Bounded(keys.size)), rng.Payload()};
  }
}

Relation MakeFacts(const numa::Topology& topology, const KeySpace& keys,
                   size_t n, uint32_t chunks, Rng& rng) {
  Relation rel = Relation::Allocate(topology, n, chunks);
  for (uint32_t c = 0; c < rel.num_chunks(); ++c) {
    FillFacts(rel.chunk(c).data, rel.chunk(c).size, keys, rng);
  }
  return rel;
}

// ------------------------------------------------------------ samples

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

struct Usage {
  double cpu_seconds = 0;
  uint64_t minor_faults = 0;
  double peak_rss_mib = 0;
  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_seconds = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                    static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
    u.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
    u.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
    return u;
  }
};

/// What one query left behind, read from its JoinReport.
struct QuerySample {
  double latency_s = 0;
  engine::Algorithm algorithm = engine::Algorithm::kPMpsm;
  double plan_s = 0;
  double exec_s = 0;
  double admission_wait_s = 0;
  std::array<double, kNumJoinPhases> measured{};
  std::array<double, kNumJoinPhases> predicted{};
  std::array<double, kNumJoinPhases> imbalance{};  // < 0: undefined
  uint64_t output_tuples = 0;
  uint64_t morsels_stolen = 0;
  uint64_t cache_delta_tuples = 0;
  std::optional<disk::DMpsmReport> dmpsm;
  uint64_t spilled_bytes = 0;
  simd::SimdKind simd_used = simd::SimdKind::kScalar;
};

QuerySample Sample(const engine::JoinReport& report, double latency_s) {
  QuerySample q;
  q.latency_s = latency_s;
  q.algorithm = report.plan.algorithm;
  q.plan_s = report.plan_seconds;
  q.exec_s = report.info.wall_seconds;
  q.admission_wait_s = static_cast<double>(report.admission_wait_ns) * 1e-9;
  q.measured = report.measured_phase_seconds;
  q.predicted = report.plan.predicted_phase_seconds;
  for (size_t p = 0; p < kNumJoinPhases; ++p) {
    double slowest = 0, total = 0;
    for (const WorkerStats& w : report.info.workers) {
      slowest = std::max(slowest, w.phase_seconds[p]);
      total += w.phase_seconds[p];
    }
    const double mean =
        report.info.workers.empty()
            ? 0
            : total / static_cast<double>(report.info.workers.size());
    q.imbalance[p] = mean > 0 ? slowest / mean : -1;
  }
  q.output_tuples = report.info.output_tuples;
  q.morsels_stolen = report.info.aggregate.TotalCounters().morsels_stolen;
  q.cache_delta_tuples = report.cache_delta_tuples;
  q.dmpsm = report.dmpsm;
  if (report.dmpsm) {
    q.spilled_bytes = report.dmpsm->io.pages_written *
                      report.plan.dmpsm.tuples_per_page * sizeof(Tuple);
  }
  q.simd_used = report.simd_used;
  return q;
}

// ------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

void WriteFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) Die("cannot write " + path.string());
}

std::string ReadFirstLine(const char* path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string HugePageMode() {
  const std::string line =
      ReadFirstLine("/sys/kernel/mm/transparent_hugepage/enabled");
  const size_t open = line.find('['), close = line.find(']');
  if (open == std::string::npos || close == std::string::npos) return "unknown";
  return line.substr(open + 1, close - open - 1);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// ------------------------------------------------------------ workloads

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Set up once, run no timed queries, report setup_s only: run.py
  /// repeats set-up in fresh processes so that memory one set-up frees
  /// cannot inflate the next one's peak RSS.
  bool setup_only = false;
  /// The untraced run's latency_ms_p50, the base of
  /// obs.trace_overhead_pct in a traced run.
  double untraced_p50_ms = 0;
  std::filesystem::path out_dir = ".";
  std::filesystem::path spill_dir = ".";
};

/// What the timed (or traced) queries of one pass left behind.
struct PassResult {
  double wall_s = 0;
  Usage usage_before, usage_after;
  std::vector<QuerySample> queries;  // timed queries only
  std::vector<double> ingest_s;
  service::ServiceStats service_before, service_after;
  double cache_delta_mib_end = 0;
  bool is_service = false;
};

/// Counts attempted/failed operations and prints every failure with
/// the query id, so the run continues past a wrong answer.
struct Tally {
  std::mutex mu;
  uint64_t attempted = 0, failed = 0, wrong = 0;

  void Ok() {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
  }
  void Fail(const std::string& what, bool wrong_answer) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    ++failed;
    if (wrong_answer) ++wrong;
    std::printf("FAILED %s\n", what.c_str());
    std::fflush(stdout);
  }
};

/// Optional tracing state of a traced pass: the benchmark's own spans
/// around each public call, plus one sampled query's engine trace.
struct TraceCapture {
  std::unique_ptr<obs::TraceSink> bench;
  std::mutex mu;
  std::shared_ptr<obs::TraceSink> query;
  int64_t query_offset_ns = 0;  // query sink epoch - bench sink epoch

  void Offer(const std::shared_ptr<obs::TraceSink>& sink) {
    if (sink == nullptr) return;
    std::lock_guard<std::mutex> lock(mu);
    if (query != nullptr) return;
    query = sink;
    query_offset_ns = bench->NowNs() - sink->NowNs();
  }
};

/// How one pass runs: set up (always), then the timed queries.
struct PassSpec {
  bool trace = false;    // EngineOptions::trace for the timed queries
  uint64_t queries = 0;  // timed queries; also sizes the ingest stream
  bool timed = true;     // false: set up only
  double* setup_s = nullptr;
  TraceCapture* capture = nullptr;
  std::optional<Clock::time_point> origin;  // set-up clock start
};

// ---- inmem_fk / spill_fk: one engine session, one query at a time.

struct FkConfig {
  size_t r_tuples = size_t{1} << 20;
  size_t s_tuples = size_t{4} << 20;  // |S| = 4 |R| (paper §5.1)
  uint32_t workers = 4;
  uint64_t memory_budget_bytes = 0;  // 0: in memory
  uint32_t warmup_queries = 2;
};

struct FkState {
  Relation r, s;
  Answer expected;
  std::unique_ptr<engine::Engine> engine;
};

engine::EngineOptions FkEngineOptions(const FkConfig& config,
                                      const Args& args, bool trace) {
  engine::EngineOptions options;
  options.workers = config.workers;
  options.memory_budget_bytes = config.memory_budget_bytes;
  options.trace = trace;
  // Spill settings: named backend, no recovery journal (nothing is
  // fdatasynced), spool files inside the checkout.
  options.dmpsm.io_backend = io::IoBackendKind::kThreadpool;
  options.dmpsm.io_queue_depth = 8;  // two threadpool I/O threads
  options.dmpsm.directory = args.spill_dir.string();
  options.recovery.enabled = false;
  return options;
}

bool RunFkQuery(FkState& st, uint32_t workers, uint64_t id, Tally& tally,
                TraceCapture* capture, QuerySample* sample) {
  AnswerFactory answer(workers);
  engine::JoinSpec spec;
  spec.r = &st.r;
  spec.s = &st.s;
  spec.consumers = &answer;
  if (capture != nullptr) {
    obs::TraceSpan span("bench", "Plan");
    (void)st.engine->Plan(spec);
  }
  const auto start = Clock::now();
  Result<engine::JoinReport> report = [&] {
    obs::TraceSpan span("bench", "Execute");
    return st.engine->Execute(spec);
  }();
  const double latency = SecondsSince(start);
  const std::string tag = "query " + std::to_string(id);
  if (!report.ok()) {
    tally.Fail(tag + ": " + report.status().ToString(), false);
    return false;
  }
  if (capture != nullptr) capture->Offer(report->trace);
  const std::optional<Answer> got = answer.Result();
  if (!got || !(*got == st.expected)) {
    tally.Fail(tag + ": got " + (got ? got->ToString() : "worker overflow") +
                   ", expected " + st.expected.ToString(),
               true);
    return false;
  }
  tally.Ok();
  if (sample != nullptr) *sample = Sample(*report, latency);
  return true;
}

/// Generates the inputs and returns the checker's precomputation time
/// (excluded from setup_s).
double BuildFkData(FkState& st, const FkConfig& config, uint64_t seed,
                   const numa::Topology& topology) {
  Rng rng{seed * 0x9E3779B97F4A7C15ull + 0x1234567ull};
  KeySpace keys{static_cast<uint32_t>(rng.Next()), config.r_tuples};
  st.r = MakeDimension(topology, keys, 0, config.r_tuples, config.workers,
                       rng);
  st.s = MakeFacts(topology, keys, config.s_tuples, config.workers, rng);

  const auto start = Clock::now();
  Answer expected;
  for (uint32_t c = 0; c < st.s.num_chunks(); ++c) {
    for (const Tuple& t : st.s.chunk(c)) {
      const uint64_t u = keys.Index(t.key);
      if (u == keys.size || st.r.At(u).key != t.key) {
        Die("generator produced a dangling foreign key");
      }
      expected.Add(st.r.At(u).payload, t.payload);
    }
  }
  st.expected = expected;
  return SecondsSince(start);
}

PassResult RunFkPass(const FkConfig& config, const Args& args,
                     const PassSpec& ps, Tally& tally) {
  const auto start = ps.origin.value_or(Clock::now());
  auto st = std::make_unique<FkState>();
  st->engine = std::make_unique<engine::Engine>(
      FkEngineOptions(config, args, /*trace=*/false));
  const double checker_s =
      BuildFkData(*st, config, args.seed, st->engine->topology());
  uint64_t id = 0;
  for (uint32_t w = 0; w < config.warmup_queries; ++w) {
    RunFkQuery(*st, config.workers, id++, tally, nullptr, nullptr);
  }
  if (ps.setup_s != nullptr) *ps.setup_s = SecondsSince(start) - checker_s;
  PassResult pass;
  if (!ps.timed) return pass;
  if (ps.trace) st->engine->set_options(FkEngineOptions(config, args, true));

  pass.queries.reserve(ps.queries);
  std::optional<obs::ScopedTraceThread> scoped;
  if (ps.capture != nullptr) {
    scoped.emplace(ps.capture->bench.get(), "client", 0);
  }
  pass.usage_before = Usage::Now();
  const auto timed = Clock::now();
  for (uint64_t q = 0; q < ps.queries; ++q) {
    QuerySample sample;
    if (RunFkQuery(*st, config.workers, id++, tally, ps.capture, &sample)) {
      pass.queries.push_back(sample);
    }
  }
  pass.wall_s = SecondsSince(timed);
  pass.usage_after = Usage::Now();
  return pass;
}

// ---- service_ingest: a closed loop of clients against one JoinService
// while the public relation takes a stream of ingested batches.

struct ServiceConfig {
  uint32_t lanes = 2;
  uint32_t workers = 2;  // per lane; lanes * workers <= nproc
  uint32_t clients = 4;
  uint32_t privates = 8;                    // small private relations
  size_t private_tuples = size_t{1} << 16;  // each
  size_t s_tuples = size_t{1} << 22;        // the public relation
  uint32_t ingest_every = 20;               // completed queries per batch
  size_t batch_tuples = 1024;
};

struct ServiceState {
  std::vector<Relation> privates;
  Relation s;
  std::vector<std::vector<Tuple>> batches;
  /// expected[i][k]: private i joined with S after k ingested batches.
  std::vector<std::vector<Answer>> expected;
  uint64_t base_version = 0;
  std::unique_ptr<service::JoinService> service;  // destroyed first
};

service::ServiceOptions MakeServiceOptions(const ServiceConfig& config,
                                           bool trace) {
  service::ServiceOptions options;
  options.lanes = config.lanes;
  options.engine.workers = config.workers;
  options.engine.trace = trace;
  options.shared_sort = true;
  options.donation = true;
  const uint64_t s_bytes = config.s_tuples * sizeof(Tuple);
  options.run_cache_bytes = 2 * s_bytes;
  // Room for one head query's working set, its batch mates and S's
  // cached runs with their deltas, but not for a second head: it waits
  // in the queue for admission. (A budget that admits two heads makes
  // admission evict the cached runs, and every later query re-sorts S.)
  const uint64_t head = engine::Planner::WorkingSetBytes(
      config.private_tuples, config.s_tuples);
  options.memory_budget_bytes = head + s_bytes + s_bytes / 2;
  return options;
}

double BuildServiceData(ServiceState& st, const ServiceConfig& config,
                        uint64_t seed, uint64_t batches,
                        const numa::Topology& topology) {
  Rng rng{seed * 0xD1B54A32D192ED03ull + 0x7654321ull};
  KeySpace keys{static_cast<uint32_t>(rng.Next()),
                uint64_t{config.privates} * config.private_tuples};
  st.privates.clear();
  for (uint32_t i = 0; i < config.privates; ++i) {
    st.privates.push_back(MakeDimension(topology, keys,
                                        uint64_t{i} * config.private_tuples,
                                        config.private_tuples, config.workers,
                                        rng));
  }
  st.s = MakeFacts(topology, keys, config.s_tuples, config.workers, rng);
  st.batches.assign(batches, std::vector<Tuple>(config.batch_tuples));
  for (auto& batch : st.batches) {
    FillFacts(batch.data(), batch.size(), keys, rng);
  }

  const auto start = Clock::now();
  // Private relation and R payload a foreign key refers to.
  auto resolve = [&](const Tuple& t) {
    const uint64_t u = keys.Index(t.key);
    if (u == keys.size) Die("generator produced a dangling foreign key");
    const uint32_t i = static_cast<uint32_t>(u / config.private_tuples);
    const Tuple& r = st.privates[i].At(u % config.private_tuples);
    if (r.key != t.key) Die("generator produced a dangling foreign key");
    return std::pair<uint32_t, uint64_t>{i, r.payload};
  };
  std::vector<Answer> base(config.privates);
  std::vector<std::vector<Answer>> delta(config.privates,
                                         std::vector<Answer>(batches));
  for (uint32_t c = 0; c < st.s.num_chunks(); ++c) {
    for (const Tuple& t : st.s.chunk(c)) {
      const auto [i, r_payload] = resolve(t);
      base[i].Add(r_payload, t.payload);
    }
  }
  for (uint64_t k = 0; k < batches; ++k) {
    for (const Tuple& t : st.batches[k]) {
      const auto [i, r_payload] = resolve(t);
      delta[i][k].Add(r_payload, t.payload);
    }
  }
  st.expected.assign(config.privates, {});
  for (uint32_t i = 0; i < config.privates; ++i) {
    st.expected[i].push_back(base[i]);
    for (uint64_t k = 0; k < batches; ++k) {
      Answer next = st.expected[i].back();
      next.Merge(delta[i][k]);
      st.expected[i].push_back(next);
    }
  }
  return SecondsSince(start);
}

/// Runs queries [first, first + count) from `clients` closed-loop
/// threads; with `ingest`, every `ingest_every`-th completion adds the
/// next batch to S through JoinService::Ingest.
void RunServiceLoop(ServiceState& st, const ServiceConfig& config,
                    uint64_t first, uint64_t count, bool ingest, Tally& tally,
                    TraceCapture* capture, PassResult* pass) {
  std::atomic<uint64_t> next{0}, completed{0};
  std::mutex mu;  // guards pass
  std::mutex ingest_mu;  // serializes batches in order
  uint64_t next_batch = 0;  // guarded by ingest_mu

  auto do_ingest = [&] {
    std::lock_guard<std::mutex> lock(ingest_mu);
    const uint64_t k = next_batch++;
    const std::string tag = "ingest " + std::to_string(k);
    if (k >= st.batches.size()) {
      tally.Fail(tag + ": no batch left", false);
      return;
    }
    const auto start = Clock::now();
    Result<uint64_t> version = [&] {
      obs::TraceSpan span("bench", "Ingest");
      return st.service->Ingest(st.s, st.batches[k]);
    }();
    const double took = SecondsSince(start);
    if (!version.ok()) {
      tally.Fail(tag + ": " + version.status().ToString(), false);
      return;
    }
    if (*version != st.base_version + k + 1 || st.s.version() != *version) {
      tally.Fail(tag + ": relation version " + std::to_string(*version) +
                     ", expected " + std::to_string(st.base_version + k + 1),
                 true);
      return;
    }
    tally.Ok();
    std::lock_guard<std::mutex> plock(mu);
    if (pass != nullptr) pass->ingest_s.push_back(took);
  };

  auto client = [&](uint32_t c) {
    std::optional<obs::ScopedTraceThread> scoped;
    if (capture != nullptr) scoped.emplace(capture->bench.get(), "client", c);
    for (;;) {
      const uint64_t idx = next.fetch_add(1);
      if (idx >= count) break;
      const uint64_t id = first + idx;
      const uint32_t i = static_cast<uint32_t>(id % config.privates);
      AnswerFactory answer(config.workers);
      engine::JoinSpec spec;
      spec.r = &st.privates[i];
      spec.s = &st.s;
      spec.consumers = &answer;
      const std::string tag = "query " + std::to_string(id);

      const uint64_t v_before = st.s.version();
      const auto start = Clock::now();
      Result<service::JoinService::QueryId> handle = [&] {
        obs::TraceSpan span("bench", "Submit");
        return st.service->Submit(spec);
      }();
      std::optional<Result<engine::JoinReport>> report;
      if (handle.ok()) {
        obs::TraceSpan span("bench", "Wait");
        report.emplace(st.service->Wait(*handle));
      }
      const double latency = SecondsSince(start);
      const uint64_t v_after = st.s.version();

      if (!handle.ok() || !report->ok()) {
        tally.Fail(tag + ": " + (handle.ok() ? report->status().ToString()
                                             : handle.status().ToString()),
                   false);
      } else {
        if (capture != nullptr) capture->Offer((*report)->trace);
        const std::optional<Answer> got = answer.Result();
        // Correct when it equals the answer at some version the query
        // could have read: between the one before Submit and the one
        // after Wait.
        const auto& table = st.expected[i];
        const uint64_t lo = std::min<uint64_t>(v_before - st.base_version,
                                               table.size() - 1);
        const uint64_t hi = std::min<uint64_t>(v_after - st.base_version,
                                               table.size() - 1);
        bool match = false;
        for (uint64_t k = lo; got && k <= hi && !match; ++k) {
          match = *got == table[k];
        }
        if (!match) {
          tally.Fail(tag + " (private " + std::to_string(i) + "): got " +
                         (got ? got->ToString() : "worker overflow") +
                         ", expected " + table[lo].ToString() +
                         (hi > lo ? " .. " + table[hi].ToString() : ""),
                     true);
        } else {
          tally.Ok();
          if (pass != nullptr) {
            const QuerySample sample = Sample(**report, latency);
            std::lock_guard<std::mutex> lock(mu);
            pass->queries.push_back(sample);
          }
        }
      }
      const uint64_t done = completed.fetch_add(1) + 1;
      if (ingest && done % config.ingest_every == 0) do_ingest();
    }
  };

  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < config.clients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
}

PassResult RunServicePass(const ServiceConfig& config, const Args& args,
                          const PassSpec& ps, Tally& tally) {
  const auto start = ps.origin.value_or(Clock::now());
  auto st = std::make_unique<ServiceState>();
  const numa::Topology topology = numa::Topology::Probe();
  const double checker_s =
      BuildServiceData(*st, config, args.seed,
                       ps.queries / config.ingest_every, topology);
  st->base_version = st->s.version();
  st->service = std::make_unique<service::JoinService>(
      topology, MakeServiceOptions(config, ps.trace));
  // Warm-up: one round over the private relations from the same closed
  // loop spawns every lane's team and fills the run cache.
  RunServiceLoop(*st, config, ps.queries, config.privates, /*ingest=*/false,
                 tally, nullptr, nullptr);
  if (ps.setup_s != nullptr) *ps.setup_s = SecondsSince(start) - checker_s;
  PassResult pass;
  if (!ps.timed) return pass;

  pass.is_service = true;
  pass.queries.reserve(ps.queries);
  pass.service_before = st->service->stats();
  pass.usage_before = Usage::Now();
  const auto timed = Clock::now();
  RunServiceLoop(*st, config, 0, ps.queries, /*ingest=*/true, tally,
                 ps.capture, &pass);
  pass.wall_s = SecondsSince(timed);
  pass.usage_after = Usage::Now();
  pass.service_after = st->service->stats();
  pass.cache_delta_mib_end =
      static_cast<double>(st->service->run_cache()->stats().delta_bytes) /
      kMiB;
  if (ps.capture != nullptr) {
    WriteFile(args.out_dir / ("metrics_" + args.workload + ".prom"),
              st->service->MetricsSnapshot().ToPrometheusText());
  }
  return pass;
}

// ------------------------------------------------------------ metrics

std::vector<Metric> EndToEnd(const PassResult& pass, double setup_s) {
  std::vector<double> lat_ms;
  for (const QuerySample& q : pass.queries) lat_ms.push_back(q.latency_s * 1e3);
  const double n = std::max<double>(1, static_cast<double>(pass.queries.size()));
  return {
      {"qps", static_cast<double>(pass.queries.size()) / pass.wall_s, "1/s"},
      {"latency_ms_p50", Quantile(lat_ms, 0.5), "ms"},
      {"latency_ms_p90", Quantile(lat_ms, 0.9), "ms"},
      {"cpu_ms_per_query",
       (pass.usage_after.cpu_seconds - pass.usage_before.cpu_seconds) * 1e3 / n,
       "ms"},
      {"peak_rss_mib", pass.usage_after.peak_rss_mib, "MiB"},
      {"setup_s", setup_s, "s"},
  };
}

std::vector<Metric> PerLayer(const PassResult& pass, double untraced_p50_ms) {
  const auto& qs = pass.queries;
  const double n = std::max<double>(1, static_cast<double>(qs.size()));
  std::vector<Metric> m;

  // engine
  std::vector<double> plan_ms, err_pct;
  std::array<uint64_t, engine::kNumAlgorithms> by_algorithm{};
  for (const QuerySample& q : qs) {
    plan_ms.push_back(q.plan_s * 1e3);
    ++by_algorithm[static_cast<size_t>(q.algorithm)];
    double err = 0;
    int phases = 0;
    for (size_t p = 0; p < kNumJoinPhases; ++p) {
      if (q.measured[p] <= 0) continue;
      err += std::fabs(q.predicted[p] - q.measured[p]) / q.measured[p];
      ++phases;
    }
    if (phases > 0) err_pct.push_back(100.0 * err / phases);
  }
  m.push_back({"engine.plan_ms_p50", Quantile(plan_ms, 0.5), "ms"});
  m.push_back({"engine.planner_phase_error_pct", Mean(err_pct), "%"});
  for (size_t a = 0; a < engine::kNumAlgorithms; ++a) {
    m.push_back({std::string("engine.queries_by_algorithm.") +
                     engine::AlgorithmName(static_cast<engine::Algorithm>(a)),
                 static_cast<double>(by_algorithm[a]), "count"});
  }

  // core (in-memory plans) and disk (D-MPSM plans): per-phase medians
  std::array<std::vector<double>, kNumJoinPhases> core_ms, disk_ms, imbalance;
  double output = 0, stolen = 0, delta_tuples = 0;
  std::vector<double> exec_ms, admission_ms;
  struct Spill {
    double n = 0, stall_ms = 0, spilled_mib = 0, hits = 0, misses = 0,
           evictions = 0, writebacks = 0, append_stall_ms = 0, io_stall_ms = 0,
           read_batches = 0, coalesced = 0, queue_depth = 0, retries = 0;
  } sp;
  for (const QuerySample& q : qs) {
    const bool spilled = q.algorithm == engine::Algorithm::kDMpsm;
    for (size_t p = 0; p < kNumJoinPhases; ++p) {
      (spilled ? disk_ms : core_ms)[p].push_back(q.measured[p] * 1e3);
      if (q.imbalance[p] >= 0) imbalance[p].push_back(q.imbalance[p]);
    }
    output += static_cast<double>(q.output_tuples);
    stolen += static_cast<double>(q.morsels_stolen);
    delta_tuples += static_cast<double>(q.cache_delta_tuples);
    exec_ms.push_back(q.exec_s * 1e3);
    admission_ms.push_back(q.admission_wait_s * 1e3);
    if (q.dmpsm) {
      const disk::DMpsmReport& d = *q.dmpsm;
      sp.n += 1;
      sp.stall_ms += static_cast<double>(d.spool_write_stall_ns) * 1e-6;
      sp.spilled_mib += static_cast<double>(q.spilled_bytes) / kMiB;
      sp.hits += static_cast<double>(d.pool.hits);
      sp.misses += static_cast<double>(d.pool.misses);
      sp.evictions += static_cast<double>(d.pool.evictions);
      sp.writebacks += static_cast<double>(d.pool.writebacks);
      sp.append_stall_ms += static_cast<double>(d.pool.append_stall_ns) * 1e-6;
      sp.io_stall_ms += static_cast<double>(d.io_sched.io_stall_ns) * 1e-6;
      sp.read_batches += static_cast<double>(d.io_sched.io_batches);
      sp.coalesced += static_cast<double>(d.io_sched.coalesced_pages);
      sp.queue_depth += d.io_sched.mean_queue_depth;
      sp.retries += static_cast<double>(d.io_sched.retries);
    }
  }
  for (size_t p = 0; p < kNumJoinPhases; ++p) {
    m.push_back({"core.phase" + std::to_string(p + 1) + "_ms",
                 Quantile(core_ms[p], 0.5), "ms"});
  }
  for (size_t p = 0; p < kNumJoinPhases; ++p) {
    m.push_back({"core.phase" + std::to_string(p + 1) + "_imbalance",
                 Quantile(imbalance[p], 0.5), "ratio"});
  }
  m.push_back({"core.output_tuples", output / n, "count"});

  // parallel (per run)
  const auto& sb = pass.service_before;
  const auto& sa = pass.service_after;
  m.push_back({"parallel.morsels_stolen", stolen, "count"});
  m.push_back({"parallel.donated_morsels",
               static_cast<double>(sa.donated_morsels - sb.donated_morsels),
               "count"});

  // numa
  m.push_back({"numa.minor_faults_per_query",
               static_cast<double>(pass.usage_after.minor_faults -
                                   pass.usage_before.minor_faults) / n,
               "count"});

  // disk, bufferpool, io: means per spilled query
  const double sn = std::max(1.0, sp.n);
  for (size_t p = 0; p < kNumJoinPhases; ++p) {
    m.push_back({"disk.phase" + std::to_string(p + 1) + "_ms",
                 Quantile(disk_ms[p], 0.5), "ms"});
  }
  m.push_back({"disk.spool_write_stall_ms", sp.stall_ms / sn, "ms"});
  m.push_back({"disk.spilled_mib", sp.spilled_mib / sn, "MiB"});
  m.push_back({"bufferpool.pins", (sp.hits + sp.misses) / sn, "count"});
  m.push_back({"bufferpool.hits", sp.hits / sn, "count"});
  m.push_back({"bufferpool.misses", sp.misses / sn, "count"});
  m.push_back({"bufferpool.hit_ratio",
               sp.hits + sp.misses > 0 ? sp.hits / (sp.hits + sp.misses) : 0,
               "ratio"});
  m.push_back({"bufferpool.evictions", sp.evictions / sn, "count"});
  m.push_back({"bufferpool.writebacks", sp.writebacks / sn, "count"});
  m.push_back({"bufferpool.append_stall_ms", sp.append_stall_ms / sn, "ms"});
  m.push_back({"io.stall_ms", sp.io_stall_ms / sn, "ms"});
  m.push_back({"io.read_batches", sp.read_batches / sn, "count"});
  m.push_back({"io.coalesced_pages", sp.coalesced / sn, "count"});
  m.push_back({"io.mean_queue_depth", sp.queue_depth / sn, "count"});
  m.push_back({"io.retries", sp.retries / sn, "count"});

  // cache (per run, except delta tuples per query)
  const double hits = static_cast<double>(sa.cache_hits - sb.cache_hits);
  const double misses = static_cast<double>(sa.cache_misses - sb.cache_misses);
  m.push_back({"cache.hits", hits, "count"});
  m.push_back({"cache.misses", misses, "count"});
  m.push_back({"cache.declined",
               pass.is_service ? static_cast<double>(qs.size()) - hits - misses
                               : 0,
               "count"});
  m.push_back({"cache.delta_tuples", delta_tuples / n, "count"});
  std::vector<double> ingest_ms;
  for (double s : pass.ingest_s) ingest_ms.push_back(s * 1e3);
  m.push_back({"cache.ingest_ms_p50", Quantile(ingest_ms, 0.5), "ms"});
  m.push_back({"cache.compactions",
               static_cast<double>(sa.cache_compactions - sb.cache_compactions),
               "count"});
  m.push_back({"cache.delta_mib_end", pass.cache_delta_mib_end, "MiB"});

  // service (medians per query; counts per run)
  m.push_back({"service.admission_wait_ms_p50",
               pass.is_service ? Quantile(admission_ms, 0.5) : 0, "ms"});
  m.push_back({"service.exec_ms_p50",
               pass.is_service ? Quantile(exec_ms, 0.5) : 0, "ms"});
  m.push_back({"service.batches",
               static_cast<double>(sa.batches - sb.batches), "count"});
  m.push_back({"service.batched_queries",
               static_cast<double>(sa.batched_queries - sb.batched_queries),
               "count"});
  m.push_back({"service.peak_queue_depth",
               static_cast<double>(sa.peak_queue_depth), "count"});

  // obs
  std::vector<double> lat_ms;
  for (const QuerySample& q : qs) lat_ms.push_back(q.latency_s * 1e3);
  m.push_back({"obs.trace_overhead_pct",
               untraced_p50_ms > 0
                   ? 100.0 * (Quantile(lat_ms, 0.5) / untraced_p50_ms - 1.0)
                   : 0,
               "%"});
  return m;
}

// ------------------------------------------------------------ main

/// Queries per run: `per_second` queries per second of --seconds, but
/// at least 100 so ten samples lie beyond the reported p90; a multiple
/// of `round` so every run is made of whole rounds. The rates are fixed
/// work, not measured speed.
uint64_t QueryCount(double per_second, double seconds, uint64_t round) {
  uint64_t n = std::max<uint64_t>(
      100, static_cast<uint64_t>(std::ceil(per_second * seconds)));
  return (n + round - 1) / round * round;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--setup-only") {
      args.setup_only = value == "1";
    } else if (flag == "--untraced-p50-ms") {
      args.untraced_p50_ms = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--out") {
      args.out_dir = value;
    } else if (flag == "--spill-dir") {
      args.spill_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!(args.seconds > 0 && args.seconds <= 3600)) Die("bad --seconds");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  const Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.out_dir);
  std::filesystem::create_directories(args.spill_dir);

  const uint32_t nproc =
      std::max<uint32_t>(1, static_cast<uint32_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  const std::string load_before = ReadFirstLine("/proc/loadavg");
  if (std::strtod(load_before.c_str(), nullptr) > nproc) {
    std::printf("WARNING: 1-minute load average %s exceeds nproc %u; "
                "figures from this run are suspect\n",
                load_before.c_str(), nproc);
  }

  // Every workload is sized for a 4-core host; on fewer cores the
  // thread counts shrink so no workload has more busy threads than nproc.
  FkConfig inmem;
  inmem.workers = std::min<uint32_t>(4, nproc);
  FkConfig spill;
  spill.workers = std::min<uint32_t>(2, nproc);
  spill.memory_budget_bytes = uint64_t{16} << 20;
  ServiceConfig svc;
  svc.lanes = nproc >= 4 ? 2 : 1;
  svc.workers = std::min<uint32_t>(2, nproc);
  svc.clients = std::min<uint32_t>(4, nproc);

  std::function<PassResult(const PassSpec&, Tally&)> run_pass;
  uint64_t queries = 0;
  if (args.workload == "inmem_fk" || args.workload == "spill_fk") {
    const bool in_memory = args.workload == "inmem_fk";
    const FkConfig config = in_memory ? inmem : spill;
    queries = QueryCount(in_memory ? 7.0 : 3.5, args.seconds, 1);
    run_pass = [config, &args](const PassSpec& ps, Tally& tally) {
      return RunFkPass(config, args, ps, tally);
    };
  } else if (args.workload == "service_ingest") {
    queries = QueryCount(100.0, args.seconds, svc.ingest_every);
    run_pass = [svc, &args](const PassSpec& ps, Tally& tally) {
      return RunServicePass(svc, args, ps, tally);
    };
  } else {
    Die("unknown workload '" + args.workload +
        "' (inmem_fk, spill_fk, service_ingest)");
  }

  Tally tally;
  std::vector<Metric> metrics;
  PassResult last;
  PassSpec ps;
  ps.queries = queries;
  ps.origin = process_start;
  double setup_s = 0;
  ps.setup_s = &setup_s;
  if (args.setup_only) {
    ps.timed = false;
    run_pass(ps, tally);
    metrics = {{"setup_s", setup_s, "s"}};
  } else if (!args.trace) {
    last = run_pass(ps, tally);
    metrics = EndToEnd(last, setup_s);
  } else {
    TraceCapture capture;
    capture.bench = std::make_unique<obs::TraceSink>(
        0, obs::TraceSinkOptions{.ring_events = 1 << 16, .max_threads = 16});
    ps.trace = true;
    ps.capture = &capture;
    last = run_pass(ps, tally);
    metrics = PerLayer(last, args.untraced_p50_ms);
    const std::string stem = args.workload + ".json";
    WriteFile(args.out_dir / ("bench_" + stem), capture.bench->ToChromeJson());
    if (capture.query != nullptr) {
      WriteFile(args.out_dir / ("query_" + stem), capture.query->ToChromeJson());
    }
    if (!last.is_service) {
      WriteFile(args.out_dir / ("metrics_" + args.workload + ".prom"),
                obs::MetricsRegistry::Global().ToPrometheusText());
    }
    std::printf("{\"trace_offset_ns\": %" PRId64 "}\n", capture.query_offset_ns);
  }

  // Run context: printed beside the metrics, not as metrics.
  std::string simd = "none", backend = "none";
  for (const QuerySample& q : last.queries) {
    simd = simd::SimdKindName(q.simd_used);
    if (q.dmpsm) backend = io::IoBackendKindName(q.dmpsm->io_backend_used);
  }
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"queries\": %" PRIu64 ", \"nproc\": %u, \"loadavg_before\": \"%s\", "
      "\"loadavg_after\": \"%s\", \"cpu_model\": \"%s\", \"simd_used\": \"%s\", "
      "\"io_backend_used\": \"%s\", \"transparent_hugepage\": \"%s\"}}\n",
      args.workload.c_str(), args.seed, queries, nproc,
      JsonEscape(load_before).c_str(),
      JsonEscape(ReadFirstLine("/proc/loadavg")).c_str(),
      JsonEscape(CpuModel()).c_str(), simd.c_str(), backend.c_str(),
      JsonEscape(HugePageMode()).c_str());

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              tally.wrong == 0 ? "true" : "false", tally.attempted,
              tally.failed, MetricsJson(metrics).c_str());
  return 0;
}

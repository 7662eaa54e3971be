// Crash-and-resume harness: prove a SIGKILLed spilling join restarts
// from its durable manifest instead of from scratch (docs/recovery.md).
//
// For each kill point N the harness forks a child that executes a
// D-MPSM join with recovery enabled and kill_after_commits = N: the
// child SIGKILLs itself right after its N-th durable manifest commit —
// the worst crash there is, no destructors, no flushes, mid-query. The
// parent then forks a second child that calls Engine::Resume on the
// identical query and checks three things:
//
//   1. the resumed answer equals the single-threaded reference oracle,
//   2. durable spooled runs were re-attached (no re-sort of their data),
//   3. for late kill points, completed chunk walks were skipped.
//
// The relations are ~24x the staging-pool budget, so every run spills
// heavily; the sweep covers kill points across all commit types
// (public runs, private runs, chunk completions). Exit 0 only when
// every resume was exact and at least one skipped completed chunks.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/example_crash_resume_join [sync|threadpool|uring|auto]
//
// tools/crash_harness/run.sh sweeps this binary over the I/O backends.
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "baseline/reference_join.h"
#include "core/consumers.h"
#include "engine/engine.h"
#include "io/io_backend_kind.h"
#include "numa/topology.h"
#include "workload/generator.h"

using namespace mpsm;

namespace {

constexpr uint32_t kWorkers = 4;

struct Harness {
  numa::Topology topology = numa::Topology::Simulated(2, 8);
  workload::Dataset dataset;
  std::string dir;
  io::IoBackendKind backend = io::IoBackendKind::kThreadpool;

  engine::EngineOptions Options(uint64_t kill_after) const {
    engine::EngineOptions options;
    options.workers = kWorkers;
    options.force_algorithm = engine::Algorithm::kDMpsm;
    // 64-tuple pages, a 4-page staging ring: |R|+|S| is ~24x the pool,
    // so the join genuinely spills and the manifest genuinely matters.
    options.dmpsm.tuples_per_page = 64;
    options.dmpsm.pool_pages = 4;
    options.dmpsm.directory = dir;
    options.dmpsm.io_backend = backend;
    options.recovery.enabled = true;
    options.recovery.dir = dir;
    options.dmpsm.recovery.kill_after_commits = kill_after;
    return options;
  }
};

Harness MakeHarness(io::IoBackendKind backend) {
  Harness h;
  h.backend = backend;
  workload::DatasetSpec spec;
  spec.r_tuples = 2000;
  spec.multiplicity = 2.0;
  spec.key_domain = 6000;
  spec.seed = 2026;
  h.dataset = workload::Generate(h.topology, kWorkers, spec);
  return h;
}

/// Child body: run the join once with the given kill point. Returns the
/// child's exit code; a kill point inside the run never returns (the
/// journal SIGKILLs the process mid-Execute).
int RunOnce(const Harness& h, uint64_t kill_after) {
  engine::Engine engine(h.topology, h.Options(kill_after));
  CountFactory counts(kWorkers);
  engine::JoinSpec spec;
  spec.r = &h.dataset.r;
  spec.s = &h.dataset.s;
  spec.consumers = &counts;
  auto report = engine.Execute(spec);
  if (!report.ok()) {
    std::fprintf(stderr, "  child execute failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  return 42;  // ran to completion: the kill point was past the last commit
}

/// Child body: resume the identical query and verify it against the
/// reference oracle. Prints what was salvaged. Exit code 10 = exact
/// answer AND completed chunk walks were skipped, 0 = exact answer,
/// 1 = failure (the child's address space is gone at wait time, so the
/// exit code is the report).
int ResumeOnce(const Harness& h, uint64_t kill_after) {
  CountFactory reference(1);
  const uint64_t expected = baseline::ReferenceJoin(
      h.dataset.r.ToVector(), h.dataset.s.ToVector(), JoinKind::kInner,
      reference.ConsumerForWorker(0));

  engine::Engine engine(h.topology, h.Options(/*kill_after=*/0));
  CountFactory counts(kWorkers);
  engine::JoinSpec spec;
  spec.r = &h.dataset.r;
  spec.s = &h.dataset.s;
  spec.consumers = &counts;
  auto report = engine.Resume(spec);
  if (!report.ok()) {
    std::fprintf(stderr, "  resume failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  const auto& dmpsm = *report->dmpsm;
  std::printf(
      "  kill after %2llu commits -> resumed=%d runs_reattached=%u "
      "chunks_skipped=%u new_commits=%llu\n",
      static_cast<unsigned long long>(kill_after), dmpsm.resumed ? 1 : 0,
      dmpsm.runs_reattached, dmpsm.chunks_skipped,
      static_cast<unsigned long long>(dmpsm.journal_commits));
  if (counts.Result() != expected) {
    std::fprintf(stderr,
                 "  WRONG ANSWER: resumed count %llu != reference %llu\n",
                 static_cast<unsigned long long>(counts.Result()),
                 static_cast<unsigned long long>(expected));
    return 1;
  }
  return dmpsm.chunks_skipped > 0 ? 10 : 0;
}

/// Forks `body` and returns the child's wait status.
template <typename Body>
int Fork(Body body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int code = body();
    std::fflush(stdout);  // _exit skips stdio flush; don't lose the log
    std::fflush(stderr);
    ::_exit(code);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  io::IoBackendKind backend = io::IoBackendKind::kThreadpool;
  if (argc > 1) {
    if (std::strcmp(argv[1], "sync") == 0) {
      backend = io::IoBackendKind::kSync;
    } else if (std::strcmp(argv[1], "threadpool") == 0) {
      backend = io::IoBackendKind::kThreadpool;
    } else if (std::strcmp(argv[1], "uring") == 0) {
      backend = io::IoBackendKind::kUring;
    } else if (std::strcmp(argv[1], "auto") == 0) {
      backend = io::IoBackendKind::kAuto;
    } else {
      std::fprintf(stderr, "usage: %s [sync|threadpool|uring|auto]\n",
                   argv[0]);
      return 2;
    }
  }
  if (backend == io::IoBackendKind::kUring && !io::UringSupported()) {
    std::printf("io_uring not supported on this host; skipping\n");
    return 0;
  }

  char dir_template[] = "/tmp/mpsm_crash_harness_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::perror("mkdtemp");
    return 2;
  }
  Harness h = MakeHarness(backend);
  h.dir = dir_template;
  std::printf("crash harness: backend=%s artifacts=%s team=%u\n",
              io::IoBackendKindName(backend), h.dir.c_str(), kWorkers);
  std::fflush(stdout);  // children inherit the buffer; don't duplicate it

  // A full run on this shape commits 3 records per worker (public run,
  // private run, chunk walk) = 12; the sweep kills inside each band.
  const uint64_t kill_points[] = {1, 3, 5, 7, 9, 11, 12};
  bool any_chunk_skipped = false;
  int failures = 0;
  for (const uint64_t kill_after : kill_points) {
    const int status = Fork([&] { return RunOnce(h, kill_after); });
    if (WIFEXITED(status) && WEXITSTATUS(status) == 42) {
      std::printf("  kill after %2llu commits -> ran to completion\n",
                  static_cast<unsigned long long>(kill_after));
      continue;  // artifacts were retired by the successful run
    }
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
      std::fprintf(stderr, "  unexpected child status %d\n", status);
      ++failures;
      continue;
    }
    const int resume_status =
        Fork([&] { return ResumeOnce(h, kill_after); });
    const int code = WIFEXITED(resume_status) ? WEXITSTATUS(resume_status) : 1;
    if (code == 10) {
      any_chunk_skipped = true;
    } else if (code != 0) {
      std::fprintf(stderr, "  resume for kill point %llu failed\n",
                   static_cast<unsigned long long>(kill_after));
      ++failures;
    }
  }

  if (failures == 0 && any_chunk_skipped) {
    std::printf("OK: every kill point resumed to the exact answer, "
                "completed chunks were skipped\n");
    return 0;
  }
  std::fprintf(stderr, "FAILED: %d kill points misbehaved%s\n", failures,
               any_chunk_skipped ? "" : " (and no chunk was ever skipped)");
  return 1;
}

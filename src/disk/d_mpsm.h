// D-MPSM: the memory-constrained, disk-enabled MPSM join (§3.1).
//
// Both inputs are sorted into runs that are immediately spooled to a
// page store; only the pages around the key-domain position currently
// being joined are RAM-resident (Figure 4). All workers move through
// the key domain synchronously, following the page index; a prefetcher
// stages upcoming public pages ("yellow") into a bounded pool and pages
// processed by the slowest worker are released ("green"). Each worker
// keeps a sliding window of its own private run's pages; the window's
// low end advances with the index position.
#pragma once

#include <cstdint>
#include <string>

#include "bufferpool/buffer_pool.h"
#include "core/consumers.h"
#include "core/join_stats.h"
#include "core/join_types.h"
#include "disk/page_store.h"
#include "io/io_backend_kind.h"
#include "io/io_scheduler.h"
#include "parallel/scheduler_kind.h"
#include "parallel/worker_team.h"
#include "recovery/recovery_manager.h"
#include "simd/simd_kind.h"
#include "sort/radix_introsort.h"
#include "storage/relation.h"
#include "util/status.h"

namespace mpsm::disk {

/// Crash-recovery knobs of one D-MPSM execution (docs/recovery.md).
struct DMpsmRecoveryOptions {
  /// Maintain a durable manifest: spool through a persistent named
  /// file (`spool_path`) and commit a checksummed record to
  /// `journal_path` after each run's pages are durable and after each
  /// completed chunk walk. Off, the spool is an anonymous temp file
  /// that dies with the process.
  bool journal = false;
  std::string journal_path;
  std::string spool_path;

  /// Validated durable state from a previous incarnation of this query
  /// (RecoveryManager::Load). Borrowed; must outlive Execute. Null (or
  /// empty) = cold start. Requires `journal`.
  const recovery::ResumeState* resume = nullptr;

  /// Keep the manifest and spool file after a *successful* run instead
  /// of retiring them (tests and the crash harness inspect/truncate
  /// them). Failed runs always keep their artifacts for the retry.
  bool retain_artifacts = false;

  /// Record an fnv1a checksum over each run's tuple content in its
  /// manifest record (costs one pass over every spooled byte on the
  /// sort path). Only RecoveryManagerOptions::verify_runs reads it; a
  /// run committed without one (checksum 0) is re-attached on
  /// structural validation alone.
  bool checksum_runs = false;

  /// Per-commit durability. Relaxed (the default) makes every commit
  /// process-crash durable — the run's write-backs have completed and
  /// the manifest record is written before the commit returns, so a
  /// SIGKILL'd query resumes from it via the surviving OS page cache —
  /// and defers device fdatasyncs to query end (a power cut may lose
  /// the un-synced tail; resume treats it as ordinary lost work).
  /// Strict pays an fdatasync write barrier on the spool plus one on
  /// the manifest *per commit* (~2 device flushes each, D-MPSM commits
  /// 3x team_size times per query) for power-loss-grade durability.
  bool strict_sync = false;

  /// Crash injection (tools/crash_harness): SIGKILL this process right
  /// after the n-th durable manifest commit. 0 = off.
  uint64_t kill_after_commits = 0;

  friend bool operator==(const DMpsmRecoveryOptions&,
                         const DMpsmRecoveryOptions&) = default;
};

/// D-MPSM tuning.
struct DMpsmOptions {
  /// Page size in tuples for both spooled inputs.
  size_t tuples_per_page = 4096;
  /// Public-input staging ring capacity in pages (the RAM budget for
  /// decoded shared S pages). >= 1.
  size_t pool_pages = 64;

  /// Buffer-pool RAM budget in bytes (docs/storage.md). 0 derives a
  /// legacy-compatible frame count from pool_pages plus per-worker
  /// readahead headroom; nonzero caps the pool's frames at
  /// budget / page_bytes (floored at a small working minimum) and
  /// shrinks the staging ring and private-window readahead to fit, so
  /// relations far larger than the budget run with eviction and
  /// write-back instead of growing RAM.
  uint64_t pool_budget_bytes = 0;

  /// Spool directory and synthetic I/O delay (see PageStoreOptions).
  std::string directory = "/tmp";
  uint32_t io_delay_us = 0;

  /// Sort used when spooling chunks (docs/tuning.md).
  sort::SortKind sort = sort::SortKind::kMultiPassRadix;

  /// Bucket threshold / pass cap of the multi-pass radix sort.
  sort::RadixSortConfig sort_config;

  /// Software-prefetch lookahead (tuples) of the page merge-join
  /// kernel; 0 selects the scalar kernel.
  uint32_t merge_prefetch_distance = kDefaultMergePrefetchDistance;

  /// Vector ISA of the page merge-join kernel (docs/simd.md); the sort
  /// passes follow sort_config.simd.
  simd::SimdKind simd = simd::SimdKind::kAuto;

  /// Phase orchestration (docs/scheduler.md). Stealing makes the
  /// sort+spool work of phases 1/3 stealable morsels and turns page
  /// fetches into tasks blocked consumers execute themselves
  /// (StagingPipeline consumer_loads).
  SchedulerKind scheduler = SchedulerKind::kStatic;

  /// Async page-I/O engine for staging-pool and private-window fetches
  /// (docs/io.md). kSync is the blocking baseline (every fetch stalls
  /// its submitter for the device round-trip); kAuto picks io_uring
  /// when the kernel supports it, else the threadpool.
  io::IoBackendKind io_backend = io::IoBackendKind::kThreadpool;

  /// Most vectored reads in flight at the backend at once (>= 1).
  size_t io_queue_depth = 16;

  /// Most adjacent pages coalesced into one vectored read, and the
  /// per-worker private-window readahead depth
  /// (1 <= io_batch_pages <= io::kMaxIovPerRead).
  size_t io_batch_pages = 8;

  /// In-flight byte budget toward the I/O backend; 0 derives
  /// queue_depth * batch_pages * page_bytes (no extra cap). A join
  /// service running several spilling sessions concurrently divides
  /// its device budget across them through this knob.
  uint64_t io_max_inflight_bytes = 0;

  /// Crash-safe restartability (docs/recovery.md): durable manifest,
  /// persistent spool, resume state.
  DMpsmRecoveryOptions recovery;

  /// Checks every knob against its legal range (e.g. pool_pages >= 1).
  /// Execute and the engine front door both call this.
  Status Validate() const;

  friend bool operator==(const DMpsmOptions&, const DMpsmOptions&) = default;
};

/// Observability for tests and the spill example.
struct DMpsmReport {
  IoStats io;
  /// Async I/O subsystem counters: pages read through the scheduler,
  /// vectored batches, coalescing wins, stall time, queue depths.
  io::IoSchedulerStats io_sched;
  /// Concrete backend the run used (kAuto resolved).
  io::IoBackendKind io_backend_used = io::IoBackendKind::kThreadpool;
  /// Peak resident S pages in the shared staging ring.
  size_t peak_pool_pages = 0;
  /// Distinct NUMA nodes the buffer pool's frames are homed on
  /// (NUMA-interleaved allocation; 1 on single-node hosts).
  uint32_t staging_nodes = 1;
  /// Buffer pool counters: hits, misses, evictions, write-backs,
  /// append stalls (docs/storage.md).
  bufferpool::BufferPoolStats pool;
  /// Wall nanoseconds workers spent blocked spooling run pages, summed
  /// over workers: the wait for a free frame under async write-back.
  uint64_t spool_write_stall_ns = 0;
  /// Peak private-window tuples over all workers.
  size_t peak_window_tuples = 0;
  /// Entries in the S page index.
  size_t index_entries = 0;
  /// Page fetches submitted by consumers instead of the prefetch
  /// thread (stealing scheduler only — page fetches as stealable
  /// tasks).
  uint64_t consumer_page_loads = 0;

  // ---------------------------------- crash recovery (docs/recovery.md)
  /// A validated manifest contributed durable state to this execution.
  bool resumed = false;
  /// Spooled runs re-attached from the manifest (phases 1/3 skipped
  /// for them) instead of re-sorted and re-spooled.
  uint32_t runs_reattached = 0;
  /// Phase-4 chunk walks skipped via restored consumer snapshots.
  uint32_t chunks_skipped = 0;
  /// Run/chunk records this execution durably committed.
  uint64_t journal_commits = 0;
};

/// The disk-enabled MPSM join (inner joins).
class DMpsmJoin {
 public:
  explicit DMpsmJoin(DMpsmOptions options = {}) : options_(options) {}

  /// Joins `r_private` with `s_public`, spooling all runs through a
  /// page store. Relations must be chunked into team.size() chunks.
  Result<JoinRunInfo> Execute(WorkerTeam& team, const Relation& r_private,
                              const Relation& s_public,
                              ConsumerFactory& consumers,
                              DMpsmReport* report = nullptr) const;

  const DMpsmOptions& options() const { return options_; }

 private:
  DMpsmOptions options_;
};

}  // namespace mpsm::disk

// Crash-safe restartable joins (docs/recovery.md): journal framing and
// replay repair, the recovery manager's validation ladder, end-to-end
// D-MPSM resume equality across randomized crash points, and the
// engine/service resume surfaces.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "baseline/reference_join.h"
#include "core/consumers.h"
#include "disk/d_mpsm.h"
#include "engine/engine.h"
#include "numa/topology.h"
#include "recovery/join_journal.h"
#include "recovery/recovery_manager.h"
#include "service/join_service.h"
#include "workload/generator.h"

namespace mpsm {
namespace {

using disk::DMpsmJoin;
using disk::DMpsmOptions;
using disk::DMpsmReport;
using disk::PageIndexEntry;
using recovery::ChunkRecord;
using recovery::FingerprintFor;
using recovery::JoinJournal;
using recovery::QueryFingerprint;
using recovery::RecoveryManager;
using recovery::RecoveryManagerOptions;
using recovery::ResumeState;
using recovery::RunRecord;

constexpr size_t kTuplesPerPage = 64;
constexpr uint32_t kTeam = 4;

/// Unique scratch directory per test: manifests are named by query
/// fingerprint, and parallel test processes would otherwise collide on
/// a shared /tmp.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/mpsm_recovery_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    DIR* dir = ::opendir(path.c_str());
    if (dir != nullptr) {
      while (const dirent* entry = ::readdir(dir)) {
        if (std::strcmp(entry->d_name, ".") == 0 ||
            std::strcmp(entry->d_name, "..") == 0) {
          continue;
        }
        ::unlink((path + "/" + entry->d_name).c_str());
      }
      ::closedir(dir);
    }
    ::rmdir(path.c_str());
  }
};

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::vector<char> bytes;
  const int fd = ::open(path.c_str(), O_RDONLY);
  EXPECT_GE(fd, 0) << path;
  if (fd < 0) return bytes;
  struct stat st{};
  EXPECT_EQ(::fstat(fd, &st), 0);
  bytes.resize(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + done, bytes.size() - done);
    EXPECT_GT(n, 0);
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  return bytes;
}

void WriteFileBytes(const std::string& path, const char* data, size_t len) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0) << path;
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    ASSERT_GT(n, 0);
    done += static_cast<size_t>(n);
  }
  ::close(fd);
}

QueryFingerprint TestFingerprint() {
  QueryFingerprint fp;
  fp.r_id = 11;
  fp.r_version = 1;
  fp.r_tuples = 1000;
  fp.s_id = 12;
  fp.s_version = 2;
  fp.s_tuples = 2000;
  fp.join_kind = 0;
  fp.team_size = kTeam;
  fp.tuples_per_page = kTuplesPerPage;
  return fp;
}

// ------------------------------------------------------------- journal

TEST(JoinJournalTest, RoundTripsHeaderRunsAndChunks) {
  TempDir dir;
  const std::string path = dir.path + "/m.jnl";
  const QueryFingerprint fp = TestFingerprint();
  auto journal = JoinJournal::Create(path, fp);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();

  RunRecord run;
  run.run_id = 2;
  run.is_private = true;
  run.content_checksum = 0xabcdef;
  run.pages.push_back(PageIndexEntry{10, 2, 0, 64});
  run.pages.push_back(PageIndexEntry{20, 2, 1, 32});
  ASSERT_TRUE((*journal)->CommitRun(run).ok());

  ChunkRecord chunk;
  chunk.worker = 1;
  chunk.state = std::string("a\0b", 3);  // embedded NUL must survive
  ASSERT_TRUE((*journal)->CommitChunk(chunk).ok());
  EXPECT_EQ((*journal)->commits(), 2u);
  journal->reset();  // close before replay

  auto replay = JoinJournal::ReplayFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->tail_truncated);
  EXPECT_EQ(replay->fingerprint, fp);
  ASSERT_EQ(replay->runs.size(), 1u);
  EXPECT_EQ(replay->runs[0].run_id, 2u);
  EXPECT_TRUE(replay->runs[0].is_private);
  EXPECT_EQ(replay->runs[0].content_checksum, 0xabcdefu);
  ASSERT_EQ(replay->runs[0].pages.size(), 2u);
  EXPECT_EQ(replay->runs[0].pages[0].min_key, 10u);
  EXPECT_EQ(replay->runs[0].pages[1].page, 1u);
  EXPECT_EQ(replay->runs[0].pages[1].tuple_count, 32u);
  ASSERT_EQ(replay->chunks.size(), 1u);
  EXPECT_EQ(replay->chunks[0].worker, 1u);
  EXPECT_EQ(replay->chunks[0].state, std::string("a\0b", 3));
}

TEST(JoinJournalTest, TornTailIsTruncatedInPlace) {
  TempDir dir;
  const std::string path = dir.path + "/m.jnl";
  const QueryFingerprint fp = TestFingerprint();
  auto journal = JoinJournal::Create(path, fp);
  ASSERT_TRUE(journal.ok());
  RunRecord run;
  run.run_id = 0;
  run.pages.push_back(PageIndexEntry{5, 0, 0, 64});
  ASSERT_TRUE((*journal)->CommitRun(run).ok());
  journal->reset();

  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  const uint64_t valid_size = static_cast<uint64_t>(st.st_size);

  // A crash mid-append leaves a torn frame at the tail.
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, "torn-frame-bytes", 16), 16);
  ::close(fd);

  auto replay = JoinJournal::ReplayFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->tail_truncated);
  EXPECT_EQ(replay->valid_bytes, valid_size);
  ASSERT_EQ(replay->runs.size(), 1u);

  // The repair is durable: the file shrank back and replays clean.
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(static_cast<uint64_t>(st.st_size), valid_size);
  auto again = JoinJournal::ReplayFile(path);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->tail_truncated);
}

TEST(JoinJournalTest, CorruptedTailRecordIsDropped) {
  TempDir dir;
  const std::string path = dir.path + "/m.jnl";
  auto journal = JoinJournal::Create(path, TestFingerprint());
  ASSERT_TRUE(journal.ok());
  for (uint32_t w = 0; w < 3; ++w) {
    RunRecord run;
    run.run_id = w;
    run.pages.push_back(PageIndexEntry{w, w, w, 64});
    ASSERT_TRUE((*journal)->CommitRun(run).ok());
  }
  journal->reset();

  // Flip a byte inside the last record's checksum footer.
  std::vector<char> bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 4u);
  bytes[bytes.size() - 3] ^= 0x40;
  WriteFileBytes(path, bytes.data(), bytes.size());

  auto replay = JoinJournal::ReplayFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->tail_truncated);
  EXPECT_EQ(replay->runs.size(), 2u);  // the corrupt third is gone
}

TEST(JoinJournalTest, MissingManifestIsNotFound) {
  TempDir dir;
  const auto replay = JoinJournal::ReplayFile(dir.path + "/absent.jnl");
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kNotFound);
}

TEST(JoinJournalTest, HeaderlessGarbageIsInvalidArgument) {
  TempDir dir;
  const std::string path = dir.path + "/m.jnl";
  const char garbage[] = "definitely not a join manifest, long enough";
  WriteFileBytes(path, garbage, sizeof(garbage));
  const auto replay = JoinJournal::ReplayFile(path);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------- manager

TEST(RecoveryManagerTest, LoadWithoutManifestIsCold) {
  TempDir dir;
  RecoveryManager manager({dir.path, false, kTuplesPerPage});
  auto state = manager.Load(TestFingerprint());
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_FALSE(state->HasWork());
  EXPECT_EQ(state->adopted_pages, 0u);
}

TEST(RecoveryManagerTest, ForeignHeaderFallsBackColdAndRetires) {
  TempDir dir;
  RecoveryManager manager({dir.path, false, kTuplesPerPage});
  const QueryFingerprint fp = TestFingerprint();
  QueryFingerprint stale = fp;
  stale.s_version += 1;

  // A manifest at fp's path carrying a different header (the hash
  // collision / renamed-file defense): cold run, artifact removed.
  auto journal = JoinJournal::Create(manager.JournalPath(fp), stale);
  ASSERT_TRUE(journal.ok());
  journal->reset();

  auto state = manager.Load(fp);
  ASSERT_TRUE(state.ok());
  EXPECT_FALSE(state->HasWork());
  EXPECT_FALSE(FileExists(manager.JournalPath(fp)));
}

TEST(RecoveryManagerTest, ImplausibleRunsAreDroppedPlausibleKept) {
  TempDir dir;
  RecoveryManager manager({dir.path, false, kTuplesPerPage});
  const QueryFingerprint fp = TestFingerprint();
  auto journal = JoinJournal::Create(manager.JournalPath(fp), fp);
  ASSERT_TRUE(journal.ok());

  RunRecord bad_worker;  // worker id out of range
  bad_worker.run_id = kTeam + 3;
  bad_worker.pages.push_back(PageIndexEntry{1, kTeam + 3, 0, 64});
  ASSERT_TRUE((*journal)->CommitRun(bad_worker).ok());

  RunRecord bad_count;  // per-page count over the geometry
  bad_count.run_id = 1;
  bad_count.pages.push_back(
      PageIndexEntry{1, 1, 0, static_cast<uint32_t>(kTuplesPerPage + 1)});
  ASSERT_TRUE((*journal)->CommitRun(bad_count).ok());

  RunRecord bad_order;  // min keys must be non-decreasing
  bad_order.run_id = 2;
  bad_order.pages.push_back(PageIndexEntry{9, 2, 0, 64});
  bad_order.pages.push_back(PageIndexEntry{3, 2, 1, 64});
  ASSERT_TRUE((*journal)->CommitRun(bad_order).ok());

  RunRecord good;
  good.run_id = 3;
  good.pages.push_back(PageIndexEntry{1, 3, 0, 64});
  good.pages.push_back(PageIndexEntry{7, 3, 1, 64});
  ASSERT_TRUE((*journal)->CommitRun(good).ok());
  journal->reset();

  // Spool sized to cover the adopted pages (content unchecked here).
  const size_t page_bytes = kTuplesPerPage * sizeof(Tuple) + sizeof(uint64_t);
  std::vector<char> spool(2 * page_bytes, 0);
  WriteFileBytes(manager.SpoolPath(fp), spool.data(), spool.size());

  auto state = manager.Load(fp);
  ASSERT_TRUE(state.ok());
  ASSERT_EQ(state->public_runs.size(), kTeam);
  EXPECT_FALSE(state->public_runs[1].has_value());
  EXPECT_FALSE(state->public_runs[2].has_value());
  ASSERT_TRUE(state->public_runs[3].has_value());
  EXPECT_EQ(state->public_runs[3]->pages.size(), 2u);
  EXPECT_EQ(state->adopted_pages, 2u);
}

TEST(RecoveryManagerTest, ShortSpoolFallsBackCold) {
  TempDir dir;
  RecoveryManager manager({dir.path, false, kTuplesPerPage});
  const QueryFingerprint fp = TestFingerprint();
  auto journal = JoinJournal::Create(manager.JournalPath(fp), fp);
  ASSERT_TRUE(journal.ok());
  RunRecord run;
  run.run_id = 0;
  run.pages.push_back(PageIndexEntry{1, 0, 0, 64});
  run.pages.push_back(PageIndexEntry{5, 0, 3, 64});  // needs 4 pages
  ASSERT_TRUE((*journal)->CommitRun(run).ok());
  journal->reset();
  WriteFileBytes(manager.SpoolPath(fp), "short", 5);

  auto state = manager.Load(fp);
  ASSERT_TRUE(state.ok());
  EXPECT_FALSE(state->HasWork());
  EXPECT_FALSE(FileExists(manager.JournalPath(fp)));
  EXPECT_FALSE(FileExists(manager.SpoolPath(fp)));
}

// --------------------------------------------------- d-mpsm end to end

DMpsmOptions JournaledOptions(const RecoveryManager& manager,
                              const QueryFingerprint& fp,
                              const std::string& dir) {
  DMpsmOptions options;
  options.tuples_per_page = kTuplesPerPage;
  options.pool_pages = 4;
  options.directory = dir;
  options.recovery.journal = true;
  options.recovery.journal_path = manager.JournalPath(fp);
  options.recovery.spool_path = manager.SpoolPath(fp);
  options.recovery.retain_artifacts = true;
  options.recovery.checksum_runs = true;
  return options;
}

TEST(DMpsmRecoveryTest, JournaledColdRunMatchesReferenceAndRetires) {
  TempDir dir;
  const auto topology = numa::Topology::Simulated(2, 8);
  workload::DatasetSpec spec;
  spec.r_tuples = 4000;
  spec.multiplicity = 2.0;
  spec.key_domain = 12000;
  spec.seed = 77;
  const auto dataset = workload::Generate(topology, kTeam, spec);
  WorkerTeam team(topology, kTeam);

  CountFactory reference(1);
  const uint64_t expected = baseline::ReferenceJoin(
      dataset.r.ToVector(), dataset.s.ToVector(), JoinKind::kInner,
      reference.ConsumerForWorker(0));

  RecoveryManager manager({dir.path, false, kTuplesPerPage});
  const QueryFingerprint fp =
      FingerprintFor(dataset.r, dataset.s, kTeam, kTuplesPerPage);
  DMpsmOptions options = JournaledOptions(manager, fp, dir.path);
  options.recovery.retain_artifacts = false;

  CountFactory counts(kTeam);
  DMpsmReport report;
  auto info = DMpsmJoin(options).Execute(team, dataset.r, dataset.s, counts,
                                         &report);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(counts.Result(), expected);
  EXPECT_FALSE(report.resumed);
  // One record per public run, private run, and completed chunk.
  EXPECT_EQ(report.journal_commits, 3u * kTeam);
  // Success retires both artifacts.
  EXPECT_FALSE(FileExists(manager.JournalPath(fp)));
  EXPECT_FALSE(FileExists(manager.SpoolPath(fp)));
}

TEST(DMpsmRecoveryTest, ResumeFromCompleteManifestSkipsEverything) {
  TempDir dir;
  const auto topology = numa::Topology::Simulated(2, 8);
  workload::DatasetSpec spec;
  spec.r_tuples = 4000;
  spec.multiplicity = 2.0;
  spec.key_domain = 12000;
  spec.seed = 78;
  const auto dataset = workload::Generate(topology, kTeam, spec);
  WorkerTeam team(topology, kTeam);

  RecoveryManager manager({dir.path, false, kTuplesPerPage});
  const QueryFingerprint fp =
      FingerprintFor(dataset.r, dataset.s, kTeam, kTuplesPerPage);
  DMpsmOptions options = JournaledOptions(manager, fp, dir.path);

  CountFactory first(kTeam);
  ASSERT_TRUE(
      DMpsmJoin(options).Execute(team, dataset.r, dataset.s, first).ok());

  auto state = manager.Load(fp);
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state->HasWork());
  EXPECT_GT(state->adopted_pages, 0u);

  options.recovery.resume = &*state;
  CountFactory second(kTeam);
  DMpsmReport report;
  auto info = DMpsmJoin(options).Execute(team, dataset.r, dataset.s, second,
                                         &report);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(second.Result(), first.Result());
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.runs_reattached, 2u * kTeam);
  EXPECT_EQ(report.chunks_skipped, kTeam);
  // Everything was durable already: nothing new to commit.
  EXPECT_EQ(report.journal_commits, 0u);
}

std::vector<OutputRow> SortedRows(std::vector<OutputRow> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const OutputRow& a, const OutputRow& b) {
              if (a.key != b.key) return a.key < b.key;
              if (a.r_payload != b.r_payload) return a.r_payload < b.r_payload;
              return a.s_payload.value_or(0) < b.s_payload.value_or(0);
            });
  return rows;
}

TEST(DMpsmRecoveryTest, RandomizedCrashPointsResumeToExactOutput) {
  // Commit discipline makes any record-prefix of the journal a valid
  // crash state (join_journal.h), so truncating/corrupting a completed
  // run's artifacts simulates arbitrary crash points. Every variant
  // must resume (or fall back cold) to the exact reference output.
  TempDir dir;
  const auto topology = numa::Topology::Simulated(2, 8);
  workload::DatasetSpec spec;
  spec.r_tuples = 3000;
  spec.multiplicity = 2.0;
  spec.key_domain = 9000;
  spec.seed = 79;
  const auto dataset = workload::Generate(topology, kTeam, spec);
  WorkerTeam team(topology, kTeam);

  MaterializeFactory reference(1);
  baseline::ReferenceJoin(dataset.r.ToVector(), dataset.s.ToVector(),
                          JoinKind::kInner,
                          reference.ConsumerForWorker(0));
  const std::vector<OutputRow> expected = SortedRows(reference.AllRows());

  // verify_runs on: resumed trials must also survive the paranoid
  // content-checksum pass.
  RecoveryManager manager({dir.path, true, kTuplesPerPage});
  const QueryFingerprint fp =
      FingerprintFor(dataset.r, dataset.s, kTeam, kTuplesPerPage);
  const DMpsmOptions base = JournaledOptions(manager, fp, dir.path);

  MaterializeFactory full(kTeam);
  ASSERT_TRUE(
      DMpsmJoin(base).Execute(team, dataset.r, dataset.s, full).ok());
  ASSERT_EQ(SortedRows(full.AllRows()), expected);

  const std::vector<char> journal_bytes =
      ReadFileBytes(manager.JournalPath(fp));
  const std::vector<char> spool_bytes = ReadFileBytes(manager.SpoolPath(fp));
  ASSERT_GT(journal_bytes.size(), 0u);
  ASSERT_GT(spool_bytes.size(), 0u);

  std::mt19937 rng(1234);
  for (int trial = 0; trial < 12; ++trial) {
    // Restore the crashed incarnation's artifacts, then damage them.
    WriteFileBytes(manager.SpoolPath(fp), spool_bytes.data(),
                   spool_bytes.size());
    std::vector<char> journal = journal_bytes;
    const int mode = trial % 3;
    if (mode == 0) {  // crash at an arbitrary byte: truncated tail
      journal.resize(rng() % (journal.size() + 1));
    } else if (mode == 1) {  // bit rot / torn frame mid-file
      if (!journal.empty()) journal[rng() % journal.size()] ^= 0x20;
    }  // mode 2: intact manifest (clean kill after the last commit)
    WriteFileBytes(manager.JournalPath(fp), journal.data(), journal.size());

    auto state = manager.Load(fp);
    ASSERT_TRUE(state.ok()) << "trial " << trial << ": "
                            << state.status().ToString();

    DMpsmOptions options = base;
    options.recovery.resume = &*state;
    MaterializeFactory out(kTeam);
    DMpsmReport report;
    auto info = DMpsmJoin(options).Execute(team, dataset.r, dataset.s, out,
                                           &report);
    ASSERT_TRUE(info.ok())
        << "trial " << trial << ": " << info.status().ToString();
    EXPECT_EQ(SortedRows(out.AllRows()), expected) << "trial " << trial;
    if (state->HasWork()) {
      EXPECT_TRUE(report.resumed) << "trial " << trial;
    }
  }
}

TEST(DMpsmRecoveryTest, BumpedRelationVersionRunsColdAndCorrect) {
  TempDir dir;
  const auto topology = numa::Topology::Simulated(2, 8);
  workload::DatasetSpec spec;
  spec.r_tuples = 3000;
  spec.multiplicity = 2.0;
  spec.key_domain = 9000;
  spec.seed = 80;
  auto dataset = workload::Generate(topology, kTeam, spec);
  WorkerTeam team(topology, kTeam);

  RecoveryManager manager({dir.path, false, kTuplesPerPage});
  const QueryFingerprint fp =
      FingerprintFor(dataset.r, dataset.s, kTeam, kTuplesPerPage);
  const DMpsmOptions options = JournaledOptions(manager, fp, dir.path);
  CountFactory first(kTeam);
  ASSERT_TRUE(
      DMpsmJoin(options).Execute(team, dataset.r, dataset.s, first).ok());

  // The input changed: the durable state keys to a different
  // fingerprint, so the restarted query finds nothing and runs cold.
  dataset.s.BumpVersion();
  const QueryFingerprint bumped =
      FingerprintFor(dataset.r, dataset.s, kTeam, kTuplesPerPage);
  EXPECT_NE(bumped.Hash(), fp.Hash());
  auto state = manager.Load(bumped);
  ASSERT_TRUE(state.ok());
  EXPECT_FALSE(state->HasWork());

  DMpsmOptions cold = JournaledOptions(manager, bumped, dir.path);
  cold.recovery.resume = &*state;
  CountFactory second(kTeam);
  DMpsmReport report;
  ASSERT_TRUE(DMpsmJoin(cold)
                  .Execute(team, dataset.r, dataset.s, second, &report)
                  .ok());
  EXPECT_EQ(second.Result(), first.Result());
  EXPECT_FALSE(report.resumed);
  EXPECT_EQ(report.chunks_skipped, 0u);
}

// ------------------------------------------------------ engine surface

TEST(EngineRecoveryTest, ExecuteThenResumeSkipsCompletedWork) {
  TempDir dir;
  const auto topology = numa::Topology::Simulated(2, 8);
  workload::DatasetSpec spec;
  spec.r_tuples = 4000;
  spec.multiplicity = 2.0;
  spec.key_domain = 12000;
  spec.seed = 81;
  const auto dataset = workload::Generate(topology, kTeam, spec);

  engine::EngineOptions options;
  options.workers = kTeam;
  options.force_algorithm = engine::Algorithm::kDMpsm;
  options.dmpsm.tuples_per_page = kTuplesPerPage;
  options.dmpsm.pool_pages = 4;
  options.dmpsm.directory = dir.path;
  options.recovery.enabled = true;
  options.recovery.dir = dir.path;
  options.dmpsm.recovery.retain_artifacts = true;
  engine::Engine engine(topology, options);

  CountFactory first(kTeam);
  engine::JoinSpec spec_first;
  spec_first.r = &dataset.r;
  spec_first.s = &dataset.s;
  spec_first.consumers = &first;
  auto report = engine.Execute(spec_first);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->dmpsm.has_value());
  EXPECT_FALSE(report->dmpsm->resumed);
  EXPECT_EQ(report->dmpsm->journal_commits, 3u * kTeam);

  // The retained manifest stands in for a crashed first incarnation.
  CountFactory second(kTeam);
  engine::JoinSpec spec_second = spec_first;
  spec_second.consumers = &second;
  auto resumed = engine.Resume(spec_second);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_TRUE(resumed->dmpsm.has_value());
  EXPECT_TRUE(resumed->dmpsm->resumed);
  EXPECT_EQ(resumed->dmpsm->chunks_skipped, kTeam);
  EXPECT_EQ(second.Result(), first.Result());

  // The recovery counters ride the JSON report.
  const std::string json = resumed->ToJson();
  EXPECT_NE(json.find("\"resumed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"chunks_skipped\":4"), std::string::npos);
}

// ----------------------------------------------------- service surface

TEST(ServiceRecoveryTest, ResubmissionResumesAndCountsIt) {
  TempDir dir;
  const auto topology = numa::Topology::Simulated(2, 8);
  workload::DatasetSpec spec;
  spec.r_tuples = 4000;
  spec.multiplicity = 2.0;
  spec.key_domain = 12000;
  spec.seed = 82;
  const auto dataset = workload::Generate(topology, kTeam, spec);

  service::ServiceOptions options;
  options.lanes = 1;
  options.engine.workers = kTeam;
  options.engine.dmpsm.tuples_per_page = kTuplesPerPage;
  options.engine.dmpsm.pool_pages = 4;
  options.engine.dmpsm.directory = dir.path;
  options.engine.recovery.enabled = true;
  options.engine.recovery.dir = dir.path;
  options.engine.dmpsm.recovery.retain_artifacts = true;
  service::JoinService service(topology, options);

  engine::JoinSpec join;
  join.r = &dataset.r;
  join.s = &dataset.s;
  join.algorithm = engine::Algorithm::kDMpsm;

  CountFactory first(kTeam);
  join.consumers = &first;
  auto id = service.Submit(join);
  ASSERT_TRUE(id.ok());
  auto report = service.Wait(*id);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(service.stats().resumed_queries, 0u);

  // Resubmitting the identical query models the post-crash retry: the
  // retained manifest is picked up and the walks are skipped.
  CountFactory second(kTeam);
  join.consumers = &second;
  id = service.Submit(join);
  ASSERT_TRUE(id.ok());
  auto retried = service.Wait(*id);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ASSERT_TRUE(retried->dmpsm.has_value());
  EXPECT_TRUE(retried->dmpsm->resumed);
  EXPECT_EQ(second.Result(), first.Result());
  EXPECT_EQ(service.stats().resumed_queries, 1u);
}

}  // namespace
}  // namespace mpsm

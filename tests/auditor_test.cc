// Direct Auditor API tests: check variants agree, snapshots chain, and
// the auditor works from raw files alone (the external-auditor story).

#include "audit/auditor.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>

#include "adversary/mala.h"
#include "common/thread_pool.h"
#include "db/compliant_db.h"
#include "test_dir.h"

namespace complydb {
namespace {

constexpr uint64_t kMinute = 60ull * 1'000'000;

class AuditorTest : public ::testing::Test {
 protected:
  DbOptions MakeOptions() {
    DbOptions opts;
    opts.dir = dir_;
    opts.cache_pages = 64;
    opts.clock = &clock_;
    opts.compliance.enabled = true;
    opts.compliance.hash_on_read = true;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    return opts;
  }

  void SetUp() override {
    dir_ = test_dir_.Reset("auditor_" + testutil::TestName());
    auto r = CompliantDB::Open(MakeOptions());
    ASSERT_TRUE(r.ok());
    db_.reset(r.value());
    auto t = db_->CreateTable("t");
    ASSERT_TRUE(t.ok());
    table_ = t.value();
    for (int i = 0; i < 60; ++i) {
      auto txn = db_->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(db_->Put(txn.value(), table_, "k" + std::to_string(i % 20),
                           "v" + std::to_string(i))
                      .ok());
      ASSERT_TRUE(db_->Commit(txn.value()).ok());
    }
    ASSERT_TRUE(db_->FlushAll().ok());
  }

  AuditOptions BaseOptions() {
    AuditOptions opts;
    opts.auditor_key = "auditor-secret-key";
    opts.verify_read_hashes = true;
    opts.identity_hash_check = true;
    opts.regret_interval_micros = 5 * kMinute;
    opts.wal_path = db_->wal_path();
    return opts;
  }

  AuditReport RunAudit(uint32_t num_threads) {
    AuditOptions opts = BaseOptions();
    opts.num_threads = num_threads;
    Auditor auditor(opts, db_->worm(), db_->disk());
    auto report = auditor.Audit(db_->epoch(), /*write_snapshot=*/false);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? report.value() : AuditReport();
  }

  // Everything except timings and threads_used must be byte-identical.
  static void ExpectIdenticalReports(const AuditReport& a,
                                     const AuditReport& b) {
    EXPECT_EQ(a.problems, b.problems);
    EXPECT_EQ(a.shredded_hist_files, b.shredded_hist_files);
    EXPECT_EQ(a.log_records, b.log_records);
    EXPECT_EQ(a.pages_checked, b.pages_checked);
    EXPECT_EQ(a.tuples_checked, b.tuples_checked);
    EXPECT_EQ(a.read_hashes_checked, b.read_hashes_checked);
    EXPECT_EQ(a.shreds_verified, b.shreds_verified);
    EXPECT_EQ(a.migrations_verified, b.migrations_verified);
    EXPECT_EQ(a.identity_checks_run, b.identity_checks_run);
  }

  SimulatedClock clock_;
  testutil::TestDir test_dir_;
  std::string dir_;
  uint32_t table_ = 0;
  std::unique_ptr<CompliantDB> db_;
};

TEST_F(AuditorTest, SortMergeAndAddHashAgreeOnCleanState) {
  for (bool sort_merge : {false, true}) {
    AuditOptions opts = BaseOptions();
    opts.sort_merge_check = sort_merge;
    Auditor auditor(opts, db_->worm(), db_->disk());
    auto report = auditor.Audit(db_->epoch(), /*write_snapshot=*/false);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().ok())
        << (sort_merge ? "sort-merge" : "add-hash") << ": "
        << report.value().problems[0];
  }
}

TEST_F(AuditorTest, RepeatedAuditWithoutSnapshotIsIdempotent) {
  Auditor auditor(BaseOptions(), db_->worm(), db_->disk());
  for (int i = 0; i < 3; ++i) {
    auto report = auditor.Audit(db_->epoch(), /*write_snapshot=*/false);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().ok()) << "iteration " << i;
  }
  // No snapshot was written: the next epoch's file must not exist.
  EXPECT_FALSE(db_->worm()->Exists(SnapshotFileName(db_->epoch() + 1)));
}

TEST_F(AuditorTest, SnapshotChainVerifiesAcrossEpochs) {
  // Facade-driven audits write snapshot_{n+1}; each must verify under the
  // auditor key and seed the next audit.
  for (int epoch = 0; epoch < 3; ++epoch) {
    auto report = db_->Audit();
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report.value().ok());
    auto snap = Snapshot::ReadVerified(db_->worm(), db_->epoch(),
                                       "auditor-secret-key");
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    EXPECT_EQ(snap.value().epoch, db_->epoch());
    // More work for the next epoch.
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db_->Put(txn.value(), table_, "e" + std::to_string(epoch),
                         "x")
                    .ok());
    ASSERT_TRUE(db_->Commit(txn.value()).ok());
    ASSERT_TRUE(db_->FlushAll().ok());
  }
}

TEST_F(AuditorTest, WrongKeyCannotVerifyOrForgeSnapshots) {
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().ok());
  auto snap = Snapshot::ReadVerified(db_->worm(), db_->epoch(), "wrong-key");
  EXPECT_TRUE(snap.status().IsTampered());

  // An audit run with the wrong key cannot validate the chain either.
  AuditOptions opts = BaseOptions();
  opts.auditor_key = "wrong-key";
  Auditor auditor(opts, db_->worm(), db_->disk());
  auto r = auditor.Audit(db_->epoch(), false);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().ok());
}

TEST_F(AuditorTest, DisabledReadHashCheckSkipsVerification) {
  AuditOptions opts = BaseOptions();
  opts.verify_read_hashes = false;
  Auditor auditor(opts, db_->worm(), db_->disk());
  auto report = auditor.Audit(db_->epoch(), false);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok());
  EXPECT_EQ(report.value().read_hashes_checked, 0u);
}

TEST_F(AuditorTest, ReleaseOldFilesClearsSupersededWormState) {
  auto report = db_->Audit();  // writes snapshot_1, releases epoch-0 files
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().ok());
  EXPECT_FALSE(db_->worm()->Exists(LogFileName(0)));
  EXPECT_FALSE(db_->worm()->Exists(StampIndexFileName(0)));
  EXPECT_TRUE(db_->worm()->Exists(SnapshotFileName(1)));
  EXPECT_TRUE(db_->worm()->Exists(LogFileName(1)));
}

TEST_F(AuditorTest, ParallelAuditMatchesSerialOnCleanStore) {
  AuditReport serial = RunAudit(1);
  EXPECT_TRUE(serial.ok()) << serial.problems[0];
  EXPECT_EQ(serial.threads_used, 1u);
  for (uint32_t threads : {2u, 3u, 8u}) {
    AuditReport parallel = RunAudit(threads);
    EXPECT_EQ(parallel.threads_used, threads);
    ExpectIdenticalReports(serial, parallel);
  }
}

TEST_F(AuditorTest, ParallelAuditMatchesSerialOnTamperedStore) {
  // Tamper through the closed file (the Mala adversary), then reopen and
  // audit: every thread count must report the identical findings list.
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();
  Mala mala(dir_ + "/data.db");
  ASSERT_TRUE(mala.TamperTupleValue(table_, "k7").ok());
  ASSERT_TRUE(mala.TamperTupleValue(table_, "k13").ok());
  auto r = CompliantDB::Open(MakeOptions());
  ASSERT_TRUE(r.ok());
  db_.reset(r.value());

  AuditReport serial = RunAudit(1);
  EXPECT_FALSE(serial.ok());
  for (uint32_t threads : {2u, 8u}) {
    AuditReport parallel = RunAudit(threads);
    EXPECT_FALSE(parallel.ok());
    ExpectIdenticalReports(serial, parallel);
  }
}

TEST_F(AuditorTest, ZeroThreadsResolvesToHardwareConcurrency) {
  AuditReport report = RunAudit(0);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.threads_used, ThreadPool::DefaultThreads());
}

TEST_F(AuditorTest, EnvOverrideControlsFacadeAuditThreads) {
  // CI exports COMPLYDB_AUDIT_THREADS for whole suites; preserve it.
  const char* prev = ::getenv("COMPLYDB_AUDIT_THREADS");
  std::string saved = prev != nullptr ? prev : "";
  ASSERT_EQ(::setenv("COMPLYDB_AUDIT_THREADS", "3", /*overwrite=*/1), 0);
  // The override is read once, at Open.
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();
  auto reopened = CompliantDB::Open(MakeOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  db_.reset(reopened.value());
  auto report = db_->Audit();
  if (prev != nullptr) {
    ::setenv("COMPLYDB_AUDIT_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("COMPLYDB_AUDIT_THREADS");
  }
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok());
  EXPECT_EQ(report.value().threads_used, 3u);
}

}  // namespace
}  // namespace complydb

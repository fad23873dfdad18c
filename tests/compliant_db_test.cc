#include "db/compliant_db.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "numbered.h"
#include "test_dir.h"

namespace complydb {
namespace {

using testutil::Numbered;

constexpr uint64_t kMinute = 60ull * 1'000'000;

class CompliantDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir_.Reset("cdb_" + testutil::TestName());
  }

  DbOptions MakeOptions() {
    DbOptions opts;
    opts.dir = dir_;
    opts.cache_pages = 64;
    opts.clock = &clock_;
    opts.compliance.enabled = true;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    return opts;
  }

  void OpenDb(const DbOptions& opts) {
    auto r = CompliantDB::Open(opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    db_.reset(r.value());
  }

  void PutCommitted(uint32_t table, const std::string& key,
                    const std::string& value) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok()) << txn.status().ToString();
    ASSERT_TRUE(db_->Put(txn.value(), table, key, value).ok());
    Status s = db_->Commit(txn.value());
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  void ExpectAuditOk() {
    auto report = db_->Audit();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report.value().ok())
        << report.value().problems.size() << " problems; first: "
        << report.value().problems[0];
  }

  void ExpectAuditFails(const std::string& label) {
    auto report = db_->Audit();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_FALSE(report.value().ok()) << label << ": audit should have failed";
  }

  SimulatedClock clock_;
  testutil::TestDir test_dir_;
  std::string dir_;
  std::unique_ptr<CompliantDB> db_;
};

TEST_F(CompliantDbTest, PutGetCommit) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("accounts");
  ASSERT_TRUE(table.ok());
  PutCommitted(table.value(), "alice", "100");
  std::string value;
  ASSERT_TRUE(db_->Get(table.value(), "alice", &value).ok());
  EXPECT_EQ(value, "100");
}

TEST_F(CompliantDbTest, AbortRollsBack) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("accounts");
  ASSERT_TRUE(table.ok());
  PutCommitted(table.value(), "alice", "100");

  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->Put(txn.value(), table.value(), "bob", "50").ok());
  ASSERT_TRUE(db_->Abort(txn.value()).ok());

  std::string value;
  EXPECT_TRUE(db_->Get(table.value(), "bob", &value).IsNotFound());
  ASSERT_TRUE(db_->Get(table.value(), "alice", &value).ok());
  EXPECT_EQ(value, "100");
}

TEST_F(CompliantDbTest, DoubleWriteSameKeyRejected) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->Put(txn.value(), table.value(), "k", "v1").ok());
  EXPECT_TRUE(
      db_->Put(txn.value(), table.value(), "k", "v2").IsInvalidArgument());
  ASSERT_TRUE(db_->Commit(txn.value()).ok());
}

TEST_F(CompliantDbTest, FirstAuditPasses) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 50; ++i) {
    PutCommitted(table.value(), Numbered("key", i),
                 Numbered("value", i));
  }
  ExpectAuditOk();
  EXPECT_EQ(db_->epoch(), 1u);
}

TEST_F(CompliantDbTest, MultipleEpochsAudit) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int i = 0; i < 30; ++i) {
      PutCommitted(table.value(),
                   Numbered(Numbered("e", epoch) + "k", i),
                   Numbered("v", i));
    }
    clock_.AdvanceMicros(kMinute);
    ExpectAuditOk();
  }
  EXPECT_EQ(db_->epoch(), 3u);
  // All data still readable.
  std::string value;
  ASSERT_TRUE(db_->Get(table.value(), "e0k7", &value).ok());
  EXPECT_EQ(value, "v7");
}

TEST_F(CompliantDbTest, AuditAfterUpdatesAndDeletes) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 20; ++i) {
    PutCommitted(table.value(), Numbered("k", i), "v0");
  }
  for (int i = 0; i < 20; i += 2) {
    PutCommitted(table.value(), Numbered("k", i), "v1");
  }
  for (int i = 0; i < 20; i += 4) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(
        db_->Delete(txn.value(), table.value(), Numbered("k", i)).ok());
    ASSERT_TRUE(db_->Commit(txn.value()).ok());
  }
  ExpectAuditOk();
}

TEST_F(CompliantDbTest, AuditAfterAborts) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 20; ++i) {
    PutCommitted(table.value(), Numbered("k", i), "keep");
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(
        db_->Put(txn.value(), table.value(), Numbered("tmp", i), "x")
            .ok());
    ASSERT_TRUE(db_->Abort(txn.value()).ok());
  }
  // Force pages through disk so aborted-tuple UNDO paths exercise.
  ASSERT_TRUE(db_->FlushAll().ok());
  ExpectAuditOk();
}

TEST_F(CompliantDbTest, StealFlushesUncommittedThenAbort) {
  // A tiny cache forces dirty-page steal while the txn is active; the
  // aborted tuple reaches disk and is later undone — L must tell the story
  // (NEW_TUPLE then justified UNDO) and the audit must pass.
  DbOptions opts = MakeOptions();
  opts.cache_pages = 8;
  OpenDb(opts);
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db_->Put(txn.value(), table.value(),
                         Numbered("abort-key", 1000 + i), "payload")
                    .ok());
  }
  ASSERT_TRUE(db_->Abort(txn.value()).ok());
  ASSERT_TRUE(db_->FlushAll().ok());
  ExpectAuditOk();
  std::string value;
  EXPECT_TRUE(db_->Get(table.value(), "abort-key1000", &value).IsNotFound());
}

TEST_F(CompliantDbTest, RegretIntervalForcesTuplesToWorm) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  PutCommitted(table.value(), "k", "v");
  uint64_t before = db_->compliance_logger()->stats().new_tuples;
  // Two regret intervals elapse: marked pages flushed -> NEW_TUPLE on L.
  ASSERT_TRUE(db_->AdvanceClock(5 * kMinute + 1).ok());
  ASSERT_TRUE(db_->AdvanceClock(5 * kMinute + 1).ok());
  EXPECT_GT(db_->compliance_logger()->stats().new_tuples, before);
}

TEST_F(CompliantDbTest, HeartbeatsAndWitnessesDuringIdle) {
  OpenDb(MakeOptions());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_->AdvanceClock(5 * kMinute + 1).ok());
  }
  EXPECT_GE(db_->compliance_logger()->stats().heartbeats, 4u);
  EXPECT_GE(db_->compliance_logger()->stats().witness_files, 4u);
  ExpectAuditOk();
}

TEST_F(CompliantDbTest, TemporalReadsSeeHistory) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  PutCommitted(table.value(), "k", "v1");
  uint64_t t1 = db_->txns()->last_commit_time();
  clock_.AdvanceMicros(kMinute);
  PutCommitted(table.value(), "k", "v2");
  uint64_t t2 = db_->txns()->last_commit_time();
  clock_.AdvanceMicros(kMinute);
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->Delete(txn.value(), table.value(), "k").ok());
  ASSERT_TRUE(db_->Commit(txn.value()).ok());
  uint64_t t3 = db_->txns()->last_commit_time();

  std::string value;
  ASSERT_TRUE(db_->GetAsOf(table.value(), "k", t1, &value).ok());
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(db_->GetAsOf(table.value(), "k", t2, &value).ok());
  EXPECT_EQ(value, "v2");
  EXPECT_TRUE(db_->GetAsOf(table.value(), "k", t3, &value).IsNotFound());
  EXPECT_TRUE(db_->GetAsOf(table.value(), "k", t1 - 1, &value).IsNotFound());

  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(table.value(), "k", &history).ok());
  ASSERT_EQ(history.size(), 3u);
  EXPECT_TRUE(history[2].eol);
}

TEST_F(CompliantDbTest, CleanReopenPreservesData) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  uint32_t tid = table.value();
  PutCommitted(tid, "persist", "me");
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();

  OpenDb(MakeOptions());
  EXPECT_FALSE(db_->recovered_from_crash());
  auto t2 = db_->GetTable("t");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2.value(), tid);
  std::string value;
  ASSERT_TRUE(db_->Get(tid, "persist", &value).ok());
  EXPECT_EQ(value, "me");
  ExpectAuditOk();
}

TEST_F(CompliantDbTest, CrashRecoversCommittedWork) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  uint32_t tid = table.value();
  for (int i = 0; i < 40; ++i) {
    PutCommitted(tid, Numbered("k", i), Numbered("v", i));
  }
  // Crash: no Close(), dirty pages and the logger state are lost.
  db_.reset();

  OpenDb(MakeOptions());
  EXPECT_TRUE(db_->recovered_from_crash());
  std::string value;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db_->Get(tid, Numbered("k", i), &value).ok()) << i;
    EXPECT_EQ(value, Numbered("v", i));
  }
  ExpectAuditOk();
}

TEST_F(CompliantDbTest, CrashMidTransactionAbortsLoser) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  uint32_t tid = table.value();
  PutCommitted(tid, "committed", "yes");

  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->Put(txn.value(), tid, "in-flight", "no").ok());
  // Force the uncommitted tuple to disk (steal), then crash.
  ASSERT_TRUE(db_->cache()->FlushAll().ok());
  db_.reset();

  OpenDb(MakeOptions());
  EXPECT_TRUE(db_->recovered_from_crash());
  EXPECT_GE(db_->recovery_report().losers_undone, 1u);
  std::string value;
  ASSERT_TRUE(db_->Get(tid, "committed", &value).ok());
  EXPECT_TRUE(db_->Get(tid, "in-flight", &value).IsNotFound());
  ExpectAuditOk();
}

TEST_F(CompliantDbTest, CrashAcrossManyTxnsThenAudit) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  uint32_t tid = table.value();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 25; ++i) {
      PutCommitted(tid, Numbered(Numbered("r", round) + "k", i),
                   "v");
    }
    db_.reset();
    OpenDb(MakeOptions());
  }
  ExpectAuditOk();
}

TEST_F(CompliantDbTest, BaselineDisabledComplianceStillWorks) {
  DbOptions opts = MakeOptions();
  opts.compliance.enabled = false;
  OpenDb(opts);
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  PutCommitted(table.value(), "k", "v");
  std::string value;
  ASSERT_TRUE(db_->Get(table.value(), "k", &value).ok());
  auto report = db_->Audit();
  EXPECT_FALSE(report.ok());  // NotSupported
}

TEST_F(CompliantDbTest, AuditRequiresQuiescence) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->Put(txn.value(), table.value(), "k", "v").ok());
  auto report = db_->Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsBusy());
  ASSERT_TRUE(db_->Commit(txn.value()).ok());
  ExpectAuditOk();
}

TEST_F(CompliantDbTest, HashOnReadAuditVerifiesReads) {
  DbOptions opts = MakeOptions();
  opts.compliance.hash_on_read = true;
  opts.cache_pages = 8;  // force evictions and re-reads
  OpenDb(opts);
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 300; ++i) {
    PutCommitted(table.value(), Numbered("key", i % 100),
                 Numbered("v", i));
  }
  // Cold cache: subsequent reads must hit disk, each logging a READ hash.
  ASSERT_TRUE(db_->FlushAll().ok());
  ASSERT_TRUE(db_->cache()->DropAll().ok());
  std::string value;
  for (int i = 0; i < 100; i += 7) {
    ASSERT_TRUE(db_->Get(table.value(), Numbered("key", i), &value).ok());
  }
  EXPECT_GT(db_->compliance_logger()->stats().read_hashes, 0u);
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok())
      << "first: " << report.value().problems[0];
  EXPECT_GT(report.value().read_hashes_checked, 0u);
}

TEST_F(CompliantDbTest, ManyTablesAndScan) {
  OpenDb(MakeOptions());
  auto t1 = db_->CreateTable("alpha");
  auto t2 = db_->CreateTable("beta");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  for (int i = 0; i < 10; ++i) {
    PutCommitted(t1.value(), Numbered("a", i), "1");
    PutCommitted(t2.value(), Numbered("b", i), "2");
  }
  size_t count = 0;
  ASSERT_TRUE(db_->ScanCurrent(t1.value(), "", "",
                               [&](const TupleData& t) {
                                 EXPECT_EQ(t.value, "1");
                                 ++count;
                                 return Status::OK();
                               })
                  .ok());
  EXPECT_EQ(count, 10u);
  EXPECT_EQ(db_->ListTables().size(), 4u);  // alpha, beta, __expiry, __holds
  ExpectAuditOk();
}

TEST_F(CompliantDbTest, BoundedBaselineCacheStaysAuditClean) {
  // A tiny baseline cap forces the logger to evict and re-derive page
  // baselines from disk; diffs and audits must be unaffected.
  DbOptions opts = MakeOptions();
  opts.cache_pages = 16;
  opts.compliance.max_cached_pages = 4;
  OpenDb(opts);
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 400; ++i) {
    PutCommitted(table.value(), Numbered("key", i * 7919 % 10000),
                 std::string(50, 'x'));
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  ExpectAuditOk();

  // And across a crash (unsynced replay baselines must stay pinned).
  for (int i = 0; i < 100; ++i) {
    PutCommitted(table.value(), Numbered("post", i), "y");
  }
  db_.reset();
  DbOptions reopened = MakeOptions();
  reopened.cache_pages = 16;
  reopened.compliance.max_cached_pages = 4;
  OpenDb(reopened);
  EXPECT_TRUE(db_->recovered_from_crash());
  for (int i = 0; i < 100; ++i) {
    PutCommitted(table.value(), Numbered("after", i), "z");
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  ExpectAuditOk();
}

TEST_F(CompliantDbTest, VerifyOnOpenRefusesCorruptDatabase) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 40; ++i) {
    PutCommitted(table.value(), Numbered("k", i), "v");
  }
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();

  // Corrupt a leaf record in place.
  {
    auto disk = DiskManager::Open(dir_ + "/data.db");
    ASSERT_TRUE(disk.ok());
    std::unique_ptr<DiskManager> d(disk.value());
    for (PageId pgno = 1; pgno < d->PageCount(); ++pgno) {
      Page page;
      ASSERT_TRUE(d->ReadPage(pgno, &page).ok());
      if (page.IsFormatted() && page.type() == PageType::kBtreeLeaf &&
          page.tree_id() == table.value() && page.slot_count() > 1) {
        // Swap two records: ordering violation.
        std::string r0(page.RecordAt(0).data(), page.RecordAt(0).size());
        std::string r1(page.RecordAt(1).data(), page.RecordAt(1).size());
        ASSERT_TRUE(page.EraseRecord(0).ok());
        ASSERT_TRUE(page.InsertRecord(0, r1).ok());
        ASSERT_TRUE(page.EraseRecord(1).ok());
        ASSERT_TRUE(page.InsertRecord(1, r0).ok());
        ASSERT_TRUE(d->WritePage(pgno, page).ok());
        break;
      }
    }
  }

  DbOptions strict = MakeOptions();
  strict.verify_on_open = true;
  auto refused = CompliantDB::Open(strict);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsTampered())
      << refused.status().ToString();

  // A permissive open still works (and its audit flags the damage).
  OpenDb(MakeOptions());
  ExpectAuditFails("verify-on-open corruption");
}

TEST_F(CompliantDbTest, VerifyOnOpenPassesCleanDatabase) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("t");
  ASSERT_TRUE(table.ok());
  PutCommitted(table.value(), "k", "v");
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();

  DbOptions strict = MakeOptions();
  strict.verify_on_open = true;
  OpenDb(strict);
  std::string value;
  ASSERT_TRUE(db_->Get(table.value(), "k", &value).ok());
  EXPECT_EQ(value, "v");
}

}  // namespace
}  // namespace complydb

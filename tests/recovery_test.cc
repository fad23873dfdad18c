// Crash-recovery edge cases (§IV-B): repeated crashes, torn WAL tails,
// recovery re-stamping, checkpoint truncation at audit, and WAL/LSN
// continuity across all of it.

#include "txn/recovery.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "db/compliant_db.h"
#include "numbered.h"
#include "test_dir.h"

namespace complydb {
namespace {

using testutil::Numbered;

constexpr uint64_t kMinute = 60ull * 1'000'000;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir_.Reset("recov_" + testutil::TestName());
  }

  DbOptions MakeOptions() {
    DbOptions opts;
    opts.dir = dir_;
    opts.cache_pages = 32;
    opts.clock = &clock_;
    opts.compliance.enabled = true;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    return opts;
  }

  void Open() {
    auto r = CompliantDB::Open(MakeOptions());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    db_.reset(r.value());
  }

  void PutCommitted(uint32_t table, const std::string& key,
                    const std::string& value) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db_->Put(txn.value(), table, key, value).ok());
    ASSERT_TRUE(db_->Commit(txn.value()).ok());
  }

  void ExpectAuditOk() {
    auto report = db_->Audit();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report.value().ok())
        << "first problem: " << report.value().problems[0];
  }

  SimulatedClock clock_;
  testutil::TestDir test_dir_;
  std::string dir_;
  std::unique_ptr<CompliantDB> db_;
};

TEST_F(RecoveryTest, RepeatedCrashesAreIdempotent) {
  Open();
  auto t = db_->CreateTable("t");
  ASSERT_TRUE(t.ok());
  uint32_t tid = t.value();
  for (int i = 0; i < 25; ++i) {
    PutCommitted(tid, Numbered("k", i), "v");
  }
  // Crash three times in a row without doing anything between.
  for (int crash = 0; crash < 3; ++crash) {
    db_.reset();
    Open();
    EXPECT_TRUE(db_->recovered_from_crash() || crash > 0);
  }
  std::string value;
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(db_->Get(tid, Numbered("k", i), &value).ok()) << i;
  }
  ExpectAuditOk();
}

TEST_F(RecoveryTest, RecoveryRestampsCommittedTuples) {
  Open();
  auto t = db_->CreateTable("t");
  ASSERT_TRUE(t.ok());
  uint32_t tid = t.value();
  // Commit but crash before the lazy stamping daemon runs. The WAL commit
  // record is durable; the on-page tuple (if flushed) holds a txn id.
  PutCommitted(tid, "k", "v");
  ASSERT_TRUE(db_->cache()->FlushAll().ok());  // tuple reaches disk unstamped
  db_.reset();

  Open();
  EXPECT_TRUE(db_->recovered_from_crash());
  EXPECT_GE(db_->recovery_report().restamped, 1u);
  std::vector<TupleData> versions;
  ASSERT_TRUE(db_->GetHistory(tid, "k", &versions).ok());
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_TRUE(versions[0].stamped)
      << "recovery must complete lazy timestamping";
  ExpectAuditOk();
}

TEST_F(RecoveryTest, TornWalTailLosesOnlyUncommittedWork) {
  Open();
  auto t = db_->CreateTable("t");
  ASSERT_TRUE(t.ok());
  uint32_t tid = t.value();
  PutCommitted(tid, "durable", "yes");
  db_.reset();

  // Append garbage to the WAL, as a torn final write would leave.
  {
    std::FILE* f = std::fopen((dir_ + "/txn.wal").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = {'\x40', '\x00', '\x00', '\x00', '\x99'};
    std::fwrite(torn, 1, sizeof(torn), f);
    std::fclose(f);
  }
  Open();
  std::string value;
  ASSERT_TRUE(db_->Get(tid, "durable", &value).ok());
  EXPECT_EQ(value, "yes");
  ExpectAuditOk();
}

TEST_F(RecoveryTest, AuditTruncatesWalAndRecoveryStillWorks) {
  Open();
  auto t = db_->CreateTable("t");
  ASSERT_TRUE(t.ok());
  uint32_t tid = t.value();
  for (int i = 0; i < 50; ++i) {
    PutCommitted(tid, Numbered("pre", i), "v");
  }
  uint64_t wal_before = std::filesystem::file_size(dir_ + "/txn.wal");
  ExpectAuditOk();
  uint64_t wal_after = std::filesystem::file_size(dir_ + "/txn.wal");
  EXPECT_LT(wal_after, wal_before) << "audit must checkpoint-truncate";
  EXPECT_EQ(wal_after, LogManager::kHeaderSize);

  // Post-audit work, then crash: only the new records replay.
  for (int i = 0; i < 20; ++i) {
    PutCommitted(tid, Numbered("post", i), "v");
  }
  db_.reset();
  Open();
  EXPECT_TRUE(db_->recovered_from_crash());
  EXPECT_LT(db_->recovery_report().records_scanned, 300u);
  std::string value;
  ASSERT_TRUE(db_->Get(tid, "pre7", &value).ok());
  ASSERT_TRUE(db_->Get(tid, "post7", &value).ok());
  ExpectAuditOk();
}

TEST_F(RecoveryTest, LsnsContinueAcrossTruncation) {
  Open();
  auto t = db_->CreateTable("t");
  ASSERT_TRUE(t.ok());
  uint32_t tid = t.value();
  PutCommitted(tid, "a", "1");
  Lsn before = db_->wal()->next_lsn();
  ExpectAuditOk();
  EXPECT_GE(db_->wal()->base_lsn(), before)
      << "truncation must not rewind LSNs";
  PutCommitted(tid, "b", "2");
  EXPECT_GT(db_->wal()->next_lsn(), before);
}

TEST_F(RecoveryTest, CrashBetweenAuditsManyEpochs) {
  Open();
  auto t = db_->CreateTable("t");
  ASSERT_TRUE(t.ok());
  uint32_t tid = t.value();
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (int i = 0; i < 15; ++i) {
      PutCommitted(tid, Numbered(Numbered("e", epoch) + "k", i),
                   "v");
    }
    if (epoch % 2 == 0) {
      db_.reset();  // crash in half the epochs
      Open();
    }
    clock_.AdvanceMicros(kMinute);
    ExpectAuditOk();
  }
  std::string value;
  ASSERT_TRUE(db_->Get(tid, "e0k3", &value).ok());
  ASSERT_TRUE(db_->Get(tid, "e3k14", &value).ok());
}

TEST_F(RecoveryTest, AbortedTxnIdsNeverReusedAcrossCrash) {
  Open();
  auto t = db_->CreateTable("t");
  ASSERT_TRUE(t.ok());
  uint32_t tid = t.value();
  // A committed txn, then an aborted txn, then crash.
  PutCommitted(tid, "k", "v");
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  TxnId aborted_id = txn.value()->id();
  ASSERT_TRUE(db_->Put(txn.value(), tid, "tmp", "x").ok());
  ASSERT_TRUE(db_->Abort(txn.value()).ok());
  db_.reset();

  Open();
  auto txn2 = db_->Begin();
  ASSERT_TRUE(txn2.ok());
  EXPECT_GT(txn2.value()->id(), aborted_id)
      << "reusing an aborted id would pair ABORT and STAMP_TRANS on L";
  ASSERT_TRUE(db_->Put(txn2.value(), tid, "fresh", "y").ok());
  ASSERT_TRUE(db_->Commit(txn2.value()).ok());
  ExpectAuditOk();
}

TEST_F(RecoveryTest, CrashDuringHeavySplitsRecovers) {
  DbOptions opts = MakeOptions();
  opts.cache_pages = 8;  // aggressive eviction during split storms
  {
    auto r = CompliantDB::Open(opts);
    ASSERT_TRUE(r.ok());
    db_.reset(r.value());
  }
  auto t = db_->CreateTable("t");
  ASSERT_TRUE(t.ok());
  uint32_t tid = t.value();
  for (int i = 0; i < 600; ++i) {
    PutCommitted(tid, Numbered("key", i * 7919 % 100000),
                 std::string(60, 'x'));
  }
  db_.reset();
  {
    auto r = CompliantDB::Open(opts);
    ASSERT_TRUE(r.ok());
    db_.reset(r.value());
  }
  EXPECT_TRUE(db_->recovered_from_crash());
  ExpectAuditOk();
}

}  // namespace
}  // namespace complydb

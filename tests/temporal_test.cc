// Temporal (transaction-time) query semantics: AS-OF reads at every
// boundary, history across deletes, re-inserts, migration, vacuuming,
// and epochs — the transaction-time DBMS substrate of §II.

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
constexpr uint64_t kDay = 24ull * 3600 * 1'000'000;

class TemporalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir_.Reset("temporal_" + testutil::TestName());
  }

  DbOptions MakeOptions(bool tsb = false) {
    DbOptions opts;
    opts.dir = dir_;
    opts.cache_pages = 64;
    opts.clock = &clock_;
    opts.compliance.enabled = true;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    opts.tsb_enabled = tsb;
    return opts;
  }

  void Open(bool tsb = false) {
    auto r = CompliantDB::Open(MakeOptions(tsb));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    db_.reset(r.value());
  }

  // Commits and returns the commit time.
  uint64_t PutAt(uint32_t table, const std::string& key,
                 const std::string& value) {
    auto txn = db_->Begin();
    EXPECT_TRUE(txn.ok());
    EXPECT_TRUE(db_->Put(txn.value(), table, key, value).ok());
    EXPECT_TRUE(db_->Commit(txn.value()).ok());
    return db_->txns()->last_commit_time();
  }

  uint64_t DeleteAt(uint32_t table, const std::string& key) {
    auto txn = db_->Begin();
    EXPECT_TRUE(txn.ok());
    EXPECT_TRUE(db_->Delete(txn.value(), table, key).ok());
    EXPECT_TRUE(db_->Commit(txn.value()).ok());
    return db_->txns()->last_commit_time();
  }

  SimulatedClock clock_;
  testutil::TestDir test_dir_;
  std::string dir_;
  std::unique_ptr<CompliantDB> db_;
};

TEST_F(TemporalTest, AsOfAtExactBoundaries) {
  Open();
  auto t = db_->CreateTable("t");
  ASSERT_TRUE(t.ok());
  uint32_t tid = t.value();
  uint64_t t1 = PutAt(tid, "k", "v1");
  clock_.AdvanceMicros(kMinute);
  uint64_t t2 = PutAt(tid, "k", "v2");

  std::string value;
  // Exactly at a commit: that version is visible.
  ASSERT_TRUE(db_->GetAsOf(tid, "k", t1, &value).ok());
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(db_->GetAsOf(tid, "k", t2, &value).ok());
  EXPECT_EQ(value, "v2");
  // One tick before the first commit: nothing.
  EXPECT_TRUE(db_->GetAsOf(tid, "k", t1 - 1, &value).IsNotFound());
  // Between commits: the older version.
  ASSERT_TRUE(db_->GetAsOf(tid, "k", t2 - 1, &value).ok());
  EXPECT_EQ(value, "v1");
  // Far future: the latest.
  ASSERT_TRUE(db_->GetAsOf(tid, "k", t2 + kDay, &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST_F(TemporalTest, DeleteAndReinsertLifecycle) {
  Open();
  auto t = db_->CreateTable("t");
  ASSERT_TRUE(t.ok());
  uint32_t tid = t.value();
  uint64_t t1 = PutAt(tid, "k", "alive-1");
  clock_.AdvanceMicros(kMinute);
  uint64_t t2 = DeleteAt(tid, "k");
  clock_.AdvanceMicros(kMinute);
  uint64_t t3 = PutAt(tid, "k", "alive-2");

  std::string value;
  ASSERT_TRUE(db_->GetAsOf(tid, "k", t1, &value).ok());
  EXPECT_EQ(value, "alive-1");
  EXPECT_TRUE(db_->GetAsOf(tid, "k", t2, &value).IsNotFound());
  EXPECT_TRUE(db_->GetAsOf(tid, "k", t3 - 1, &value).IsNotFound());
  ASSERT_TRUE(db_->GetAsOf(tid, "k", t3, &value).ok());
  EXPECT_EQ(value, "alive-2");

  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(tid, "k", &history).ok());
  ASSERT_EQ(history.size(), 3u);
  EXPECT_FALSE(history[0].eol);
  EXPECT_TRUE(history[1].eol);
  EXPECT_FALSE(history[2].eol);
}

TEST_F(TemporalTest, AsOfUnstampedVersionsResolveViaTxnTable) {
  Open();
  auto t = db_->CreateTable("t");
  ASSERT_TRUE(t.ok());
  uint32_t tid = t.value();
  // Commit without letting the lazy stamper run (no regret tick, under
  // the 64-commit stamping backlog).
  uint64_t t1 = PutAt(tid, "k", "fresh");
  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(tid, "k", &history).ok());
  ASSERT_EQ(history.size(), 1u);
  ASSERT_FALSE(history[0].stamped) << "precondition: still lazily stamped";

  std::string value;
  ASSERT_TRUE(db_->GetAsOf(tid, "k", t1, &value).ok());
  EXPECT_EQ(value, "fresh");
  EXPECT_TRUE(db_->GetAsOf(tid, "k", t1 - 1, &value).IsNotFound());
}

TEST_F(TemporalTest, AsOfAcrossWormMigration) {
  Open(/*tsb=*/true);
  auto t = db_->CreateTable("t");
  ASSERT_TRUE(t.ok());
  uint32_t tid = t.value();
  std::vector<uint64_t> commits;
  for (int i = 0; i < 120; ++i) {
    commits.push_back(PutAt(tid, "hot",
                            Numbered("v", i).append(90, '.')));
    clock_.AdvanceMicros(kMinute / 10);
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  ASSERT_GT(db_->historical()->page_count(), 0u)
      << "precondition: some versions migrated to WORM";

  std::string value;
  for (int i = 0; i < 120; i += 17) {
    ASSERT_TRUE(db_->GetAsOf(tid, "hot", commits[i], &value).ok()) << i;
    EXPECT_EQ(value, Numbered("v", i).append(90, '.')) << i;
  }
}

TEST_F(TemporalTest, VacuumedVersionsBecomeInvisible) {
  Open();
  auto t = db_->CreateTable("t");
  ASSERT_TRUE(t.ok());
  uint32_t tid = t.value();
  ASSERT_TRUE(db_->SetRetention(tid, kDay).ok());
  uint64_t t1 = PutAt(tid, "k", "secret");
  clock_.AdvanceMicros(kMinute);
  PutAt(tid, "k", "public");
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().ok());
  clock_.AdvanceMicros(2 * kDay);
  auto vac = db_->Vacuum(tid);
  ASSERT_TRUE(vac.ok());
  ASSERT_EQ(vac.value().shredded, 1u);

  // The shredded version truly ceased to exist: even AS-OF can't see it.
  std::string value;
  EXPECT_TRUE(db_->GetAsOf(tid, "k", t1, &value).IsNotFound());
  ASSERT_TRUE(db_->Get(tid, "k", &value).ok());
  EXPECT_EQ(value, "public");
}

TEST_F(TemporalTest, HistorySurvivesEpochsAndReopens) {
  Open();
  auto t = db_->CreateTable("t");
  ASSERT_TRUE(t.ok());
  uint32_t tid = t.value();
  std::vector<uint64_t> commits;
  for (int epoch = 0; epoch < 3; ++epoch) {
    commits.push_back(PutAt(tid, "k", Numbered("epoch-", epoch)));
    clock_.AdvanceMicros(kMinute);
    auto report = db_->Audit();
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report.value().ok());
    ASSERT_TRUE(db_->Close().ok());
    db_.reset();
    Open();
  }
  std::string value;
  for (int epoch = 0; epoch < 3; ++epoch) {
    ASSERT_TRUE(db_->GetAsOf(tid, "k", commits[epoch], &value).ok());
    EXPECT_EQ(value, Numbered("epoch-", epoch));
  }
  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(tid, "k", &history).ok());
  EXPECT_EQ(history.size(), 3u);
}

}  // namespace
}  // namespace complydb

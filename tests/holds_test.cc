// Litigation holds (§IX future work, implemented here): subpoenaed
// tuples survive vacuuming even when expired, hold placement/release is
// versioned and audited, and a shred that violated a hold fails the
// audit.

#include "shred/holds.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "crypto/sha256.h"
#include "db/compliant_db.h"
#include "test_dir.h"

namespace complydb {
namespace {

constexpr uint64_t kMinute = 60ull * 1'000'000;
constexpr uint64_t kDay = 24ull * 3600 * 1'000'000;

class HoldsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir_.Reset("holds_" + testutil::TestName());
    DbOptions opts;
    opts.dir = dir_;
    opts.cache_pages = 64;
    opts.clock = &clock_;
    opts.compliance.enabled = true;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    auto r = CompliantDB::Open(opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    db_.reset(r.value());
    auto t = db_->CreateTable("docs");
    ASSERT_TRUE(t.ok());
    table_ = t.value();
    ASSERT_TRUE(db_->SetRetention(table_, 30 * kDay).ok());
  }

  void PutCommitted(const std::string& key, const std::string& value) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db_->Put(txn.value(), table_, key, value).ok());
    ASSERT_TRUE(db_->Commit(txn.value()).ok());
  }

  // Makes key's v1 expired and snapshot-protected: v1, supersede, audit,
  // then jump past retention.
  void MakeExpiredHistory(const std::string& key) {
    PutCommitted(key, "v1-sensitive");
    clock_.AdvanceMicros(kMinute);
    PutCommitted(key, "v2-current");
    auto report = db_->Audit();
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report.value().ok());
    clock_.AdvanceMicros(31 * kDay);
  }

  SimulatedClock clock_;
  testutil::TestDir test_dir_;
  std::string dir_;
  uint32_t table_ = 0;
  std::unique_ptr<CompliantDB> db_;
};

TEST_F(HoldsTest, HoldBlocksVacuumOfExpiredVersion) {
  MakeExpiredHistory("case-doc");
  ASSERT_TRUE(db_->PlaceHold(table_, "case-doc").ok());

  auto r = db_->Vacuum(table_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().shredded, 0u);
  EXPECT_EQ(r.value().held, 1u);

  // History intact despite expiry.
  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(table_, "case-doc", &history).ok());
  EXPECT_EQ(history.size(), 2u);
}

TEST_F(HoldsTest, ReleasingHoldAllowsVacuum) {
  MakeExpiredHistory("case-doc");
  ASSERT_TRUE(db_->PlaceHold(table_, "case-doc").ok());
  ASSERT_TRUE(db_->ReleaseHold(table_, "case-doc").ok());

  auto r = db_->Vacuum(table_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().shredded, 1u);
  EXPECT_EQ(r.value().held, 0u);

  ASSERT_TRUE(db_->FlushAll().ok());
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
}

TEST_F(HoldsTest, PrefixHoldCoversManyKeys) {
  MakeExpiredHistory("case-A-doc1");
  ASSERT_TRUE(db_->PlaceHold(table_, "case-A").ok());
  auto held_a = db_->IsHeld(table_, "case-A-doc1");
  ASSERT_TRUE(held_a.ok());
  EXPECT_TRUE(held_a.value());
  auto held_b = db_->IsHeld(table_, "case-B-doc1");
  ASSERT_TRUE(held_b.ok());
  EXPECT_FALSE(held_b.value());

  auto r = db_->Vacuum(table_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().held, 1u);
  EXPECT_EQ(r.value().shredded, 0u);
}

TEST_F(HoldsTest, HoldsUnaffectedKeysStillVacuum) {
  MakeExpiredHistory("held-doc");
  PutCommitted("free-doc", "f1");
  clock_.AdvanceMicros(kMinute);
  PutCommitted("free-doc", "f2");
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().ok());
  clock_.AdvanceMicros(31 * kDay);

  ASSERT_TRUE(db_->PlaceHold(table_, "held-doc").ok());
  auto r = db_->Vacuum(table_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().held, 1u);     // held-doc v1
  EXPECT_EQ(r.value().shredded, 1u); // free-doc f1
}

TEST_F(HoldsTest, ShreddingHeldTupleFailsAudit) {
  MakeExpiredHistory("subpoenaed");
  ASSERT_TRUE(db_->PlaceHold(table_, "subpoenaed").ok());
  // Let wall-clock time pass the hold's commit tick (with a real clock,
  // commit times never lead the clock).
  clock_.AdvanceMicros(kMinute);

  // A compromised vacuum ignores the hold and shreds anyway.
  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(table_, "subpoenaed", &history).ok());
  ASSERT_EQ(history.size(), 2u);
  std::string record = EncodeTuple(history[0]);
  Sha256Digest digest = Sha256::Hash(record);
  ASSERT_TRUE(db_->compliance_logger()
                  ->OnShredIntent(
                      table_, "subpoenaed", history[0].start, 0,
                      Slice(reinterpret_cast<const char*>(digest.data()),
                            digest.size()),
                      db_->Now())
                  .ok());
  TxnWalContext sys;
  sys.txn_id = 0;
  sys.log = db_->wal();
  ASSERT_TRUE(db_->tree(table_)
                  ->RemoveVersion(&sys, "subpoenaed", history[0].start,
                                  false, 0)
                  .ok());
  ASSERT_TRUE(db_->FlushAll().ok());

  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().ok())
      << "shredding under a hold must fail the audit";
  bool found = false;
  for (const auto& p : report.value().problems) {
    if (p.find("litigation hold") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(HoldsTest, HoldHistoryIsTemporallyResolved) {
  // A hold placed *after* a shred does not retroactively implicate it.
  MakeExpiredHistory("doc");
  auto r = db_->Vacuum(table_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().shredded, 1u);
  clock_.AdvanceMicros(kMinute);
  ASSERT_TRUE(db_->PlaceHold(table_, "doc").ok());

  ASSERT_TRUE(db_->FlushAll().ok());
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
}

TEST_F(HoldsTest, HoldsSurviveReopen) {
  MakeExpiredHistory("doc");
  ASSERT_TRUE(db_->PlaceHold(table_, "doc").ok());
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();

  DbOptions opts;
  opts.dir = dir_;
  opts.cache_pages = 64;
  opts.clock = &clock_;
  opts.compliance.enabled = true;
  opts.compliance.regret_interval_micros = 5 * kMinute;
  auto reopened = CompliantDB::Open(opts);
  ASSERT_TRUE(reopened.ok());
  db_.reset(reopened.value());

  auto held = db_->IsHeld(table_, "doc");
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(held.value());
  auto r = db_->Vacuum(table_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().shredded, 0u);
  EXPECT_EQ(r.value().held, 1u);
}

}  // namespace
}  // namespace complydb

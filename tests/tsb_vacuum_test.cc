// Time-split B+-trees with WORM migration (§VI) and auditable shredding
// (§VIII).

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "crypto/sha256.h"
#include "db/compliant_db.h"
#include "numbered.h"
#include "test_dir.h"
#include "tsb/tsb_policy.h"

namespace complydb {
namespace {

using testutil::Numbered;

constexpr uint64_t kMinute = 60ull * 1'000'000;
constexpr uint64_t kDay = 24ull * 3600 * 1'000'000;

// --- split policy unit tests ---

Page MakeLeafWithKeys(const std::vector<std::string>& keys) {
  Page p;
  p.Format(1, PageType::kBtreeLeaf, 1, 0);
  uint64_t start = 1;
  for (const auto& k : keys) {
    TupleData t;
    t.key = k;
    t.value.assign(1, 'v');  // not `= "v"`: GCC 12 false -Wrestrict
    t.start = start++;
    t.stamped = true;
    t.order_no = p.TakeOrderNumber();
    EXPECT_TRUE(p.AppendRecord(EncodeTuple(t)).ok());
  }
  return p;
}

TEST(TimeSplitPolicyTest, SkewedPageTimeSplits) {
  // 2 distinct keys, 20 tuples: fraction 0.1 < threshold 0.5 -> time split.
  std::vector<std::string> keys;
  for (int i = 0; i < 10; ++i) keys.push_back("aaa");
  for (int i = 0; i < 10; ++i) keys.push_back("bbb");
  std::sort(keys.begin(), keys.end());
  Page p = MakeLeafWithKeys(keys);
  TimeSplitPolicy policy(0.5);
  EXPECT_EQ(policy.Decide(p), SplitKind::kTimeSplit);
}

TEST(TimeSplitPolicyTest, UniformPageKeySplits) {
  std::vector<std::string> keys;
  for (int i = 0; i < 20; ++i) keys.push_back(Numbered("key", i));
  std::sort(keys.begin(), keys.end());
  Page p = MakeLeafWithKeys(keys);
  TimeSplitPolicy policy(0.5);
  EXPECT_EQ(policy.Decide(p), SplitKind::kKeySplit);
}

TEST(TimeSplitPolicyTest, ThresholdBoundary) {
  // 10 distinct / 20 total = 0.5 exactly: not < threshold -> key split.
  std::vector<std::string> keys;
  for (int i = 0; i < 10; ++i) {
    keys.push_back(Numbered("key", i));
    keys.push_back(Numbered("key", i));
  }
  std::sort(keys.begin(), keys.end());
  Page p = MakeLeafWithKeys(keys);
  EXPECT_EQ(TimeSplitPolicy(0.5).Decide(p), SplitKind::kKeySplit);
  EXPECT_EQ(TimeSplitPolicy(0.51).Decide(p), SplitKind::kTimeSplit);
  EXPECT_EQ(TimeSplitPolicy(0.0).Decide(p), SplitKind::kKeySplit);
}

// --- integration fixtures ---

class TsbVacuumTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir_.Reset("tsbv_" + testutil::TestName());
  }

  DbOptions MakeOptions(bool tsb, double threshold = 0.5) {
    DbOptions opts;
    opts.dir = dir_;
    opts.cache_pages = 64;
    opts.clock = &clock_;
    opts.compliance.enabled = true;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    opts.tsb_enabled = tsb;
    opts.tsb_split_threshold = threshold;
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

TEST_F(TsbVacuumTest, HotKeyUpdatesMigrateToWorm) {
  OpenDb(MakeOptions(/*tsb=*/true, 0.5));
  auto table = db_->CreateTable("stock");
  ASSERT_TRUE(table.ok());
  // Hammer a handful of keys: version chains overflow pages with few
  // distinct keys -> time splits.
  for (int round = 0; round < 100; ++round) {
    for (int k = 0; k < 4; ++k) {
      PutCommitted(table.value(), Numbered("hot", k),
                   Numbered("qty", round));
    }
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  EXPECT_GT(db_->historical()->page_count(), 0u)
      << "skewed updates should have produced WORM historical pages";

  // Migrated versions remain temporally visible.
  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(table.value(), "hot0", &history).ok());
  EXPECT_EQ(history.size(), 100u);
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_LT(history[i - 1].start, history[i].start);
  }

  // Live tree only keeps the tail of each chain.
  std::vector<TupleData> live;
  ASSERT_TRUE(db_->tree(table.value())->GetVersions("hot0", &live).ok());
  EXPECT_LT(live.size(), history.size());

  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
  EXPECT_GT(report.value().migrations_verified, 0u);
}

TEST_F(TsbVacuumTest, MigratedHistorySurvivesReopenAndNextEpoch) {
  OpenDb(MakeOptions(true, 0.5));
  auto table = db_->CreateTable("stock");
  ASSERT_TRUE(table.ok());
  uint32_t tid = table.value();
  for (int round = 0; round < 100; ++round) {
    PutCommitted(tid, "hot", Numbered("v", round));
  }
  uint64_t t_mid = 0;
  {
    std::vector<TupleData> history;
    ASSERT_TRUE(db_->GetHistory(tid, "hot", &history).ok());
    t_mid = history[50].start;  // may be unstamped; resolve below
  }
  ExpectAuditOk();
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();

  OpenDb(MakeOptions(true, 0.5));
  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(tid, "hot", &history).ok());
  EXPECT_EQ(history.size(), 100u);
  // AS-OF across the migrated range works (all stamped after audit).
  std::string value;
  std::vector<TupleData> h2;
  ASSERT_TRUE(db_->GetHistory(tid, "hot", &h2).ok());
  uint64_t mid_commit = h2[50].start;
  (void)t_mid;
  ASSERT_TRUE(db_->GetAsOf(tid, "hot", mid_commit, &value).ok());
  EXPECT_EQ(value, "v50");
  ExpectAuditOk();
}

TEST_F(TsbVacuumTest, ThresholdSweepShapesLiveAndHistoricCounts) {
  // Skewed workload: higher thresholds migrate at least as much.
  uint64_t hist_low = 0;
  uint64_t hist_high = 0;
  for (double threshold : {0.1, 0.9}) {
    std::filesystem::remove_all(dir_);
    OpenDb(MakeOptions(true, threshold));
    auto table = db_->CreateTable("stock");
    ASSERT_TRUE(table.ok());
    for (int round = 0; round < 60; ++round) {
      for (int k = 0; k < 12; ++k) {
        PutCommitted(table.value(), Numbered("key", k), "v");
      }
    }
    ASSERT_TRUE(db_->FlushAll().ok());
    if (threshold < 0.5) {
      hist_low = db_->historical()->page_count();
    } else {
      hist_high = db_->historical()->page_count();
    }
    db_.reset();
  }
  EXPECT_GE(hist_high, hist_low);
  EXPECT_GT(hist_high, 0u);
}

// --- shredding ---

TEST_F(TsbVacuumTest, VacuumShredsExpiredVersions) {
  OpenDb(MakeOptions(false));
  auto table = db_->CreateTable("pii");
  ASSERT_TRUE(table.ok());
  uint32_t tid = table.value();
  ASSERT_TRUE(db_->SetRetention(tid, 30 * kDay).ok());

  PutCommitted(tid, "ssn", "123-45-6789");
  clock_.AdvanceMicros(kMinute);
  PutCommitted(tid, "ssn", "redacted-v2");  // supersedes v1
  PutCommitted(tid, "keep", "current");

  // The superseded version must survive at least one audit.
  ExpectAuditOk();

  // Not yet expired: nothing to vacuum.
  auto r0 = db_->Vacuum(tid);
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  EXPECT_EQ(r0.value().shredded, 0u);

  // 31 days later the superseded version is expired.
  clock_.AdvanceMicros(31 * kDay);
  auto r1 = db_->Vacuum(tid);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1.value().shredded, 1u);

  // History no longer shows v1; the current version is intact.
  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(tid, "ssn", &history).ok());
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].value, "redacted-v2");
  std::string value;
  ASSERT_TRUE(db_->Get(tid, "keep", &value).ok());

  // The audit validates the shred against the Expiry policy.
  ASSERT_TRUE(db_->FlushAll().ok());
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
  EXPECT_EQ(report.value().shreds_verified, 1u);
}

TEST_F(TsbVacuumTest, VacuumRemovesFullyDeletedKeyChains) {
  OpenDb(MakeOptions(false));
  auto table = db_->CreateTable("pii");
  ASSERT_TRUE(table.ok());
  uint32_t tid = table.value();
  ASSERT_TRUE(db_->SetRetention(tid, 30 * kDay).ok());
  PutCommitted(tid, "gone", "secret");
  clock_.AdvanceMicros(kMinute);
  {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db_->Delete(txn.value(), tid, "gone").ok());
    ASSERT_TRUE(db_->Commit(txn.value()).ok());
  }
  ExpectAuditOk();
  clock_.AdvanceMicros(31 * kDay);
  auto r = db_->Vacuum(tid);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().shredded, 2u);  // the value version and its EOL marker

  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(tid, "gone", &history).ok());
  EXPECT_TRUE(history.empty()) << "the tuple should truly cease to exist";

  ASSERT_TRUE(db_->FlushAll().ok());
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
}

TEST_F(TsbVacuumTest, VacuumSkipsVersionsNotYetThroughAnAudit) {
  OpenDb(MakeOptions(false));
  auto table = db_->CreateTable("pii");
  ASSERT_TRUE(table.ok());
  uint32_t tid = table.value();
  ASSERT_TRUE(db_->SetRetention(tid, kMinute).ok());
  PutCommitted(tid, "fresh", "v1");
  PutCommitted(tid, "fresh", "v2");
  clock_.AdvanceMicros(kDay);  // long expired — but never audited
  auto r = db_->Vacuum(tid);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().shredded, 0u)
      << "tuples must be retained through at least one audit";
}

TEST_F(TsbVacuumTest, IllegalShredOfCurrentVersionFailsAudit) {
  OpenDb(MakeOptions(false));
  auto table = db_->CreateTable("pii");
  ASSERT_TRUE(table.ok());
  uint32_t tid = table.value();
  ASSERT_TRUE(db_->SetRetention(tid, kMinute).ok());
  PutCommitted(tid, "target", "current-value");
  ExpectAuditOk();
  clock_.AdvanceMicros(kDay);

  // A compromised vacuum process shreds the *current* version.
  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(tid, "target", &history).ok());
  ASSERT_EQ(history.size(), 1u);
  std::string record = EncodeTuple(history[0]);
  Sha256Digest digest = Sha256::Hash(record);
  ASSERT_TRUE(db_->compliance_logger()
                  ->OnShredIntent(tid, "target", history[0].start, 0,
                                  Slice(reinterpret_cast<const char*>(
                                            digest.data()),
                                        digest.size()),
                                  db_->Now())
                  .ok());
  TxnWalContext sys;
  sys.txn_id = 0;
  sys.log = db_->wal();
  ASSERT_TRUE(db_->tree(tid)
                  ->RemoveVersion(&sys, "target", history[0].start, false, 0)
                  .ok());
  ASSERT_TRUE(db_->FlushAll().ok());

  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().ok())
      << "shredding a never-superseded version must fail the audit";
}

TEST_F(TsbVacuumTest, VacuumRecheckFinishesAfterCrash) {
  OpenDb(MakeOptions(false));
  auto table = db_->CreateTable("pii");
  ASSERT_TRUE(table.ok());
  uint32_t tid = table.value();
  ASSERT_TRUE(db_->SetRetention(tid, kMinute).ok());
  PutCommitted(tid, "k", "v1");
  clock_.AdvanceMicros(kMinute);
  PutCommitted(tid, "k", "v2");
  ExpectAuditOk();
  clock_.AdvanceMicros(kDay);

  // Simulate the crash window: SHREDDED reached WORM but the erase did not
  // reach the tree (we append the intent manually, then "crash").
  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(tid, "k", &history).ok());
  ASSERT_EQ(history.size(), 2u);
  std::string record = EncodeTuple(history[0]);
  Sha256Digest digest = Sha256::Hash(record);
  ASSERT_TRUE(db_->compliance_logger()
                  ->OnShredIntent(tid, "k", history[0].start, 0,
                                  Slice(reinterpret_cast<const char*>(
                                            digest.data()),
                                        digest.size()),
                                  db_->Now())
                  .ok());
  db_.reset();  // crash

  OpenDb(MakeOptions(false));
  EXPECT_TRUE(db_->recovered_from_crash());
  // Recheck during open must have finished the vacuum.
  std::vector<TupleData> after;
  ASSERT_TRUE(db_->GetHistory(tid, "k", &after).ok());
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].value, "v2");
  ASSERT_TRUE(db_->FlushAll().ok());
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
}

TEST_F(TsbVacuumTest, RetentionPolicyChangesAreVersioned) {
  OpenDb(MakeOptions(false));
  auto table = db_->CreateTable("pii");
  ASSERT_TRUE(table.ok());
  uint32_t tid = table.value();
  ASSERT_TRUE(db_->SetRetention(tid, 30 * kDay).ok());
  uint64_t t1 = db_->txns()->last_commit_time();
  clock_.AdvanceMicros(kDay);
  ASSERT_TRUE(db_->SetRetention(tid, 7 * kDay).ok());
  uint64_t t2 = db_->txns()->last_commit_time();

  auto expiry_id = db_->GetTable("__expiry");
  ASSERT_TRUE(expiry_id.ok());
  ExpiryPolicy expiry(db_->tree(expiry_id.value()));
  ASSERT_TRUE(db_->FlushAll().ok());
  auto r1 = expiry.At(tid, t1);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1.value(), 30 * kDay);
  auto r2 = expiry.At(tid, t2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value(), 7 * kDay);
  EXPECT_TRUE(expiry.At(tid, t1 - 1).status().IsNotFound());
}

TEST_F(TsbVacuumTest, MigratedHistoryShreddedWholeFile) {
  // §VIII final paragraph: expired tuples on WORM are shredded at the
  // granularity of whole historical-page files, with deletion deferred to
  // the audit that verifies the shreds.
  OpenDb(MakeOptions(/*tsb=*/true, 0.5));
  auto table = db_->CreateTable("stock");
  ASSERT_TRUE(table.ok());
  uint32_t tid = table.value();
  ASSERT_TRUE(db_->SetRetention(tid, 30 * kDay).ok());

  for (int round = 0; round < 120; ++round) {
    PutCommitted(tid, "hot", Numbered("v", round).append(80, '.'));
    clock_.AdvanceMicros(kMinute / 4);
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  uint64_t hist_pages = db_->historical()->page_count();
  ASSERT_GT(hist_pages, 0u) << "precondition: versions migrated to WORM";

  // Audit (versions must pass through a snapshot epoch), then expire.
  ExpectAuditOk();
  clock_.AdvanceMicros(31 * kDay);

  auto vac = db_->Vacuum(tid);
  ASSERT_TRUE(vac.ok()) << vac.status().ToString();
  EXPECT_GT(vac.value().shredded, 0u);
  EXPECT_LT(db_->historical()->page_count(), hist_pages)
      << "fully-expired historical files leave the temporal index";

  // History no longer reaches the shredded versions.
  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(tid, "hot", &history).ok());
  EXPECT_LT(history.size(), 120u);

  // The verifying audit passes and physically deletes the WORM files.
  size_t files_before = db_->worm()->ListPrefix("hist_").size();
  ASSERT_TRUE(db_->FlushAll().ok());
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
  EXPECT_GT(report.value().shreds_verified, 0u);
  EXPECT_LT(db_->worm()->ListPrefix("hist_").size(), files_before)
      << "the unit of deletion on WORM is an entire file";
}

TEST_F(TsbVacuumTest, HistoricalShredsSurviveCrashBeforeAudit) {
  OpenDb(MakeOptions(true, 0.5));
  auto table = db_->CreateTable("stock");
  ASSERT_TRUE(table.ok());
  uint32_t tid = table.value();
  ASSERT_TRUE(db_->SetRetention(tid, kDay).ok());
  for (int round = 0; round < 120; ++round) {
    PutCommitted(tid, "hot", Numbered("v", round).append(80, '.'));
    clock_.AdvanceMicros(kMinute / 4);
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  ExpectAuditOk();
  clock_.AdvanceMicros(2 * kDay);
  auto vac = db_->Vacuum(tid);
  ASSERT_TRUE(vac.ok());
  ASSERT_GT(vac.value().shredded, 0u);
  size_t visible_after_vacuum = 0;
  {
    std::vector<TupleData> history;
    ASSERT_TRUE(db_->GetHistory(tid, "hot", &history).ok());
    visible_after_vacuum = history.size();
  }

  // Crash before the verifying audit: on reopen the shredded files are
  // still on WORM but must not resurface in the temporal index.
  db_.reset();
  OpenDb(MakeOptions(true, 0.5));
  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(tid, "hot", &history).ok());
  EXPECT_EQ(history.size(), visible_after_vacuum);
  ASSERT_TRUE(db_->FlushAll().ok());
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
}

}  // namespace
}  // namespace complydb

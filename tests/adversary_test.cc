// The threat-model validation suite (paper §II, §IV-C, §V): every attack
// Mala can mount against the files must either be refused (WORM surface)
// or detected by the next audit; with hash-page-on-read, even attacks she
// reverts before the audit are caught if any transaction read the
// tampered data.

#include "adversary/mala.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "common/coding.h"
#include "compliance/compliance_log.h"
#include "db/compliant_db.h"
#include "numbered.h"
#include "test_dir.h"

namespace complydb {
namespace {

using testutil::Numbered;

constexpr uint64_t kMinute = 60ull * 1'000'000;

class AdversaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir_.Reset("mala_" + testutil::TestName());
  }

  DbOptions MakeOptions(bool hash_on_read = false) {
    DbOptions opts;
    opts.dir = dir_;
    opts.cache_pages = 64;
    opts.clock = &clock_;
    opts.compliance.enabled = true;
    opts.compliance.hash_on_read = hash_on_read;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    return opts;
  }

  void OpenDb(const DbOptions& opts) {
    auto r = CompliantDB::Open(opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    db_.reset(r.value());
  }

  // Seeds a table with committed data, flushed to disk, and cleanly
  // closes — Mala operates on the files of a closed database.
  uint32_t SeedAndClose(int keys, const DbOptions& opts) {
    OpenDb(opts);
    auto table = db_->CreateTable("ledger");
    EXPECT_TRUE(table.ok());
    table_ = table.value();
    for (int i = 0; i < keys; ++i) {
      auto txn = db_->Begin();
      EXPECT_TRUE(txn.ok());
      EXPECT_TRUE(db_->Put(txn.value(), table_,
                           Numbered("acct", 1000 + i),
                           Numbered("balance-", i))
                      .ok());
      EXPECT_TRUE(db_->Commit(txn.value()).ok());
    }
    EXPECT_TRUE(db_->Close().ok());
    db_.reset();
    return table_;
  }

  void ReopenAndExpectAuditFails(const std::string& label) {
    OpenDb(MakeOptions());
    auto report = db_->Audit();
    ASSERT_TRUE(report.ok()) << label << ": " << report.status().ToString();
    EXPECT_FALSE(report.value().ok())
        << label << ": the audit failed to detect the attack";
  }

  SimulatedClock clock_;
  testutil::TestDir test_dir_;
  std::string dir_;
  uint32_t table_ = 0;
  std::unique_ptr<CompliantDB> db_;
};

TEST_F(AdversaryTest, CleanDatabasePassesControl) {
  SeedAndClose(50, MakeOptions());
  OpenDb(MakeOptions());
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok())
      << "control failed: " << report.value().problems[0];
}

TEST_F(AdversaryTest, TamperedValueDetected) {
  uint32_t table = SeedAndClose(50, MakeOptions());
  Mala mala(dir_ + "/data.db");
  ASSERT_TRUE(mala.TamperTupleValue(table, "acct1007").ok());
  ReopenAndExpectAuditFails("retroactive value alteration");
}

TEST_F(AdversaryTest, ShreddedUnexpiredTupleDetected) {
  uint32_t table = SeedAndClose(50, MakeOptions());
  // Find the version's start time through the closed DB's own files.
  OpenDb(MakeOptions());
  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(table, "acct1007", &history).ok());
  ASSERT_EQ(history.size(), 1u);
  uint64_t start = history[0].start;
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();

  Mala mala(dir_ + "/data.db");
  ASSERT_TRUE(mala.DeleteTupleVersion(table, "acct1007", start).ok());
  ReopenAndExpectAuditFails("premature shredding");
}

TEST_F(AdversaryTest, LeafSwapDetected) {
  uint32_t table = SeedAndClose(50, MakeOptions());
  Mala mala(dir_ + "/data.db");
  ASSERT_TRUE(mala.SwapLeafEntries(table).ok());
  ReopenAndExpectAuditFails("Fig. 2(b) leaf element swap");
}

TEST_F(AdversaryTest, InternalKeyTamperDetected) {
  // Enough keys to grow internal nodes.
  uint32_t table = SeedAndClose(2000, MakeOptions());
  Mala mala(dir_ + "/data.db");
  ASSERT_TRUE(mala.TamperInternalKey(table).ok());
  ReopenAndExpectAuditFails("Fig. 2(c) internal key tampering");
}

TEST_F(AdversaryTest, BackdatedInsertionDetected) {
  uint32_t table = SeedAndClose(50, MakeOptions());
  Mala mala(dir_ + "/data.db");
  ASSERT_TRUE(mala.InsertBackdatedTuple(table, "acct1025a", "forged-record",
                                        clock_.NowMicros() - kMinute)
                  .ok());
  ReopenAndExpectAuditFails("post-hoc insertion of a government record");
}

TEST_F(AdversaryTest, StateReversionUndetectedWithoutReadHashes) {
  // The base log-consistent architecture cannot see a tamper-then-revert
  // (its query verification interval is infinite, §V). This test pins
  // down that documented limitation.
  uint32_t table = SeedAndClose(50, MakeOptions(/*hash_on_read=*/false));
  Mala mala(dir_ + "/data.db");
  ASSERT_TRUE(mala.TamperTupleValue(table, "acct1007").ok());

  // A reader consumes the tampered value...
  OpenDb(MakeOptions(/*hash_on_read=*/false));
  std::string value;
  ASSERT_TRUE(db_->Get(table, "acct1007", &value).ok());
  EXPECT_NE(value, "balance-7");  // the lie was served
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();

  // ...Mala reverts before the audit (the XOR tamper is an involution).
  ASSERT_TRUE(mala.TamperTupleValue(table, "acct1007").ok());

  OpenDb(MakeOptions(false));
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok()) << "base architecture should NOT detect "
                                      "a reverted tamper";
}

TEST_F(AdversaryTest, StateReversionCaughtByHashPageOnRead) {
  // Same attack, hash-page-on-read enabled: the READ record of the
  // tampered page pins the lie (§V).
  uint32_t table = SeedAndClose(50, MakeOptions(/*hash_on_read=*/true));
  Mala mala(dir_ + "/data.db");
  ASSERT_TRUE(mala.TamperTupleValue(table, "acct1007").ok());

  OpenDb(MakeOptions(/*hash_on_read=*/true));
  std::string value;
  ASSERT_TRUE(db_->Get(table, "acct1007", &value).ok());
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();

  ASSERT_TRUE(mala.TamperTupleValue(table, "acct1007").ok());  // revert

  OpenDb(MakeOptions(true));
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().ok())
      << "hash-page-on-read must catch the read of tampered data";
}

TEST_F(AdversaryTest, IndexStateReversionCaughtByHashPageOnRead) {
  // Tamper an internal separator, let a query descend through it, revert
  // before the audit: index-page READ hashes (§V) pin the lie just like
  // data-page hashes do.
  uint32_t table = SeedAndClose(2000, MakeOptions(/*hash_on_read=*/true));
  Mala mala(dir_ + "/data.db");
  ASSERT_TRUE(mala.TamperInternalKey(table, +1).ok());

  OpenDb(MakeOptions(/*hash_on_read=*/true));
  std::string value;
  // Descend: reads internal pages from disk (cold cache).
  (void)db_->Get(table, "acct2500", &value);
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();

  ASSERT_TRUE(mala.TamperInternalKey(table, -1).ok());  // revert

  OpenDb(MakeOptions(true));
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().ok())
      << "index-page hash-on-read must catch the tampered descent";
  bool found = false;
  for (const auto& p : report.value().problems) {
    if (p.find("index page") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << "expected an index-page finding; first: "
                     << report.value().problems[0];
}

TEST_F(AdversaryTest, WalTruncationDetected) {
  DbOptions opts = MakeOptions();
  OpenDb(opts);
  auto table = db_->CreateTable("ledger");
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 30; ++i) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(
        db_->Put(txn.value(), table.value(), Numbered("k", i), "v")
            .ok());
    ASSERT_TRUE(db_->Commit(txn.value()).ok());
  }
  // Crash (dirty pages lost; WAL holds the only copy of recent commits).
  db_.reset();

  Mala mala(dir_ + "/data.db");
  ASSERT_TRUE(mala.TruncateWalFile(dir_ + "/txn.wal", 512).ok());

  OpenDb(MakeOptions());
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().ok())
      << "WORM log tail must expose the truncated WAL";
}

TEST_F(AdversaryTest, SpuriousAbortAppendDetected) {
  // Mala CAN append to L (WORM files are appendable); a forged ABORT for
  // a committed transaction must fail the audit.
  SeedAndClose(20, MakeOptions());

  OpenDb(MakeOptions());
  // Identify some committed transaction from the stamp index.
  ComplianceLog log(db_->worm(), db_->epoch());
  ASSERT_TRUE(log.OpenExisting().ok());
  TxnId victim = 0;
  ASSERT_TRUE(log.ScanStampIndex([&](TxnId txn, uint64_t, uint64_t) {
                    victim = txn;
                    return Status::OK();
                  })
                  .ok());
  ASSERT_NE(victim, 0u);

  CRecord fake;
  fake.type = CRecordType::kAbort;
  fake.txn_id = victim;
  ASSERT_TRUE(
      db_->worm()->Append(LogFileName(db_->epoch()), fake.Encode()).ok());

  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().ok())
      << "ABORT+STAMP_TRANS for one txn must be flagged";
}

TEST_F(AdversaryTest, SpuriousUndoAppendDetected) {
  uint32_t table = SeedAndClose(20, MakeOptions());
  OpenDb(MakeOptions());

  // Forge an UNDO that tries to license removing a committed tuple.
  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(table, "acct1003", &history).ok());
  ASSERT_EQ(history.size(), 1u);
  CRecord fake;
  fake.type = CRecordType::kUndo;
  fake.tree_id = table;
  fake.pgno = 1;  // she has to guess/scan; any leaf works for the forgery
  fake.tuple = EncodeTuple(history[0]);
  ASSERT_TRUE(
      db_->worm()->Append(LogFileName(db_->epoch()), fake.Encode()).ok());

  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().ok())
      << "an unjustified UNDO in L must be flagged";
}

TEST_F(AdversaryTest, CatalogRootRedirectDetected) {
  // Mala edits the meta-page catalog to point table 'ledger' at another
  // tree's root — queries would silently read the wrong relation. Before
  // the first audit the WAL still holds catalog page images and redo
  // heals the edit; after an audit (WAL truncated) the tamper persists
  // and the auditor's catalog cross-check must flag it.
  SeedAndClose(50, MakeOptions());
  {
    OpenDb(MakeOptions());
    auto report = db_->Audit();
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report.value().ok());
    ASSERT_TRUE(db_->Close().ok());
    db_.reset();
  }

  {
    auto disk = DiskManager::Open(dir_ + "/data.db");
    ASSERT_TRUE(disk.ok());
    std::unique_ptr<DiskManager> d(disk.value());
    Page meta;
    ASSERT_TRUE(d->ReadPage(kMetaPage, &meta).ok());
    ASSERT_GT(meta.slot_count(), 0);
    // Decode, redirect every root to the first one, re-encode.
    Slice rec = meta.RecordAt(0);
    Decoder dec(Slice(rec.data() + 2, rec.size() - 2));
    uint32_t count = 0;
    ASSERT_TRUE(dec.GetFixed32(&count).ok());
    std::string body;
    PutFixed32(&body, count);
    uint32_t first_root = 0;
    for (uint32_t i = 0; i < count; ++i) {
      std::string name;
      uint32_t tree_id = 0, root = 0;
      ASSERT_TRUE(dec.GetLengthPrefixed(&name).ok());
      ASSERT_TRUE(dec.GetFixed32(&tree_id).ok());
      ASSERT_TRUE(dec.GetFixed32(&root).ok());
      if (i == 0) first_root = root;
      PutLengthPrefixed(&body, name);
      PutFixed32(&body, tree_id);
      PutFixed32(&body, first_root);  // all tables now share one root
    }
    std::string record;
    PutFixed16(&record, static_cast<uint16_t>(2 + body.size()));
    record += body;
    ASSERT_TRUE(meta.EraseRecord(0).ok());
    ASSERT_TRUE(meta.InsertRecord(0, record).ok());
    ASSERT_TRUE(d->WritePage(kMetaPage, meta).ok());
  }

  ReopenAndExpectAuditFails("catalog root redirection");
}

TEST_F(AdversaryTest, WormSurfaceRefusesTampering) {
  SeedAndClose(10, MakeOptions());
  OpenDb(MakeOptions());
  Mala mala(dir_ + "/data.db");
  uint64_t violations_before = db_->worm()->violation_count();
  Status s = mala.AttackWormStore(db_->worm(), LogFileName(db_->epoch()));
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(db_->worm()->violation_count(), violations_before);
  // And the store is unharmed: the audit still passes.
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok());
}

TEST_F(AdversaryTest, TamperWhileDbRunningCaughtAtNextAudit) {
  // Mala edits the file while the DBMS is live (between flushes); the
  // next audit reads the disk, not the cache.
  uint32_t table = 0;
  {
    OpenDb(MakeOptions());
    auto t = db_->CreateTable("ledger");
    ASSERT_TRUE(t.ok());
    table = t.value();
    for (int i = 0; i < 30; ++i) {
      auto txn = db_->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(db_->Put(txn.value(), table, Numbered("k", i), "v")
                      .ok());
      ASSERT_TRUE(db_->Commit(txn.value()).ok());
    }
    ASSERT_TRUE(db_->FlushAll().ok());
  }
  Mala mala(dir_ + "/data.db");
  ASSERT_TRUE(mala.TamperTupleValue(table, "k5").ok());
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().ok());
}

}  // namespace
}  // namespace complydb

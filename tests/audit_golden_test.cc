// Golden oracle for the full audit: fixed fixtures (TPC-C under each
// compliance configuration, shredding, crash recovery, two writers) are
// built deterministically on a simulated clock, audited, and the SHA-256
// of the signed snapshot the audit writes plus the report's counters and
// findings are compared against digests recorded before the audit's L
// pass moved onto the AuditCursor. Any change to how the audit replays L
// that alters the verdict, the replayed state, or the snapshot shows up
// here as a digest mismatch.
//
// A second family asserts that an AuditIncremental run partway through
// the workload (and another right before the audit) leaves the audit's
// snapshot bytes and report identical to an audit of the same database
// built without certification.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compliance/compliance_log.h"
#include "crypto/sha256.h"
#include "db/compliant_db.h"
#include "numbered.h"
#include "test_dir.h"
#include "tpcc/workload.h"

namespace complydb {
namespace {

using testutil::Numbered;

constexpr uint64_t kMinute = 60ull * 1'000'000;
constexpr uint64_t kDay = 24ull * 60 * kMinute;

/// What one audit is pinned to.
struct Golden {
  std::string snapshot_sha256;  // hex of the snapshot file the audit wrote
  uint64_t log_records = 0;
  uint64_t pages_checked = 0;
  uint64_t tuples_checked = 0;
  uint64_t read_hashes_checked = 0;
  uint64_t migrations_verified = 0;
  uint64_t shreds_verified = 0;
  std::vector<std::string> problems;

  bool operator==(const Golden&) const = default;
};

std::string Describe(const Golden& g) {
  std::string s = "{\"" + g.snapshot_sha256 + "\", " +
                  std::to_string(g.log_records) + ", " +
                  std::to_string(g.pages_checked) + ", " +
                  std::to_string(g.tuples_checked) + ", " +
                  std::to_string(g.read_hashes_checked) + ", " +
                  std::to_string(g.migrations_verified) + ", " +
                  std::to_string(g.shreds_verified) + ", {";
  for (size_t i = 0; i < g.problems.size(); ++i) {
    s += (i == 0 ? "\"" : ", \"") + g.problems[i] + "\"";
  }
  return s + "}}";
}

tpcc::Scale SmallScale() {
  tpcc::Scale scale;
  scale.warehouses = 1;
  scale.districts_per_warehouse = 3;
  scale.customers_per_district = 12;
  scale.items = 100;
  scale.initial_orders_per_district = 12;
  return scale;
}

// CI jobs force write-thread / shipper / scheduler / audit-thread env
// overrides; the fixtures pin all of them per options, so the env is
// cleared for the test and restored afterwards.
class AuditGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name :
         {"COMPLYDB_WRITE_THREADS", "COMPLYDB_COMPLIANCE_ASYNC",
          "COMPLYDB_AUDIT_THREADS", "COMPLYDB_SLOT_SCHEDULER"}) {
      const char* env = std::getenv(name);
      saved_.emplace_back(name,
                          env != nullptr ? std::optional<std::string>(env)
                                         : std::nullopt);
      ::unsetenv(name);
    }
  }
  void TearDown() override {
    db_.reset();
    for (const auto& [name, value] : saved_) {
      if (value.has_value()) ::setenv(name.c_str(), value->c_str(), 1);
    }
  }

  DbOptions MakeOptions(const std::string& name) {
    DbOptions opts;
    opts.dir = test_dir_.Reset("golden_" + name);
    opts.cache_pages = 512;
    opts.clock = clock_.get();
    opts.compliance.enabled = true;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    return opts;
  }

  void Open(const DbOptions& opts) {
    auto r = CompliantDB::Open(opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    db_.reset(r.value());
  }

  void LoadTpcc(uint64_t seed) {
    workload_ = std::make_unique<tpcc::Workload>(db_.get(), SmallScale(),
                                                 seed);
    ASSERT_TRUE(workload_->CreateOrAttachTables().ok());
    Status s = workload_->Load();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  // The serial mix, one regret interval per 100 transactions: every
  // interval forces dirty pages, stamps, and seals an epoch.
  void RunMix(uint64_t txns) {
    tpcc::MixStats stats;
    for (uint64_t i = 0; i < txns; ++i) {
      Status s = workload_->RunMix(1, &stats);
      ASSERT_TRUE(s.ok()) << s.ToString();
      clock_->AdvanceMicros(5 * kMinute / 100);
    }
  }

  void Certify() {
    auto rep = db_->AuditIncremental(1);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    ASSERT_TRUE(rep.value().ok()) << rep.value().problems[0];
    ASSERT_GT(rep.value().certified_seq, 0u);
  }

  // Full audit of the current epoch; the golden record of the snapshot it
  // wrote (empty digest when a failing audit wrote none).
  Golden AuditAndRecord(uint32_t threads) {
    const uint64_t next = db_->epoch() + 1;
    auto report = db_->Audit(threads);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) return Golden{};
    Golden g;
    std::string bytes;
    if (db_->worm()->ReadAll(SnapshotFileName(next), &bytes).ok()) {
      g.snapshot_sha256 = DigestHex(Sha256::Hash(bytes));
    }
    const AuditReport& r = report.value();
    g.log_records = r.log_records;
    g.pages_checked = r.pages_checked;
    g.tuples_checked = r.tuples_checked;
    g.read_hashes_checked = r.read_hashes_checked;
    g.migrations_verified = r.migrations_verified;
    g.shreds_verified = r.shreds_verified;
    g.problems = r.problems;
    return g;
  }

  static void ExpectGolden(const Golden& want, const Golden& got) {
    EXPECT_TRUE(want == got) << "want " << Describe(want) << "\n got  "
                             << Describe(got);
  }

  // Fixture 1 (and the equivalence family): log-consistent, TSB on.
  // `certify_at` > 0 certifies after that many transactions and again
  // right before the audit.
  Golden LogConsistentTsb(const std::string& name, uint64_t certify_at,
                          bool hash_on_read = false) {
    DbOptions opts = MakeOptions(name);
    opts.tsb_enabled = true;
    opts.tsb_split_threshold = 0.5;
    opts.compliance.hash_on_read = hash_on_read;
    if (hash_on_read) opts.cache_pages = 48;
    Open(opts);
    LoadTpcc(7);
    if (certify_at > 0) {
      RunMix(certify_at);
      Certify();
      RunMix(400 - certify_at);
      EXPECT_TRUE(db_->FlushAll().ok());
      Certify();
    } else {
      RunMix(400);
    }
    return AuditAndRecord(1);
  }

  testutil::TestDir test_dir_;
  std::unique_ptr<SimulatedClock> clock_ =
      std::make_unique<SimulatedClock>();
  std::unique_ptr<CompliantDB> db_;
  std::unique_ptr<tpcc::Workload> workload_;
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

TEST_F(AuditGoldenTest, LogConsistentWithTsb) {
  ExpectGolden({"b976e2c4fb66141fc64ccdea586e6b9ab35c5565742fa803fb153af70545936b",
                8894, 139, 4007, 0, 91, 0, {}},
               LogConsistentTsb("lc_tsb", /*certify_at=*/0));
}

TEST_F(AuditGoldenTest, HashOnRead) {
  DbOptions opts = MakeOptions("hor");
  opts.cache_pages = 48;  // far below the database: misses and READ hashes
  opts.compliance.hash_on_read = true;
  Open(opts);
  LoadTpcc(11);
  RunMix(300);
  ExpectGolden(
      {"9f8351c03ffce03a609cd3e4b4c6b7675ba0adc39d6a2013d55509a2c5190791",
                10256, 145, 4393, 1389, 0, 0, {}},
      AuditAndRecord(1));
}

TEST_F(AuditGoldenTest, ShredAndRetention) {
  DbOptions opts = MakeOptions("shred");
  opts.cache_pages = 64;
  opts.tsb_enabled = true;
  opts.tsb_split_threshold = 0.5;
  Open(opts);
  auto hot = db_->CreateTable("stock");
  ASSERT_TRUE(hot.ok());
  auto pii = db_->CreateTable("pii");
  ASSERT_TRUE(pii.ok());
  ASSERT_TRUE(db_->SetRetention(hot.value(), 30 * kDay).ok());
  ASSERT_TRUE(db_->SetRetention(pii.value(), 30 * kDay).ok());
  auto put = [&](uint32_t table, const std::string& key,
                 const std::string& value) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db_->Put(txn.value(), table, key, value).ok());
    ASSERT_TRUE(db_->Commit(txn.value()).ok());
  };
  // Hot-key updates migrate history to WORM (whole-file shreds later);
  // the pii table's superseded versions stay live (in-place shreds).
  for (int round = 0; round < 120; ++round) {
    put(hot.value(), "hot", Numbered("v", round).append(80, '.'));
    if (round % 10 == 0) {
      put(pii.value(), Numbered("ssn", round % 30), Numbered("r", round));
    }
    clock_->AdvanceMicros(kMinute / 4);
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  // The superseded versions must pass through one audit before shredding.
  ExpectGolden(
      {"40e0d6ec47ccf0aa3c05e035976be927c3df43957c4db4cf12fa3c866aa7a099",
                280, 4, 25, 0, 3, 0, {}},
      AuditAndRecord(1));
  clock_->AdvanceMicros(31 * kDay);
  for (uint32_t table : {hot.value(), pii.value()}) {
    auto vac = db_->Vacuum(table);
    ASSERT_TRUE(vac.ok()) << vac.status().ToString();
    EXPECT_GT(vac.value().shredded, 0u);
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  ExpectGolden(
      {"96679188ea0453e464ec080d966081e2a3b571fcb721d86688ab23d733189ca0",
                147, 4, 6, 0, 0, 128, {}},
      AuditAndRecord(1));
}

TEST_F(AuditGoldenTest, CrashAndRecover) {
  DbOptions opts = MakeOptions("crash");
  opts.cache_pages = 64;
  Open(opts);
  LoadTpcc(13);
  RunMix(150);
  // A loser transaction whose uncommitted tuples already reached L.
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db_->Put(txn.value(), workload_->tables().item,
                         Numbered("loser", i), "x")
                    .ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  // Crash: destroy without Close or commit.
  workload_.reset();
  db_.reset();
  Open(opts);
  ASSERT_TRUE(db_->recovered_from_crash());
  workload_ = std::make_unique<tpcc::Workload>(db_.get(), SmallScale(), 17);
  ASSERT_TRUE(workload_->CreateOrAttachTables().ok());
  RunMix(100);
  ExpectGolden(
      {"e241b8a8bb3dd15c29d0e50168e87e15070732ef03c58216552f7acc4db23cb4",
                8577, 143, 4175, 0, 0, 0, {}},
      AuditAndRecord(1));
}

TEST_F(AuditGoldenTest, TwoWriters) {
  DbOptions opts = MakeOptions("two_writers");
  opts.write_threads = 2;
  Open(opts);
  LoadTpcc(19);
  tpcc::MixStats stats;
  Status s = workload_->RunMixConcurrent(300, 2, clock_.get(), 5 * kMinute / 100,
                                         &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  // The sharded per-window replay must reach the same digests.
  ExpectGolden(
      {"e5f00c28297f645f872dd3eb74b5031d44a785975a3925b06f6d1455bbe819ec",
                6187, 152, 4531, 0, 0, 0, {}},
      AuditAndRecord(4));
}

TEST_F(AuditGoldenTest, CertifyingFirstLeavesTheAuditUnchanged) {
  for (bool hash_on_read : {false, true}) {
    SCOPED_TRACE(hash_on_read ? "hash-on-read" : "log-consistent");
    Golden certified =
        LogConsistentTsb("certified", /*certify_at=*/150, hash_on_read);
    db_.reset();
    clock_ = std::make_unique<SimulatedClock>();
    Golden scratch =
        LogConsistentTsb("scratch", /*certify_at=*/0, hash_on_read);
    EXPECT_FALSE(scratch.snapshot_sha256.empty());
    ExpectGolden(scratch, certified);
    db_.reset();
    clock_ = std::make_unique<SimulatedClock>();
  }
}

}  // namespace
}  // namespace complydb

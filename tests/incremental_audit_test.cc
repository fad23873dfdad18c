// Incremental per-epoch certification: sealing, O(delta) certification,
// incremental-vs-full-replay equivalence (including across crash/reopen
// and across worker counts), inclusion proofs, wait-for-quiesce, exit
// codes, tamper detection under concurrent reader/writer load, and the
// full audit and standalone cdb_audit catching L edits in the certified
// prefix, the sealed range, and the unsealed tail.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit_cursor.h"
#include "audit/auditor.h"
#include "audit/epoch_chain.h"
#include "common/clock.h"
#include "common/coding.h"
#include "compliance/compliance_log.h"
#include "crypto/hmac.h"
#include "db/compliant_db.h"
#include "db/snapshot_reader.h"
#include "numbered.h"
#include "test_dir.h"

namespace complydb {
namespace {

using testutil::Numbered;

constexpr uint64_t kMinute = 60ull * 1'000'000;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void FlipByteAt(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing " << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  ASSERT_TRUE(f.good());
  b ^= 0x5a;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
  ASSERT_TRUE(f.good());
}

// First payload byte offset of a frame starting at or after `from` whose
// payload is at least 3 bytes, or 0 if none before `limit`. Frames are
// len u32 | crc u32 | payload.
uint64_t PayloadByteIn(const std::string& log, uint64_t from,
                       uint64_t limit) {
  uint64_t off = 0;
  while (off + 8 <= log.size() && off < limit) {
    uint32_t len = DecodeFixed32(log.data() + off);
    if (off >= from && len >= 3 && off + 8 + len <= limit) {
      return off + 8 + 1;
    }
    off += 8 + len;
  }
  return 0;
}

// CI jobs force write-thread / shipper env overrides; these tests pin
// both per-options, so the fixture clears the env and restores it.
class IncrementalAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name :
         {"COMPLYDB_WRITE_THREADS", "COMPLYDB_COMPLIANCE_ASYNC",
          "COMPLYDB_AUDIT_THREADS"}) {
      const char* env = std::getenv(name);
      saved_.emplace_back(name,
                          env != nullptr ? std::optional<std::string>(env)
                                         : std::nullopt);
      ::unsetenv(name);
    }
  }
  void TearDown() override {
    for (const auto& [name, value] : saved_) {
      if (value.has_value()) ::setenv(name.c_str(), value->c_str(), 1);
    }
  }

  DbOptions MakeOptions(const std::string& dir, uint32_t write_threads = 1) {
    DbOptions opts;
    opts.dir = dir;
    opts.cache_pages = 64;
    opts.clock = clock_.get();
    opts.compliance.enabled = true;
    opts.compliance.hash_on_read = true;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    opts.write_threads = write_threads;
    return opts;
  }

  void Open(const DbOptions& opts) {
    auto r = CompliantDB::Open(opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    db_.reset(r.value());
  }

  std::string FreshDir(const std::string& name) {
    dir_ = test_dir_.path() + "/" + name;
    std::filesystem::remove_all(dir_);
    return dir_;
  }

  uint32_t MakeTable(const std::string& name) {
    auto t = db_->CreateTable(name);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? t.value() : 0;
  }

  void PutRow(uint32_t table, const std::string& key,
              const std::string& value) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok()) << txn.status().ToString();
    ASSERT_TRUE(db_->Put(txn.value(), table, key, value).ok());
    Status s = db_->Commit(txn.value());
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  std::string LogPath() const { return dir_ + "/worm/" + LogFileName(0); }

  // L offsets bounding the three regions a full audit must cover.
  struct LRegions {
    uint64_t certified = 0;  // [0, certified): certified prefix
    uint64_t sealed = 0;     // [certified, sealed): sealed, uncertified
    uint64_t end = 0;        // [sealed, end): unsealed tail
  };

  // Writes, certifies, writes and seals, then writes an unsealed tail.
  LRegions GrowThreeRegions(uint32_t table) {
    LRegions r;
    for (int i = 0; i < 30; ++i) PutRow(table, Numbered("c", i), "v");
    EXPECT_TRUE(db_->FlushAll().ok());
    auto rep = db_->AuditIncremental(1);
    EXPECT_TRUE(rep.ok() && rep.value().ok());
    if (rep.ok()) r.certified = rep.value().certified_offset;
    for (int i = 0; i < 20; ++i) PutRow(table, Numbered("s", i), "v");
    EXPECT_TRUE(db_->FlushAll().ok());
    EXPECT_TRUE(db_->SealEpochNow().ok());
    auto cs = db_->Certification();
    EXPECT_TRUE(cs.ok());
    if (cs.ok()) r.sealed = cs.value().sealed_offset;
    for (int i = 0; i < 20; ++i) PutRow(table, Numbered("u", i), "v");
    EXPECT_TRUE(db_->FlushAll().ok());
    r.end = ReadFileBytes(LogPath()).size();
    EXPECT_LT(0u, r.certified);
    EXPECT_LT(r.certified, r.sealed);
    EXPECT_LT(r.sealed, r.end);
    return r;
  }

  testutil::TestDir test_dir_{"inc_audit_" + testutil::TestName()};
  std::unique_ptr<SimulatedClock> clock_ =
      std::make_unique<SimulatedClock>();
  std::string dir_;
  std::unique_ptr<CompliantDB> db_;
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

TEST_F(IncrementalAuditTest, SealsAndCertifiesWithoutQuiescing) {
  Open(MakeOptions(FreshDir("basics")));
  uint32_t t = MakeTable("acct");
  for (int i = 0; i < 25; ++i) {
    PutRow(t, Numbered("k", i), Numbered("v", i));
  }
  // A reader stays open across the whole run: the full audit would
  // return Busy, the incremental one must not care.
  auto snap = db_->BeginSnapshot();
  ASSERT_TRUE(snap.ok());
  std::unique_ptr<SnapshotReader> reader(snap.value());

  auto rep = db_->AuditIncremental(1);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep.value().ok()) << rep.value().problems[0];
  EXPECT_GE(rep.value().certified_seq, 1u);
  EXPECT_GT(rep.value().records_replayed, 0u);
  EXPECT_GT(rep.value().bytes_replayed, 0u);
  EXPECT_EQ(db_->CertifiedEpoch(), rep.value().certified_seq);

  auto cs = db_->Certification();
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  EXPECT_TRUE(cs.value().enabled);
  EXPECT_EQ(cs.value().certified_seq, rep.value().certified_seq);
  EXPECT_EQ(cs.value().backlog_epochs, 0u);
  EXPECT_EQ(cs.value().backlog_bytes, 0u);
  EXPECT_TRUE(DigestEqual(cs.value().chain_root, rep.value().chain_root));

  // The full audit with the same reader open stays Busy — the old
  // contract is untouched.
  auto full = db_->Audit(1);
  EXPECT_TRUE(full.status().IsBusy());
}

TEST_F(IncrementalAuditTest, RecertificationCostIsODelta) {
  Open(MakeOptions(FreshDir("odelta")));
  uint32_t t = MakeTable("acct");

  uint64_t prev_offset = 0;
  uint64_t first_bytes = 0;
  for (int step = 0; step < 4; ++step) {
    for (int i = 0; i < 20; ++i) {
      PutRow(t, Numbered(Numbered("s", step) + "k", i), "v");
    }
    auto rep = db_->AuditIncremental(1);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    ASSERT_TRUE(rep.value().ok()) << rep.value().problems[0];
    // The run replays exactly the bytes between the previous certified
    // head and the new one — never the whole of L again.
    EXPECT_EQ(rep.value().bytes_replayed,
              rep.value().certified_offset - prev_offset);
    EXPECT_GT(rep.value().certified_offset, prev_offset);
    if (step == 0) {
      first_bytes = rep.value().bytes_replayed;
    } else {
      // Re-audit cost tracks the delta (~one batch), not the log length,
      // which by step 3 is 4x the first batch.
      EXPECT_LT(rep.value().bytes_replayed, first_bytes * 3);
    }
    prev_offset = rep.value().certified_offset;
  }
}

TEST_F(IncrementalAuditTest, IncrementalMatchesFullReplay) {
  Open(MakeOptions(FreshDir("equiv")));
  uint32_t t = MakeTable("acct");
  for (int step = 0; step < 3; ++step) {
    for (int i = 0; i < 15; ++i) {
      PutRow(t, Numbered(Numbered("s", step) + "k", i),
             std::string(1 + i % 40, 'x'));
    }
    auto inc = db_->AuditIncremental(1);
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();
    ASSERT_TRUE(inc.value().ok()) << inc.value().problems[0];

    auto full = db_->AuditFullReplay(1);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_TRUE(full.value().ok()) << full.value().problems[0];

    // Verdict equivalence: same chain head, same replayed state, same
    // (empty) problem list — byte for byte.
    EXPECT_EQ(inc.value().certified_seq, full.value().certified_seq);
    EXPECT_EQ(inc.value().certified_offset, full.value().certified_offset);
    EXPECT_TRUE(
        DigestEqual(inc.value().chain_root, full.value().chain_root));
    EXPECT_TRUE(
        DigestEqual(inc.value().state_digest, full.value().state_digest));
    EXPECT_EQ(inc.value().all_problems, full.value().all_problems);
  }
}

TEST_F(IncrementalAuditTest, EquivalenceSurvivesCrashAndReopen) {
  DbOptions opts = MakeOptions(FreshDir("crash"));
  Open(opts);
  uint32_t t = MakeTable("acct");
  for (int i = 0; i < 20; ++i) PutRow(t, Numbered("k", i), "v1");
  auto rep = db_->AuditIncremental(1);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  ASSERT_TRUE(rep.value().ok());
  const uint64_t certified_before = rep.value().certified_seq;
  for (int i = 0; i < 20; ++i) PutRow(t, Numbered("k", i), "v2");

  // Crash: destroy without Close. The certification marker written by the
  // clean run above must be picked up on reopen.
  db_.reset();
  Open(opts);
  t = db_->GetTable("acct").value();
  for (int i = 0; i < 10; ++i) PutRow(t, Numbered("post", i), "v3");

  auto inc = db_->AuditIncremental(1);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  ASSERT_TRUE(inc.value().ok()) << inc.value().problems[0];
  EXPECT_GT(inc.value().certified_seq, certified_before);
  // The reopened cursor resumed from the marker: this run replayed only
  // the post-marker delta, not the certified prefix.
  EXPECT_LT(inc.value().bytes_replayed, inc.value().certified_offset);

  auto full = db_->AuditFullReplay(1);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_TRUE(full.value().ok()) << full.value().problems[0];
  EXPECT_EQ(inc.value().certified_seq, full.value().certified_seq);
  EXPECT_TRUE(DigestEqual(inc.value().chain_root, full.value().chain_root));
  EXPECT_TRUE(
      DigestEqual(inc.value().state_digest, full.value().state_digest));
  EXPECT_EQ(inc.value().all_problems, full.value().all_problems);
}

TEST_F(IncrementalAuditTest, WindowReplayIsDeterministicAcrossThreads) {
  Open(MakeOptions(FreshDir("threads")));
  uint32_t t = MakeTable("acct");
  for (int i = 0; i < 60; ++i) {
    PutRow(t, Numbered("k", i % 17), std::string(1 + i % 64, 'y'));
  }
  auto serial = db_->AuditFullReplay(1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto sharded = db_->AuditFullReplay(4);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded.value().threads_used, 4u);
  EXPECT_EQ(serial.value().certified_seq, sharded.value().certified_seq);
  EXPECT_TRUE(
      DigestEqual(serial.value().chain_root, sharded.value().chain_root));
  EXPECT_TRUE(DigestEqual(serial.value().state_digest,
                          sharded.value().state_digest));
  EXPECT_EQ(serial.value().all_problems, sharded.value().all_problems);
}

TEST_F(IncrementalAuditTest, InclusionProofVerifiesAndBindsAllFields) {
  Open(MakeOptions(FreshDir("proof")));
  uint32_t t = MakeTable("acct");
  for (int i = 0; i < 10; ++i) {
    PutRow(t, Numbered("k", i), Numbered("balance-", i));
  }
  // Tuple bodies reach L on page writeback (within the regret interval);
  // flush so the certified range covers the NEW_TUPLE records.
  ASSERT_TRUE(db_->FlushAll().ok());
  auto rep = db_->AuditIncremental(1);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  ASSERT_TRUE(rep.value().ok());
  const Sha256Digest root = rep.value().chain_root;

  auto snap = db_->BeginSnapshot();
  ASSERT_TRUE(snap.ok());
  std::unique_ptr<SnapshotReader> reader(snap.value());
  std::string value;
  uint64_t commit_time = 0;
  InclusionProof proof;
  Status s = reader->GetWithProof(t, "k3", &value, &commit_time, &proof);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(value, "balance-3");
  EXPECT_GT(commit_time, 0u);

  // The verifier is pure: only the proof bytes and the trusted root.
  EXPECT_TRUE(
      VerifyInclusionProof(proof, root, t, "k3", value, commit_time).ok());

  // Every bound field must bite.
  EXPECT_FALSE(
      VerifyInclusionProof(proof, root, t, "k3", "forged", commit_time).ok());
  EXPECT_FALSE(
      VerifyInclusionProof(proof, root, t, "k4", value, commit_time).ok());
  EXPECT_FALSE(
      VerifyInclusionProof(proof, root, t, "k3", value, commit_time + 1)
          .ok());
  EXPECT_FALSE(
      VerifyInclusionProof(proof, root, t + 1, "k3", value, commit_time)
          .ok());
  Sha256Digest wrong_root = root;
  wrong_root[0] ^= 0xff;
  EXPECT_FALSE(
      VerifyInclusionProof(proof, wrong_root, t, "k3", value, commit_time)
          .ok());
  InclusionProof bent = proof;
  ASSERT_FALSE(bent.tuple.record.empty());
  bent.tuple.record[bent.tuple.record.size() / 2] ^= 0x01;
  EXPECT_FALSE(
      VerifyInclusionProof(bent, root, t, "k3", value, commit_time).ok());
}

TEST_F(IncrementalAuditTest, ProofForUncertifiedVersionIsNotFound) {
  Open(MakeOptions(FreshDir("proof_gap")));
  uint32_t t = MakeTable("acct");
  PutRow(t, "old", "v");
  ASSERT_TRUE(db_->FlushAll().ok());
  auto rep = db_->AuditIncremental(1);
  ASSERT_TRUE(rep.ok());
  ASSERT_TRUE(rep.value().ok());

  PutRow(t, "fresh", "v");  // after the certified head
  auto snap = db_->BeginSnapshot();
  ASSERT_TRUE(snap.ok());
  std::unique_ptr<SnapshotReader> reader(snap.value());
  std::string value;
  uint64_t commit_time = 0;
  InclusionProof proof;
  Status s = reader->GetWithProof(t, "fresh", &value, &commit_time, &proof);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();

  // Flush + certify the tail and the same read proves.
  ASSERT_TRUE(db_->FlushAll().ok());
  auto rep2 = db_->AuditIncremental(1);
  ASSERT_TRUE(rep2.ok());
  ASSERT_TRUE(rep2.value().ok());
  s = reader->GetWithProof(t, "fresh", &value, &commit_time, &proof);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(VerifyInclusionProof(proof, rep2.value().chain_root, t,
                                   "fresh", value, commit_time)
                  .ok());
}

TEST_F(IncrementalAuditTest, FullAuditRollsTheChainToAFreshEpoch) {
  Open(MakeOptions(FreshDir("roll")));
  uint32_t t = MakeTable("acct");
  for (int i = 0; i < 10; ++i) PutRow(t, Numbered("k", i), "v");
  auto rep = db_->AuditIncremental(1);
  ASSERT_TRUE(rep.ok());
  ASSERT_TRUE(rep.value().ok());
  ASSERT_GE(db_->CertifiedEpoch(), 1u);

  auto full = db_->Audit(1);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_TRUE(full.value().ok()) << full.value().problems[0];
  EXPECT_EQ(db_->epoch(), 1u);

  // Chain and cursor restarted with the new epoch.
  auto cs = db_->Certification();
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  EXPECT_EQ(cs.value().audit_epoch, 1u);
  EXPECT_EQ(cs.value().certified_seq, 0u);

  // And the incremental machinery works inside the new epoch.
  for (int i = 0; i < 5; ++i) PutRow(t, Numbered("n", i), "v");
  auto rep2 = db_->AuditIncremental(1);
  ASSERT_TRUE(rep2.ok()) << rep2.status().ToString();
  EXPECT_TRUE(rep2.value().ok()) << rep2.value().problems[0];
  EXPECT_GE(rep2.value().certified_seq, 1u);
}

TEST_F(IncrementalAuditTest, WaitForQuiesceTimesOutThenSucceeds) {
  Open(MakeOptions(FreshDir("quiesce")));
  uint32_t t = MakeTable("acct");
  PutRow(t, "k", "v");

  auto snap = db_->BeginSnapshot();
  ASSERT_TRUE(snap.ok());
  SnapshotReader* reader = snap.value();

  AuditOptions wait;
  wait.num_threads = 1;
  wait.wait_for_quiesce = true;
  wait.quiesce_deadline_micros = 50'000;
  auto busy = db_->Audit(wait);
  EXPECT_TRUE(busy.status().IsBusy()) << busy.status().ToString();

  // A second attempt with a generous deadline succeeds once another
  // thread releases the snapshot mid-wait.
  std::thread releaser([reader] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    delete reader;
  });
  wait.quiesce_deadline_micros = 30ull * 1'000'000;
  auto ok = db_->Audit(wait);
  releaser.join();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok.value().ok());
}

TEST(AuditExitCodes, MapStatusesToTheStableContract) {
  EXPECT_EQ(AuditExitCodeForStatus(Status::OK()), kAuditExitCompliant);
  EXPECT_EQ(AuditExitCodeForStatus(Status::Tampered("t")),
            kAuditExitTampered);
  EXPECT_EQ(AuditExitCodeForStatus(Status::Corruption("c")),
            kAuditExitTampered);
  EXPECT_EQ(AuditExitCodeForStatus(Status::Busy("b")), kAuditExitBusy);
  EXPECT_EQ(AuditExitCodeForStatus(Status::IOError("io")),
            kAuditExitIoError);
  EXPECT_EQ(AuditExitCodeForStatus(Status::NotFound("nf")),
            kAuditExitIoError);
  EXPECT_EQ(kAuditExitUsage, 2);
}

// The chaos satellite: Mala edits the compliance log itself — one byte
// inside an already-certified epoch, one byte in the sealed-but-not-yet-
// certified tail — while writers and snapshot readers keep hammering the
// database. The incremental path must catch the tail edit, the full
// replay the certified-prefix edit, both online (no quiescence). Runs
// under TSan in CI.
TEST_F(IncrementalAuditTest, TamperDetectedUnderConcurrentLoad) {
  Open(MakeOptions(FreshDir("chaos"), /*write_threads=*/2));
  uint32_t t = MakeTable("acct");
  for (int i = 0; i < 40; ++i) {
    PutRow(t, Numbered("seed", i), Numbered("v", i));
  }
  auto rep = db_->AuditIncremental(2);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  ASSERT_TRUE(rep.value().ok()) << rep.value().problems[0];
  const uint64_t certified = rep.value().certified_offset;
  ASSERT_GT(certified, 0u);

  // Grow a sealed-but-uncertified tail.
  for (int i = 0; i < 20; ++i) {
    PutRow(t, Numbered("tail", i), "v");
  }
  ASSERT_TRUE(db_->SealEpochNow().ok());
  auto cs = db_->Certification();
  ASSERT_TRUE(cs.ok());
  const uint64_t sealed = cs.value().sealed_offset;
  ASSERT_GT(sealed, certified);

  // Mala's file editor: one payload byte in the certified prefix, one in
  // the uncertified tail.
  std::string log = ReadFileBytes(LogPath());
  ASSERT_GE(log.size(), sealed);
  uint64_t prefix_hit = PayloadByteIn(log, 0, certified);
  uint64_t tail_hit = PayloadByteIn(log, certified, sealed);
  ASSERT_GT(prefix_hit, 0u);
  ASSERT_GT(tail_hit, 0u);
  FlipByteAt(LogPath(), prefix_hit);
  FlipByteAt(LogPath(), tail_hit);

  // Concurrent load for the whole detection phase.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([this, t, w, &stop, &commits] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        auto txn = db_->Begin();
        if (!txn.ok()) continue;
        std::string key = Numbered(Numbered("w", w) + "-", i);
        if (db_->Put(txn.value(), t, key, "load").ok() &&
            db_->Commit(txn.value()).ok()) {
          commits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    workers.emplace_back([this, t, &stop, &reads] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = db_->BeginSnapshot();
        if (!snap.ok()) continue;
        std::unique_ptr<SnapshotReader> reader(snap.value());
        std::string value;
        for (int i = 0; i < 10; ++i) {
          if (reader->Get(t, Numbered("seed", i), &value).ok()) {
            reads.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // Incremental run: certifies forward from `certified`, so the first
  // window it replays contains the tail edit.
  auto inc = db_->AuditIncremental(2);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  EXPECT_FALSE(inc.value().ok())
      << "tail tamper escaped incremental certification";

  // Full replay from the epoch seed catches the certified-prefix edit.
  auto full = db_->AuditFullReplay(2);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full.value().ok())
      << "certified-prefix tamper escaped full replay";

  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  EXPECT_GT(commits.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
}

// Certification does not quiesce, so a sealed window can end between a
// transaction's NEW_TUPLE and its STAMP_TRANS. The full audit that then
// finishes the cursor must still count that tuple in the ADD_HASH delta.
TEST_F(IncrementalAuditTest, FullAuditCountsATupleSealedBeforeItsCommit) {
  Open(MakeOptions(FreshDir("split_txn")));
  uint32_t t = MakeTable("acct");
  for (int i = 0; i < 10; ++i) PutRow(t, Numbered("k", i), "v");
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->Put(txn.value(), t, "open", "v").ok());
  ASSERT_TRUE(db_->FlushAll().ok());  // the unstamped tuple reaches L
  auto rep = db_->AuditIncremental(1);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  ASSERT_TRUE(rep.value().ok()) << rep.value().problems[0];
  ASSERT_TRUE(db_->Commit(txn.value()).ok());
  auto audit = db_->Audit(1);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_TRUE(audit.value().ok()) << audit.value().problems[0];
}

// Mala edits one L payload byte after a certification run: in the
// certified prefix, in the sealed-but-uncertified range, or in the
// unsealed tail. The full audit re-hashes the prefix, certifies the
// sealed range, and replays the tail, so each edit fails it — with and
// without hash-on-read.
TEST_F(IncrementalAuditTest, FullAuditCatchesLEditsInEveryRegion) {
  for (bool hash_on_read : {false, true}) {
    for (const char* region : {"certified", "sealed", "unsealed"}) {
      SCOPED_TRACE(std::string(region) +
                   (hash_on_read ? " hash-on-read" : " log-consistent"));
      db_.reset();
      DbOptions opts = MakeOptions(FreshDir("regions"));
      opts.compliance.hash_on_read = hash_on_read;
      Open(opts);
      LRegions r = GrowThreeRegions(MakeTable("acct"));
      std::string log = ReadFileBytes(LogPath());
      uint64_t hit = 0;
      if (std::string(region) == "certified") {
        hit = PayloadByteIn(log, 0, r.certified);
      } else if (std::string(region) == "sealed") {
        hit = PayloadByteIn(log, r.certified, r.sealed);
      } else {
        hit = PayloadByteIn(log, r.sealed, r.end);
      }
      ASSERT_GT(hit, 0u);
      FlipByteAt(LogPath(), hit);
      auto audit = db_->Audit(1);
      ASSERT_TRUE(audit.ok()) << audit.status().ToString();
      EXPECT_FALSE(audit.value().ok()) << "L edit escaped the full audit";
      EXPECT_FALSE(db_->worm()->Exists(SnapshotFileName(1)));
    }
  }
}

// An edited or truncated chain_<epoch> header is a finding of the full
// audit; the rest of L is then replayed from the snapshot as the tail.
TEST_F(IncrementalAuditTest, FullAuditReportsAnEditedOrTruncatedChain) {
  for (bool truncate : {false, true}) {
    SCOPED_TRACE(truncate ? "truncated" : "edited");
    db_.reset();
    Open(MakeOptions(FreshDir("chain")));
    GrowThreeRegions(MakeTable("acct"));
    const std::string chain = dir_ + "/worm/" + ChainFileName(0);
    const uint64_t size = std::filesystem::file_size(chain);
    if (truncate) {
      std::filesystem::resize_file(chain, size - 5);
    } else {
      FlipByteAt(chain, size - 10);  // inside the last header's digest
    }
    auto audit = db_->Audit(1);
    ASSERT_TRUE(audit.ok()) << audit.status().ToString();
    ASSERT_FALSE(audit.value().ok());
    EXPECT_EQ(audit.value().problems[0].rfind("epoch chain: ", 0), 0u)
        << audit.value().problems[0];
  }
}

// The standalone cdb_audit binary on a closed serial-engine database
// whose L has a sealed prefix and an unsealed tail: compliant (exit 0) as
// written, tampering (exit 1) after one L payload byte in either region
// is flipped, compliant again once the byte is flipped back.
TEST_F(IncrementalAuditTest, CdbAuditExitCodesForSealedAndUnsealedEdits) {
  Open(MakeOptions(FreshDir("cli")));
  uint32_t t = MakeTable("acct");
  for (int i = 0; i < 30; ++i) PutRow(t, Numbered("k", i), "v");
  ASSERT_TRUE(db_->FlushAll().ok());
  ASSERT_TRUE(db_->SealEpochNow().ok());
  auto cs = db_->Certification();
  ASSERT_TRUE(cs.ok());
  const uint64_t sealed = cs.value().sealed_offset;
  for (int i = 0; i < 20; ++i) PutRow(t, Numbered("tail", i), "v");
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();

  auto run_audit = [this]() {
    const std::string cmd = std::string(CDB_AUDIT_BINARY) + " " + dir_ +
                            " > /dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  };
  EXPECT_EQ(run_audit(), kAuditExitCompliant);
  std::string log = ReadFileBytes(LogPath());
  ASSERT_GT(log.size(), sealed);
  for (uint64_t hit : {PayloadByteIn(log, 0, sealed),
                       PayloadByteIn(log, sealed, log.size())}) {
    SCOPED_TRACE(hit < sealed ? "sealed prefix" : "unsealed tail");
    ASSERT_GT(hit, 0u);
    FlipByteAt(LogPath(), hit);
    EXPECT_EQ(run_audit(), kAuditExitTampered);
    FlipByteAt(LogPath(), hit);
    EXPECT_EQ(run_audit(), kAuditExitCompliant);
  }
}

}  // namespace
}  // namespace complydb

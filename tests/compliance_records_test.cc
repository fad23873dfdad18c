// Unit tests for the compliance-log substrate: record framing, the log
// and stamp index, snapshot signing, and the shared replayer.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "btree/tuple.h"
#include "common/clock.h"
#include "common/coding.h"
#include "compliance/compliance_log.h"
#include "compliance/page_replay.h"
#include "compliance/records.h"
#include "compliance/snapshot.h"
#include "test_dir.h"

namespace complydb {
namespace {

std::string MakeTupleRecord(const std::string& key, uint64_t start,
                            uint16_t order_no, bool stamped,
                            const std::string& value = "v",
                            bool eol = false) {
  TupleData t;
  t.key = key;
  t.value = value;
  t.start = start;
  t.order_no = order_no;
  t.stamped = stamped;
  t.eol = eol;
  return EncodeTuple(t);
}

TEST(CRecordTest, EncodeDecodeAllFields) {
  CRecord rec;
  rec.type = CRecordType::kPageSplit;
  rec.tree_id = 3;
  rec.pgno = 7;
  rec.new_pgno = 8;
  rec.third_pgno = 9;
  rec.txn_id = 42;
  rec.commit_time = 99;
  rec.timestamp = 123;
  rec.order_no = 5;
  rec.start = 77;
  rec.tuple = "tuple-bytes";
  rec.key = "key-bytes";
  rec.hash = std::string(32, 'h');
  rec.name = "hist_00000003_00000001";
  rec.entries_a = {"a1", "a2"};
  rec.entries_b = {"b1"};

  std::string framed = rec.Encode();
  CRecord back;
  size_t consumed = 0;
  ASSERT_TRUE(CRecord::Decode(framed, &back, &consumed).ok());
  EXPECT_EQ(consumed, framed.size());
  EXPECT_EQ(back.type, rec.type);
  EXPECT_EQ(back.tree_id, 3u);
  EXPECT_EQ(back.pgno, 7u);
  EXPECT_EQ(back.new_pgno, 8u);
  EXPECT_EQ(back.third_pgno, 9u);
  EXPECT_EQ(back.txn_id, 42u);
  EXPECT_EQ(back.commit_time, 99u);
  EXPECT_EQ(back.timestamp, 123u);
  EXPECT_EQ(back.order_no, 5);
  EXPECT_EQ(back.start, 77u);
  EXPECT_EQ(back.tuple, "tuple-bytes");
  EXPECT_EQ(back.key, "key-bytes");
  EXPECT_EQ(back.hash, std::string(32, 'h'));
  EXPECT_EQ(back.name, rec.name);
  EXPECT_EQ(back.entries_a, rec.entries_a);
  EXPECT_EQ(back.entries_b, rec.entries_b);
}

TEST(CRecordTest, DecodeRejectsFlippedByte) {
  CRecord rec;
  rec.type = CRecordType::kNewTuple;
  rec.tuple = "payload";
  std::string framed = rec.Encode();
  framed[framed.size() / 2] ^= 0x10;
  CRecord back;
  size_t consumed = 0;
  EXPECT_TRUE(CRecord::Decode(framed, &back, &consumed).IsCorruption());
}

TEST(CRecordTest, ScanMultipleRecords) {
  std::string blob;
  for (int i = 0; i < 5; ++i) {
    CRecord rec;
    rec.type = CRecordType::kHeartbeat;
    rec.timestamp = static_cast<uint64_t>(i);
    blob += rec.Encode();
  }
  int count = 0;
  ASSERT_TRUE(ScanCRecords(blob, [&](const CRecord& rec, uint64_t) {
                EXPECT_EQ(rec.timestamp, static_cast<uint64_t>(count));
                ++count;
                return Status::OK();
              }).ok());
  EXPECT_EQ(count, 5);
}

class ComplianceLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir_.Reset("clog_" + testutil::TestName());
    auto r = WormStore::Open(dir_, &clock_);
    ASSERT_TRUE(r.ok());
    worm_.reset(r.value());
  }

  SimulatedClock clock_;
  testutil::TestDir test_dir_;
  std::string dir_;
  std::unique_ptr<WormStore> worm_;
};

TEST_F(ComplianceLogTest, AppendScanRoundTrip) {
  ComplianceLog log(worm_.get(), 0);
  ASSERT_TRUE(log.Create().ok());
  for (int i = 0; i < 10; ++i) {
    CRecord rec;
    rec.type = CRecordType::kStampTrans;
    rec.txn_id = static_cast<TxnId>(100 + i);
    rec.commit_time = static_cast<uint64_t>(200 + i);
    ASSERT_TRUE(log.Append(rec).ok());
  }
  EXPECT_EQ(log.record_count(), 10u);
  int seen = 0;
  ASSERT_TRUE(log.Scan([&](const CRecord& rec, uint64_t) {
                EXPECT_EQ(rec.txn_id, static_cast<TxnId>(100 + seen));
                ++seen;
                return Status::OK();
              }).ok());
  EXPECT_EQ(seen, 10);

  // The stamp index mirrors the STAMP_TRANS records.
  int index_seen = 0;
  ASSERT_TRUE(log.ScanStampIndex([&](TxnId txn, uint64_t, uint64_t commit) {
                   EXPECT_EQ(txn, static_cast<TxnId>(100 + index_seen));
                   EXPECT_EQ(commit, static_cast<uint64_t>(200 + index_seen));
                   ++index_seen;
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(index_seen, 10);
}

TEST_F(ComplianceLogTest, OpenExistingResumesSize) {
  {
    ComplianceLog log(worm_.get(), 2);
    ASSERT_TRUE(log.Create().ok());
    CRecord rec;
    rec.type = CRecordType::kHeartbeat;
    ASSERT_TRUE(log.Append(rec).ok());
  }
  ComplianceLog log(worm_.get(), 2);
  ASSERT_TRUE(log.OpenExisting().ok());
  EXPECT_EQ(log.record_count(), 1u);
  EXPECT_GT(log.size(), 0u);
}

// One appender and several threads draining the tail concurrently with
// FlushThrough, under both of the logger's flush policies: sync flushes
// after every append, async only at occasional barriers of its own. The
// bytes on WORM must be the serial concatenation of the appends, and
// durable_offset() must never move backwards.
TEST_F(ComplianceLogTest, ConcurrentDrainersKeepAppendOrder) {
  for (bool sync : {true, false}) {
    SCOPED_TRACE(sync ? "sync" : "async");
    const uint64_t epoch = sync ? 0 : 1;
    ComplianceLog log(worm_.get(), epoch);
    ASSERT_TRUE(log.Create().ok());
    std::atomic<bool> done{false};
    std::atomic<int> failures{0};
    std::atomic<int> regressions{0};
    std::vector<std::thread> drainers;
    for (int d = 0; d < 3; ++d) {
      drainers.emplace_back([&] {
        uint64_t last = 0;
        while (!done.load()) {
          if (!log.FlushThrough(log.size()).ok()) ++failures;
          const uint64_t now = log.durable_offset();
          if (now < last) ++regressions;
          last = now;
        }
      });
    }
    std::string want_log;
    std::string want_index;
    for (int i = 0; i < 3000 && failures.load() == 0; ++i) {
      CRecord rec;
      if (i % 3 == 0) {
        rec.type = CRecordType::kStampTrans;
        rec.txn_id = static_cast<TxnId>(1000 + i);
        rec.commit_time = static_cast<uint64_t>(5000 + i);
        PutFixed64(&want_index, rec.txn_id);
        PutFixed64(&want_index, want_log.size());
        PutFixed64(&want_index, rec.commit_time);
      } else {
        rec.type = CRecordType::kHeartbeat;
        rec.timestamp = static_cast<uint64_t>(i);
      }
      want_log += rec.Encode();
      Status s = sync ? log.Append(rec) : log.AppendUnflushed(rec);
      if (s.ok() && !sync && i % 97 == 0) s = log.FlushThrough(log.size());
      if (!s.ok()) ++failures;
    }
    done = true;
    for (auto& t : drainers) t.join();
    ASSERT_EQ(failures.load(), 0);
    EXPECT_EQ(regressions.load(), 0);
    ASSERT_TRUE(log.Flush().ok());
    EXPECT_EQ(log.durable_offset(), want_log.size());
    std::string got_log;
    std::string got_index;
    ASSERT_TRUE(worm_->ReadAll(LogFileName(epoch), &got_log).ok());
    ASSERT_TRUE(worm_->ReadAll(StampIndexFileName(epoch), &got_index).ok());
    EXPECT_EQ(got_log, want_log);
    EXPECT_EQ(got_index, want_index);
  }
}

TEST_F(ComplianceLogTest, SummarizeDetectsConflicts) {
  ComplianceLog log(worm_.get(), 0);
  ASSERT_TRUE(log.Create().ok());
  CRecord stamp;
  stamp.type = CRecordType::kStampTrans;
  stamp.txn_id = 5;
  stamp.commit_time = 50;
  ASSERT_TRUE(log.Append(stamp).ok());
  // Identical duplicate: tolerated.
  ASSERT_TRUE(log.Append(stamp).ok());
  // Different commit time for the same txn: conflict.
  stamp.commit_time = 60;
  ASSERT_TRUE(log.Append(stamp).ok());
  // Abort of a stamped txn: conflict.
  CRecord abort_rec;
  abort_rec.type = CRecordType::kAbort;
  abort_rec.txn_id = 5;
  ASSERT_TRUE(log.Append(abort_rec).ok());

  LogSummary summary;
  ASSERT_TRUE(log.Scan([&](const CRecord& rec, uint64_t offset) {
                   SummarizeRecord(rec, offset, &summary);
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(summary.problems.size(), 2u);
  EXPECT_EQ(summary.stamps.at(5), 50u);  // first one wins
  EXPECT_EQ(summary.aborts.count(5), 1u);
}

// --- Snapshot ---

TEST_F(ComplianceLogTest, SnapshotSignRoundTrip) {
  Snapshot snap;
  snap.epoch = 3;
  snap.audit_time = 999;
  snap.trees.push_back({7, 12, "accounts"});
  Snapshot::PageEntry page;
  page.tree_id = 7;
  page.pgno = 12;
  page.records.push_back(MakeTupleRecord("k", 10, 0, true));
  snap.pages.push_back(page);
  snap.identity_hash.Add("x");
  snap.migrated_hash.Add("y");

  ASSERT_TRUE(snap.WriteSigned(worm_.get(), "secret-key").ok());
  auto back = Snapshot::ReadVerified(worm_.get(), 3, "secret-key");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().audit_time, 999u);
  ASSERT_EQ(back.value().trees.size(), 1u);
  EXPECT_EQ(back.value().trees[0].name, "accounts");
  ASSERT_EQ(back.value().pages.size(), 1u);
  EXPECT_EQ(back.value().pages[0].records.size(), 1u);
  EXPECT_EQ(back.value().identity_hash, snap.identity_hash);
  EXPECT_EQ(back.value().migrated_hash, snap.migrated_hash);
}

TEST_F(ComplianceLogTest, SnapshotRejectsWrongKey) {
  Snapshot snap;
  snap.epoch = 4;
  ASSERT_TRUE(snap.WriteSigned(worm_.get(), "right-key").ok());
  auto back = Snapshot::ReadVerified(worm_.get(), 4, "wrong-key");
  EXPECT_TRUE(back.status().IsTampered());
}

// --- PageReplayer ---

class ReplayerTest : public ::testing::Test {
 protected:
  PageReplayer MakeReplayer(bool verify = true) {
    PageReplayer::Options opts;
    opts.verify = verify;
    opts.verify_read_hashes = verify;
    return PageReplayer(opts, &summary_);
  }

  CRecord NewTuple(PageId pgno, const std::string& record) {
    CRecord rec;
    rec.type = CRecordType::kNewTuple;
    rec.tree_id = 1;
    rec.pgno = pgno;
    rec.tuple = record;
    return rec;
  }

  LogSummary summary_;
};

TEST_F(ReplayerTest, InsertStampUndoFlow) {
  summary_.stamps[100] = 150;
  summary_.aborts.insert(200);
  auto replayer = MakeReplayer();

  // Committed tuple, lazily stamped on-page.
  ASSERT_TRUE(
      replayer.Apply(NewTuple(5, MakeTupleRecord("a", 100, 0, false)), 0)
          .ok());
  CRecord stamp;
  stamp.type = CRecordType::kStampPage;
  stamp.tree_id = 1;
  stamp.pgno = 5;
  stamp.order_no = 0;
  stamp.txn_id = 100;
  stamp.commit_time = 150;
  ASSERT_TRUE(replayer.Apply(stamp, 1).ok());

  // Aborted tuple: insert then justified UNDO.
  std::string aborted = MakeTupleRecord("b", 200, 1, false);
  ASSERT_TRUE(replayer.Apply(NewTuple(5, aborted), 2).ok());
  CRecord undo;
  undo.type = CRecordType::kUndo;
  undo.tree_id = 1;
  undo.pgno = 5;
  undo.tuple = aborted;
  ASSERT_TRUE(replayer.Apply(undo, 3).ok());
  ASSERT_TRUE(replayer.Finalize().ok());

  EXPECT_TRUE(replayer.problems().empty())
      << replayer.problems().front();
  const auto& state = replayer.pages().at({1, 5});
  ASSERT_EQ(state.size(), 1u);
  TupleData t;
  ASSERT_TRUE(DecodeTuple(state.at(0), &t).ok());
  EXPECT_TRUE(t.stamped);
  EXPECT_EQ(t.start, 150u);
}

TEST_F(ReplayerTest, UnjustifiedUndoOfStampedTupleFlagged) {
  summary_.stamps[100] = 150;
  auto replayer = MakeReplayer();
  std::string record = MakeTupleRecord("a", 150, 0, true);
  ASSERT_TRUE(replayer.Apply(NewTuple(5, record), 0).ok());
  CRecord undo;
  undo.type = CRecordType::kUndo;
  undo.tree_id = 1;
  undo.pgno = 5;
  undo.tuple = record;
  ASSERT_TRUE(replayer.Apply(undo, 1).ok());
  ASSERT_TRUE(replayer.Finalize().ok());
  EXPECT_FALSE(replayer.problems().empty());
}

TEST_F(ReplayerTest, MoveJustifiedUndoIsClean) {
  // UNDO on one page + identical-identity NEW_TUPLE on another = a move
  // (crash reconciliation); the tuple survives, so no problem.
  summary_.stamps[100] = 150;
  auto replayer = MakeReplayer();
  std::string record = MakeTupleRecord("a", 150, 0, true);
  ASSERT_TRUE(replayer.Apply(NewTuple(5, record), 0).ok());
  ASSERT_TRUE(replayer.Apply(NewTuple(9, record), 1).ok());
  CRecord undo;
  undo.type = CRecordType::kUndo;
  undo.tree_id = 1;
  undo.pgno = 5;
  undo.tuple = record;
  ASSERT_TRUE(replayer.Apply(undo, 2).ok());
  ASSERT_TRUE(replayer.Finalize().ok());
  EXPECT_TRUE(replayer.problems().empty())
      << replayer.problems().front();
}

TEST_F(ReplayerTest, SplitUnionMismatchFlagged) {
  auto replayer = MakeReplayer();
  std::string r0 = MakeTupleRecord("a", 10, 0, true);
  std::string r1 = MakeTupleRecord("b", 11, 1, true);
  ASSERT_TRUE(replayer.Apply(NewTuple(5, r0), 0).ok());
  ASSERT_TRUE(replayer.Apply(NewTuple(5, r1), 1).ok());

  CRecord split;
  split.type = CRecordType::kPageSplit;
  split.tree_id = 1;
  split.pgno = 5;
  split.new_pgno = 6;
  split.entries_a = {r0};
  split.entries_b = {};  // r1 vanished in the "split": union mismatch
  ASSERT_TRUE(replayer.Apply(split, 2).ok());
  EXPECT_FALSE(replayer.problems().empty());
}

TEST_F(ReplayerTest, ReadHashVerification) {
  auto replayer = MakeReplayer();
  std::string r0 = MakeTupleRecord("a", 10, 0, true);
  ASSERT_TRUE(replayer.Apply(NewTuple(5, r0), 0).ok());

  PageReplayer::PageState state{{0, r0}};
  Sha256Digest good = PageReplayer::HashPageState(state);
  CRecord read;
  read.type = CRecordType::kReadHash;
  read.tree_id = 1;
  read.pgno = 5;
  read.hash.assign(reinterpret_cast<const char*>(good.data()), good.size());
  ASSERT_TRUE(replayer.Apply(read, 1).ok());
  EXPECT_TRUE(replayer.problems().empty());
  EXPECT_EQ(replayer.read_hashes_checked(), 1u);

  read.hash[0] ^= 0x1;
  ASSERT_TRUE(replayer.Apply(read, 2).ok());
  EXPECT_FALSE(replayer.problems().empty());
}

TEST_F(ReplayerTest, DuplicateNewTupleIdenticalTolerated) {
  auto replayer = MakeReplayer();
  std::string r0 = MakeTupleRecord("a", 10, 0, true);
  ASSERT_TRUE(replayer.Apply(NewTuple(5, r0), 0).ok());
  ASSERT_TRUE(replayer.Apply(NewTuple(5, r0), 1).ok());  // recovery dup
  EXPECT_TRUE(replayer.problems().empty());
  EXPECT_EQ(replayer.pages().at({1, 5}).size(), 1u);

  // Conflicting bytes at the same slot: flagged.
  std::string other = MakeTupleRecord("z", 99, 0, true);
  ASSERT_TRUE(replayer.Apply(NewTuple(5, other), 2).ok());
  EXPECT_FALSE(replayer.problems().empty());
}

TEST_F(ReplayerTest, IdentityDeltaTracksNetChange) {
  summary_.stamps[100] = 150;
  auto replayer = MakeReplayer();
  std::string keep = MakeTupleRecord("keep", 150, 0, true);
  std::string gone = MakeTupleRecord("gone", 150, 1, true);
  ASSERT_TRUE(replayer.Apply(NewTuple(5, keep), 0).ok());
  ASSERT_TRUE(replayer.Apply(NewTuple(5, gone), 1).ok());
  CRecord undo;
  undo.type = CRecordType::kUndo;
  undo.tree_id = 1;
  undo.pgno = 5;
  undo.tuple = gone;
  ASSERT_TRUE(replayer.Apply(undo, 2).ok());

  AddHash expect;
  auto id = TupleIdentity(1, keep, summary_.stamps);
  ASSERT_TRUE(id.ok());
  expect.Add(id.value());
  EXPECT_EQ(replayer.identity_delta(), expect);
}

}  // namespace
}  // namespace complydb

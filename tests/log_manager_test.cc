#include "wal/log_manager.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "numbered.h"
#include "test_dir.h"

namespace complydb {
namespace {

using testutil::Numbered;

class LogManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = test_dir_.Reset("wal_" + testutil::TestName()) + "/log";
    auto r = LogManager::Open(base_ + ".wal");
    ASSERT_TRUE(r.ok());
    log_.reset(r.value());
  }

  WalRecord MakeInsert(TxnId txn, PageId pgno, const std::string& tuple) {
    WalRecord rec;
    rec.type = WalRecordType::kTupleInsert;
    rec.txn_id = txn;
    rec.pgno = pgno;
    rec.tree_id = 1;
    rec.tuple = tuple;
    return rec;
  }

  std::vector<WalRecord> ScanAll() {
    std::vector<WalRecord> out;
    EXPECT_TRUE(log_->Scan([&](const WalRecord& r) {
                      out.push_back(r);
                      return Status::OK();
                    })
                    .ok());
    return out;
  }

  testutil::TestDir test_dir_;
  std::string base_;
  std::unique_ptr<LogManager> log_;
};

TEST_F(LogManagerTest, RecordEncodeDecodeRoundTrip) {
  WalRecord rec = MakeInsert(42, 7, "tuple-bytes");
  rec.prev_lsn = 123;
  rec.commit_time = 999;
  rec.order_no = 5;
  rec.undo_next = 77;
  rec.page_image = std::string(100, 'p');
  std::string framed = rec.Encode();

  WalRecord back;
  size_t consumed = 0;
  ASSERT_TRUE(WalRecord::Decode(framed, &back, &consumed).ok());
  EXPECT_EQ(consumed, framed.size());
  EXPECT_EQ(back.type, rec.type);
  EXPECT_EQ(back.txn_id, 42u);
  EXPECT_EQ(back.pgno, 7u);
  EXPECT_EQ(back.prev_lsn, 123u);
  EXPECT_EQ(back.commit_time, 999u);
  EXPECT_EQ(back.order_no, 5);
  EXPECT_EQ(back.undo_next, 77u);
  EXPECT_EQ(back.tuple, "tuple-bytes");
  EXPECT_EQ(back.page_image, rec.page_image);
}

TEST_F(LogManagerTest, DecodeRejectsCorruptCrc) {
  WalRecord rec = MakeInsert(1, 1, "x");
  std::string framed = rec.Encode();
  framed[10] ^= 0x1;
  WalRecord back;
  size_t consumed = 0;
  EXPECT_TRUE(WalRecord::Decode(framed, &back, &consumed).IsCorruption());
}

TEST_F(LogManagerTest, AppendAssignsMonotonicLsns) {
  WalRecord a = MakeInsert(1, 1, "a");
  WalRecord b = MakeInsert(1, 2, "b");
  Lsn la = log_->Append(&a);
  Lsn lb = log_->Append(&b);
  EXPECT_EQ(la, 0u);
  EXPECT_GT(lb, la);
  ASSERT_TRUE(log_->FlushAll().ok());
  EXPECT_EQ(log_->durable_lsn(), log_->next_lsn());
}

TEST_F(LogManagerTest, ScanReturnsDurableRecordsInOrder) {
  for (int i = 0; i < 10; ++i) {
    WalRecord rec = MakeInsert(static_cast<TxnId>(i), static_cast<PageId>(i),
                               Numbered("t", i));
    log_->Append(&rec);
  }
  ASSERT_TRUE(log_->FlushAll().ok());
  auto records = ScanAll();
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(records[i].txn_id, static_cast<TxnId>(i));
    EXPECT_EQ(records[i].tuple, Numbered("t", i));
  }
}

TEST_F(LogManagerTest, UnflushedRecordsInvisibleToScan) {
  WalRecord a = MakeInsert(1, 1, "a");
  log_->Append(&a);
  ASSERT_TRUE(log_->FlushAll().ok());
  WalRecord b = MakeInsert(2, 2, "b");
  log_->Append(&b);
  // b not flushed: scan sees only a.
  auto records = ScanAll();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].txn_id, 1u);
}

TEST_F(LogManagerTest, DropPendingSimulatesCrash) {
  WalRecord a = MakeInsert(1, 1, "a");
  log_->Append(&a);
  ASSERT_TRUE(log_->FlushAll().ok());
  WalRecord b = MakeInsert(2, 2, "b");
  log_->Append(&b);
  log_->DropPending();
  ASSERT_TRUE(log_->FlushAll().ok());
  EXPECT_EQ(ScanAll().size(), 1u);
}

TEST_F(LogManagerTest, ReopenContinuesLsns) {
  WalRecord a = MakeInsert(1, 1, "a");
  log_->Append(&a);
  ASSERT_TRUE(log_->FlushAll().ok());
  Lsn end = log_->durable_lsn();
  log_.reset();
  auto r = LogManager::Open(base_ + ".wal");
  ASSERT_TRUE(r.ok());
  log_.reset(r.value());
  EXPECT_EQ(log_->next_lsn(), end);
  EXPECT_EQ(ScanAll().size(), 1u);
}

TEST_F(LogManagerTest, TailMirrorsFlushedBytes) {
  SimulatedClock clock;
  auto ws = WormStore::Open(base_ + ".worm", &clock);
  ASSERT_TRUE(ws.ok());
  std::unique_ptr<WormStore> worm(ws.value());

  ASSERT_TRUE(log_->StartTail(worm.get(), "txtail_0", 0).ok());
  WalRecord a = MakeInsert(1, 1, "tail-me");
  log_->Append(&a);
  ASSERT_TRUE(log_->FlushAll().ok());

  std::string tail;
  ASSERT_TRUE(worm->ReadAll("txtail_0", &tail).ok());
  // 8-byte starting-LSN header, then the framed record.
  ASSERT_GT(tail.size(), 8u);
  WalRecord back;
  size_t consumed = 0;
  ASSERT_TRUE(
      WalRecord::Decode(Slice(tail.data() + 8, tail.size() - 8), &back,
                        &consumed)
          .ok());
  EXPECT_EQ(back.tuple, "tail-me");

  // Rotation: new tail gets only newer bytes.
  ASSERT_TRUE(log_->StartTail(worm.get(), "txtail_1", 0).ok());
  WalRecord b = MakeInsert(2, 2, "second");
  log_->Append(&b);
  ASSERT_TRUE(log_->FlushAll().ok());
  std::string tail1;
  ASSERT_TRUE(worm->ReadAll("txtail_1", &tail1).ok());
  WalRecord back1;
  ASSERT_TRUE(
      WalRecord::Decode(Slice(tail1.data() + 8, tail1.size() - 8), &back1,
                        &consumed)
          .ok());
  EXPECT_EQ(back1.tuple, "second");
}

TEST_F(LogManagerTest, TornTailStopsScanCleanly) {
  WalRecord a = MakeInsert(1, 1, "whole");
  log_->Append(&a);
  ASSERT_TRUE(log_->FlushAll().ok());
  // Simulate a torn write: append garbage that looks like a huge frame.
  {
    std::FILE* f = std::fopen((base_ + ".wal").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char partial[] = {
        '\xff', '\xff', '\x00', '\x00',  // len = 65535, but no bytes follow
        '\x01', '\x02'};
    std::fwrite(partial, 1, sizeof(partial), f);
    std::fclose(f);
  }
  log_.reset();
  auto r = LogManager::Open(base_ + ".wal");
  ASSERT_TRUE(r.ok());
  log_.reset(r.value());
  auto records = ScanAll();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].tuple, "whole");
}

}  // namespace
}  // namespace complydb

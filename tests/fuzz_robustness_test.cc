// Robustness: every decoder that parses attacker-reachable bytes (pages
// and the transaction log live on ordinary media; Mala can feed them
// anything) must reject garbage with a Status, never crash or accept.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "btree/tuple.h"
#include "common/clock.h"
#include "common/random.h"
#include "compliance/compliance_log.h"
#include "compliance/records.h"
#include "compliance/snapshot.h"
#include "storage/page.h"
#include "test_dir.h"
#include "wal/log_record.h"
#include "worm/worm_store.h"

namespace complydb {
namespace {

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, WalRecordDecodeNeverCrashes) {
  Random rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    size_t len = rng.Uniform(300);
    std::string garbage(len, '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.Next());
    WalRecord rec;
    size_t consumed = 0;
    Status s = WalRecord::Decode(garbage, &rec, &consumed);
    // Either corrupt or (astronomically unlikely) valid — never UB.
    if (s.ok()) {
      EXPECT_LE(consumed, garbage.size());
    }
  }
}

TEST_P(FuzzTest, CRecordDecodeNeverCrashes) {
  Random rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    size_t len = rng.Uniform(300);
    std::string garbage(len, '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.Next());
    CRecord rec;
    size_t consumed = 0;
    Status s = CRecord::Decode(garbage, &rec, &consumed);
    if (s.ok()) {
      EXPECT_LE(consumed, garbage.size());
    }
  }
}

TEST_P(FuzzTest, TruncatedValidRecordsRejected) {
  Random rng(GetParam());
  // Start from a VALID record and truncate/corrupt it at every length.
  WalRecord wal;
  wal.type = WalRecordType::kTupleInsert;
  wal.txn_id = 42;
  wal.tuple = rng.Bytes(40);
  wal.page_image = rng.Bytes(100);
  std::string valid = wal.Encode();
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    WalRecord out;
    size_t consumed = 0;
    Status s = WalRecord::Decode(Slice(valid.data(), cut), &out, &consumed);
    EXPECT_FALSE(s.ok()) << "truncated to " << cut;
  }
  // Single-byte corruption anywhere must be caught by the CRC.
  for (int i = 0; i < 64; ++i) {
    std::string mutated = valid;
    mutated[rng.Uniform(mutated.size())] ^=
        static_cast<char>(1 + rng.Uniform(255));
    WalRecord out;
    size_t consumed = 0;
    Status s = WalRecord::Decode(mutated, &out, &consumed);
    if (mutated != valid) {
      EXPECT_FALSE(s.ok());
    }
  }
}

TEST_P(FuzzTest, TupleDecodeNeverCrashes) {
  Random rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    size_t len = rng.Uniform(80);
    std::string garbage(len, '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.Next());
    TupleData t;
    (void)DecodeTuple(garbage, &t);
    IndexEntry e;
    (void)DecodeIndexEntry(garbage, &e);
    Slice k;
    uint64_t st;
    PageId child;
    (void)DecodeTupleKey(garbage, &k, &st);
    (void)DecodeIndexEntryKey(garbage, &k, &st, &child);
  }
}

TEST_P(FuzzTest, PageCheckStructureOnRandomBytes) {
  Random rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Page page;
    for (size_t b = 0; b < kPageSize; ++b) {
      page.data()[b] = static_cast<char>(rng.Next());
    }
    // Must terminate and not crash; almost always Corruption.
    (void)page.CheckStructure();
  }
  // A formatted page with fuzzed header fields.
  for (int i = 0; i < 500; ++i) {
    Page page;
    page.Format(1, PageType::kBtreeLeaf, 1, 0);
    TupleData t;
    t.key = "k";
    t.value = rng.Bytes(20);
    t.order_no = page.TakeOrderNumber();
    ASSERT_TRUE(page.AppendRecord(EncodeTuple(t)).ok());
    // Corrupt a random header/slot byte.
    page.data()[rng.Uniform(64)] ^= static_cast<char>(1 + rng.Uniform(255));
    (void)page.CheckStructure();
  }
}

TEST_P(FuzzTest, SnapshotRejectsCorruptBytes) {
  SimulatedClock clock;
  testutil::TestDir test_dir("fuzz_snap_" + std::to_string(GetParam()));
  auto w = WormStore::Open(test_dir.path(), &clock);
  ASSERT_TRUE(w.ok());
  std::unique_ptr<WormStore> worm(w.value());

  Snapshot snap;
  snap.epoch = 1;
  snap.trees.push_back({1, 1, "t"});
  ASSERT_TRUE(snap.WriteSigned(worm.get(), "key").ok());

  std::string blob;
  ASSERT_TRUE(worm->ReadAll(SnapshotFileName(1), &blob).ok());
  Random rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    std::string mutated = blob;
    mutated[rng.Uniform(mutated.size())] ^=
        static_cast<char>(1 + rng.Uniform(255));
    if (mutated == blob) continue;
    // Write under a different epoch name and try to verify.
    std::string name = SnapshotFileName(100 + i);
    if (worm->Exists(name)) continue;
    ASSERT_TRUE(worm->CreateWithContent(name, 0, mutated).ok());
    Snapshot out;
    auto r = Snapshot::ReadVerified(worm.get(), 100 + i, "key");
    EXPECT_FALSE(r.ok()) << "mutation " << i << " accepted";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(0xF1, 0xF2, 0xF3, 0xF4));

}  // namespace
}  // namespace complydb

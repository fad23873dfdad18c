// The closing property of the architecture: flip ANY byte inside the
// live record area of ANY leaf or internal page, and the next audit
// fails. (Free-space bytes are semantically dead and legitimately
// unprotected; record bytes are the data the regulations protect.)

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "common/random.h"
#include "db/compliant_db.h"
#include "test_dir.h"

namespace complydb {
namespace {

constexpr uint64_t kMinute = 60ull * 1'000'000;

class CorruptionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorruptionPropertyTest, AnyRecordByteFlipIsDetected) {
  testutil::TestDir test_dir("corrupt_" + std::to_string(GetParam()));
  const std::string& dir = test_dir.path();
  SimulatedClock clock;
  DbOptions opts;
  opts.dir = dir;
  opts.cache_pages = 64;
  opts.clock = &clock;
  opts.compliance.enabled = true;
  opts.compliance.regret_interval_micros = 5 * kMinute;

  // Build a database with data + an audit epoch behind it.
  {
    auto r = CompliantDB::Open(opts);
    ASSERT_TRUE(r.ok());
    std::unique_ptr<CompliantDB> db(r.value());
    auto t = db->CreateTable("t");
    ASSERT_TRUE(t.ok());
    Random seeder(GetParam());
    for (int i = 0; i < 500; ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(db->Put(txn.value(), t.value(),
                          "key" + std::to_string(seeder.Uniform(100000)),
                          seeder.Bytes(1 + seeder.Uniform(60)))
                      .ok());
      Status s = db->Commit(txn.value());
      if (s.IsInvalidArgument()) {  // duplicate (key, start) — impossible
        FAIL() << s.ToString();
      }
      ASSERT_TRUE(s.ok());
    }
    auto report = db->Audit();
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report.value().ok());
    ASSERT_TRUE(db->Close().ok());
  }

  // Pick random *record* bytes across random formatted pages and flip
  // them, one at a time; every flip must fail the audit.
  Random rng(GetParam() * 31337);
  const int kTrials = 6;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto d0 = DiskManager::Open(dir + "/data.db");
    ASSERT_TRUE(d0.ok());
    std::unique_ptr<DiskManager> disk(d0.value());

    // Choose a page with records.
    PageId victim = kInvalidPage;
    Page page;
    for (int attempts = 0; attempts < 200; ++attempts) {
      PageId pgno = 1 + static_cast<PageId>(
                            rng.Uniform(disk->PageCount() - 1));
      ASSERT_TRUE(disk->ReadPage(pgno, &page).ok());
      if (page.IsFormatted() &&
          (page.type() == PageType::kBtreeLeaf ||
           page.type() == PageType::kBtreeInternal) &&
          page.slot_count() > 0) {
        victim = pgno;
        break;
      }
    }
    ASSERT_NE(victim, kInvalidPage);

    // Choose a byte inside a random record.
    uint16_t slot = static_cast<uint16_t>(rng.Uniform(page.slot_count()));
    Slice record = page.RecordAt(slot);
    size_t record_off =
        static_cast<size_t>(record.data() - page.data());
    // Skip the 2-byte length prefix: corrupting it may change framing in
    // ways CheckStructure flags — also detection, but target the
    // interesting bytes (flags/start/key/value/pointers).
    size_t byte = record_off + 2 + rng.Uniform(record.size() - 2);
    char original = page.data()[byte];
    char flipped = static_cast<char>(original ^ (1 + rng.Uniform(255)));
    page.data()[byte] = flipped;
    ASSERT_TRUE(disk->WritePage(victim, page).ok());
    disk.reset();

    // The audit must detect the flip.
    {
      auto r = CompliantDB::Open(opts);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      std::unique_ptr<CompliantDB> db(r.value());
      auto report = db->Audit();
      ASSERT_TRUE(report.ok());
      EXPECT_FALSE(report.value().ok())
          << "trial " << trial << ": flip of record byte " << byte
          << " on page " << victim << " went undetected";
      db.reset();  // skip Close: leave state as-is for restoration
    }

    // Restore the byte so the next trial starts clean.
    auto d1 = DiskManager::Open(dir + "/data.db");
    ASSERT_TRUE(d1.ok());
    std::unique_ptr<DiskManager> disk1(d1.value());
    ASSERT_TRUE(disk1->ReadPage(victim, &page).ok());
    page.data()[byte] = original;
    ASSERT_TRUE(disk1->WritePage(victim, page).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace complydb

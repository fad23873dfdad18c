// Secondary indexes: maintained transactionally inside the base write,
// versioned like any relation, and therefore audited like one.

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

// Rows are "last_name|rest"; the index extracts the part before '|'.
Result<std::string> LastNameExtractor(Slice value) {
  std::string v = value.ToString();
  size_t pos = v.find('|');
  if (pos == std::string::npos) {
    return Status::InvalidArgument("row has no last-name field");
  }
  return v.substr(0, pos);
}

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir_.Reset("idx_" + testutil::TestName());
    Open();
    auto t = db_->CreateTable("customers");
    ASSERT_TRUE(t.ok());
    table_ = t.value();
    auto idx = db_->CreateIndex(table_, "by_last_name", LastNameExtractor);
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    index_ = idx.value();
  }

  DbOptions MakeOptions() {
    DbOptions opts;
    opts.dir = dir_;
    opts.cache_pages = 64;
    opts.clock = &clock_;
    opts.compliance.enabled = true;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    return opts;
  }

  void Open() {
    auto r = CompliantDB::Open(MakeOptions());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    db_.reset(r.value());
  }

  void PutCommitted(const std::string& key, const std::string& value) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    Status s = db_->Put(txn.value(), table_, key, value);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_TRUE(db_->Commit(txn.value()).ok());
  }

  std::vector<std::string> Lookup(const std::string& last_name) {
    std::vector<std::string> out;
    Status s = db_->ScanIndex(index_, last_name, [&](Slice primary) {
      out.push_back(primary.ToString());
      return Status::OK();
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  SimulatedClock clock_;
  testutil::TestDir test_dir_;
  std::string dir_;
  uint32_t table_ = 0;
  uint32_t index_ = 0;
  std::unique_ptr<CompliantDB> db_;
};

TEST_F(IndexTest, LookupByderivedKey) {
  PutCommitted("c1", "SMITH|data1");
  PutCommitted("c2", "JONES|data2");
  PutCommitted("c3", "SMITH|data3");

  auto smiths = Lookup("SMITH");
  ASSERT_EQ(smiths.size(), 2u);
  EXPECT_EQ(smiths[0], "c1");
  EXPECT_EQ(smiths[1], "c3");
  EXPECT_EQ(Lookup("JONES").size(), 1u);
  EXPECT_TRUE(Lookup("DOE").empty());
}

TEST_F(IndexTest, UpdateMovesIndexEntry) {
  PutCommitted("c1", "SMITH|original");
  PutCommitted("c1", "TAYLOR|married");
  EXPECT_TRUE(Lookup("SMITH").empty());
  ASSERT_EQ(Lookup("TAYLOR").size(), 1u);
  EXPECT_EQ(Lookup("TAYLOR")[0], "c1");
}

TEST_F(IndexTest, UpdateWithSameSecondaryKeepsEntry) {
  PutCommitted("c1", "SMITH|v1");
  PutCommitted("c1", "SMITH|v2");
  ASSERT_EQ(Lookup("SMITH").size(), 1u);
  std::string value;
  ASSERT_TRUE(db_->Get(table_, "c1", &value).ok());
  EXPECT_EQ(value, "SMITH|v2");
}

TEST_F(IndexTest, DeleteRetiresIndexEntry) {
  PutCommitted("c1", "SMITH|x");
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->Delete(txn.value(), table_, "c1").ok());
  ASSERT_TRUE(db_->Commit(txn.value()).ok());
  EXPECT_TRUE(Lookup("SMITH").empty());
}

TEST_F(IndexTest, AbortRollsBackIndexToo) {
  PutCommitted("c1", "SMITH|x");
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->Put(txn.value(), table_, "c1", "TAYLOR|y").ok());
  ASSERT_TRUE(db_->Abort(txn.value()).ok());
  ASSERT_EQ(Lookup("SMITH").size(), 1u);
  EXPECT_TRUE(Lookup("TAYLOR").empty());
}

TEST_F(IndexTest, RejectsNulInDerivedKey) {
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  std::string bad = std::string("SM\0TH", 5) + "|x";
  EXPECT_TRUE(db_->Put(txn.value(), table_, "c1", bad).IsInvalidArgument());
  ASSERT_TRUE(db_->Abort(txn.value()).ok());
}

TEST_F(IndexTest, IndexedWritesPassAudit) {
  for (int i = 0; i < 40; ++i) {
    PutCommitted(Numbered("c", i),
                 Numbered(i % 3 == 0 ? "SMITH|" : "JONES|", i));
  }
  for (int i = 0; i < 40; i += 5) {
    PutCommitted(Numbered("c", i), Numbered("TAYLOR|upd", i));
  }
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
}

TEST_F(IndexTest, AttachAfterReopen) {
  PutCommitted("c1", "SMITH|x");
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();
  Open();
  auto attached = db_->AttachIndex(table_, "by_last_name", LastNameExtractor);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  index_ = attached.value();
  ASSERT_EQ(Lookup("SMITH").size(), 1u);
  // Maintenance continues after re-attach.
  PutCommitted("c1", "TAYLOR|y");
  EXPECT_TRUE(Lookup("SMITH").empty());
  EXPECT_EQ(Lookup("TAYLOR").size(), 1u);
}

TEST_F(IndexTest, TamperedIndexEntryFailsAudit) {
  // The index tree gets the same §IV-C protection as data trees: edit an
  // index entry on disk and the audit flags it.
  for (int i = 0; i < 30; ++i) {
    PutCommitted(Numbered("c", i), Numbered("SMITH|", i));
  }
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();

  // Flip a byte inside the index tree's leaf records.
  {
    auto disk = DiskManager::Open(dir_ + "/data.db");
    ASSERT_TRUE(disk.ok());
    std::unique_ptr<DiskManager> d(disk.value());
    bool tampered = false;
    for (PageId pgno = 1; pgno < d->PageCount() && !tampered; ++pgno) {
      Page page;
      ASSERT_TRUE(d->ReadPage(pgno, &page).ok());
      if (!page.IsFormatted() || page.type() != PageType::kBtreeLeaf ||
          page.tree_id() != index_ || page.slot_count() == 0) {
        continue;
      }
      page.data()[kPageSize - 10] ^= 0x1;
      ASSERT_TRUE(d->WritePage(pgno, page).ok());
      tampered = true;
    }
    ASSERT_TRUE(tampered);
  }
  Open();
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().ok());
}

}  // namespace
}  // namespace complydb

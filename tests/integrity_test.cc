// Dedicated tests for the §IV-C tree integrity checker: every corruption
// class a file editor can produce must surface as a finding.

#include "btree/integrity.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "btree/btree.h"
#include "common/coding.h"
#include "storage/disk_manager.h"
#include "test_dir.h"

namespace complydb {
namespace {

class IntegrityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d = DiskManager::Open(
        test_dir_.Reset("integ_" + testutil::TestName()) + "/tree.db");
    ASSERT_TRUE(d.ok());
    disk_.reset(d.value());
    cache_ = std::make_unique<BufferCache>(disk_.get(), 64);
    auto root = Btree::Create(cache_.get(), kTreeId);
    ASSERT_TRUE(root.ok());
    BtreeEnv env;
    env.cache = cache_.get();
    tree_ = std::make_unique<Btree>(env, kTreeId, root.value());
  }

  // Populates enough keys for a multi-level tree.
  void Fill(int n) {
    for (int i = 0; i < n; ++i) {
      TupleData t;
      char key[16];
      std::snprintf(key, sizeof(key), "key%06d", i);
      t.key = key;
      t.value = std::string(40, 'v');
      t.start = static_cast<uint64_t>(i + 1);
      t.stamped = true;
      ASSERT_TRUE(tree_->InsertVersion(nullptr, t, nullptr, nullptr).ok());
    }
  }

  size_t ProblemCount() {
    auto r = CheckTreeIntegrity(cache_.get(), kTreeId, tree_->root());
    EXPECT_TRUE(r.ok());
    return r.ok() ? r.value().problems.size() : 0;
  }

  // Finds the first page of the given type belonging to the tree.
  PageId FindPage(PageType type, uint16_t min_slots = 1) {
    for (PageId pgno = 0; pgno < disk_->PageCount(); ++pgno) {
      Page* page = nullptr;
      if (!cache_->FetchPage(pgno, &page).ok()) continue;
      bool match = page->IsFormatted() && page->type() == type &&
                   page->tree_id() == kTreeId &&
                   page->slot_count() >= min_slots;
      cache_->Unpin(pgno, false);
      if (match) return pgno;
    }
    return kInvalidPage;
  }

  static constexpr uint32_t kTreeId = 9;
  testutil::TestDir test_dir_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferCache> cache_;
  std::unique_ptr<Btree> tree_;
};

TEST_F(IntegrityTest, CleanTreeHasNoProblems) {
  Fill(1200);
  EXPECT_EQ(ProblemCount(), 0u);
  auto r = CheckTreeIntegrity(cache_.get(), kTreeId, tree_->root());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().tuple_count, 1200u);
  EXPECT_GT(r.value().leaf_pages, 10u);
  EXPECT_GE(r.value().internal_pages, 1u);
}

TEST_F(IntegrityTest, WrongLevelFlagged) {
  Fill(1200);
  PageId leaf = FindPage(PageType::kBtreeLeaf);
  ASSERT_NE(leaf, kInvalidPage);
  Page* page = nullptr;
  ASSERT_TRUE(cache_->FetchPage(leaf, &page).ok());
  page->set_level(3);
  cache_->Unpin(leaf, true);
  EXPECT_GT(ProblemCount(), 0u);
}

TEST_F(IntegrityTest, WrongTreeIdFlagged) {
  Fill(1200);
  PageId leaf = FindPage(PageType::kBtreeLeaf);
  ASSERT_NE(leaf, kInvalidPage);
  Page* page = nullptr;
  ASSERT_TRUE(cache_->FetchPage(leaf, &page).ok());
  page->set_tree_id(kTreeId + 1);
  cache_->Unpin(leaf, true);
  EXPECT_GT(ProblemCount(), 0u);
}

TEST_F(IntegrityTest, OrderNumberBeyondCounterFlagged) {
  Fill(50);
  PageId leaf = FindPage(PageType::kBtreeLeaf);
  ASSERT_NE(leaf, kInvalidPage);
  Page* page = nullptr;
  ASSERT_TRUE(cache_->FetchPage(leaf, &page).ok());
  page->set_next_order_number(0);  // all stored order numbers now exceed it
  cache_->Unpin(leaf, true);
  EXPECT_GT(ProblemCount(), 0u);
}

TEST_F(IntegrityTest, DuplicateVersionOrderFlagged) {
  Fill(50);
  // Duplicate an existing record (same key, same start) by inserting a
  // copy right next to it — equal (key, start) breaks strict ordering.
  PageId leaf = FindPage(PageType::kBtreeLeaf, 2);
  ASSERT_NE(leaf, kInvalidPage);
  Page* page = nullptr;
  ASSERT_TRUE(cache_->FetchPage(leaf, &page).ok());
  std::string rec(page->RecordAt(0).data(), page->RecordAt(0).size());
  ASSERT_TRUE(page->InsertRecord(1, rec).ok());
  cache_->Unpin(leaf, true);
  EXPECT_GT(ProblemCount(), 0u);
}

TEST_F(IntegrityTest, EmptyInternalNodeFlagged) {
  Fill(1200);
  PageId internal = FindPage(PageType::kBtreeInternal, 2);
  ASSERT_NE(internal, kInvalidPage);
  Page* page = nullptr;
  ASSERT_TRUE(cache_->FetchPage(internal, &page).ok());
  while (page->slot_count() > 0) {
    ASSERT_TRUE(page->EraseRecord(0).ok());
  }
  cache_->Unpin(internal, true);
  EXPECT_GT(ProblemCount(), 0u);
}

TEST_F(IntegrityTest, SeparatorOrderFlagged) {
  Fill(1200);
  // Swap two separators on an internal node: separator ordering breaks.
  PageId internal = FindPage(PageType::kBtreeInternal, 3);
  ASSERT_NE(internal, kInvalidPage);
  Page* page = nullptr;
  ASSERT_TRUE(cache_->FetchPage(internal, &page).ok());
  std::string e1(page->RecordAt(1).data(), page->RecordAt(1).size());
  std::string e2(page->RecordAt(2).data(), page->RecordAt(2).size());
  ASSERT_TRUE(page->EraseRecord(1).ok());
  ASSERT_TRUE(page->InsertRecord(1, e2).ok());
  ASSERT_TRUE(page->EraseRecord(2).ok());
  ASSERT_TRUE(page->InsertRecord(2, e1).ok());
  cache_->Unpin(internal, true);
  EXPECT_GT(ProblemCount(), 0u);
}

TEST_F(IntegrityTest, CollectsMultipleProblems) {
  Fill(1200);
  // Two independent corruptions: both must be reported (the audit
  // enumerates tampered sites rather than stopping at the first).
  PageId leaf = FindPage(PageType::kBtreeLeaf);
  Page* page = nullptr;
  ASSERT_TRUE(cache_->FetchPage(leaf, &page).ok());
  page->set_tree_id(kTreeId + 1);
  cache_->Unpin(leaf, true);

  PageId internal = FindPage(PageType::kBtreeInternal, 2);
  ASSERT_TRUE(cache_->FetchPage(internal, &page).ok());
  IndexEntry e;
  ASSERT_TRUE(DecodeIndexEntry(page->RecordAt(1), &e).ok());
  e.key.back() = static_cast<char>(e.key.back() + 1);
  ASSERT_TRUE(page->ReplaceRecord(1, EncodeIndexEntry(e)).ok());
  cache_->Unpin(internal, true);

  EXPECT_GE(ProblemCount(), 2u);
}

}  // namespace
}  // namespace complydb

#include "btree/btree.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "btree/integrity.h"
#include "common/random.h"
#include "numbered.h"
#include "storage/buffer_cache.h"
#include "storage/disk_manager.h"
#include "test_dir.h"

namespace complydb {
namespace {

using testutil::Numbered;

class BtreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d = DiskManager::Open(
        test_dir_.Reset("btree_" + testutil::TestName()) + "/tree.db");
    ASSERT_TRUE(d.ok());
    disk_.reset(d.value());
    cache_ = std::make_unique<BufferCache>(disk_.get(), 64);
    auto root = Btree::Create(cache_.get(), kTreeId);
    ASSERT_TRUE(root.ok());
    BtreeEnv env;
    env.cache = cache_.get();
    tree_ = std::make_unique<Btree>(env, kTreeId, root.value());
  }

  // Inserts a committed (stamped) version.
  void Put(const std::string& key, const std::string& value, uint64_t start) {
    TupleData t;
    t.key = key;
    t.value = value;
    t.start = start;
    t.stamped = true;
    Status s = tree_->InsertVersion(nullptr, t, nullptr, nullptr);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  void Del(const std::string& key, uint64_t start) {
    TupleData t;
    t.key = key;
    t.start = start;
    t.eol = true;
    t.stamped = true;
    Status s = tree_->InsertVersion(nullptr, t, nullptr, nullptr);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  void ExpectIntegrityOk() {
    auto r = CheckTreeIntegrity(cache_.get(), kTreeId, tree_->root());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().ok())
        << "first problem: "
        << (r.value().problems.empty() ? "" : r.value().problems[0]);
  }

  static constexpr uint32_t kTreeId = 7;
  testutil::TestDir test_dir_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferCache> cache_;
  std::unique_ptr<Btree> tree_;
};

TEST_F(BtreeTest, InsertAndGetLatest) {
  Put("alpha", "v1", 10);
  TupleData t;
  ASSERT_TRUE(tree_->GetLatest("alpha", &t).ok());
  EXPECT_EQ(t.value, "v1");
  EXPECT_EQ(t.start, 10u);
  EXPECT_TRUE(tree_->GetLatest("missing", &t).IsNotFound());
}

TEST_F(BtreeTest, UpdateCreatesNewVersion) {
  Put("k", "v1", 10);
  Put("k", "v2", 20);
  Put("k", "v3", 30);
  TupleData t;
  ASSERT_TRUE(tree_->GetLatest("k", &t).ok());
  EXPECT_EQ(t.value, "v3");

  std::vector<TupleData> versions;
  ASSERT_TRUE(tree_->GetVersions("k", &versions).ok());
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[0].value, "v1");
  EXPECT_EQ(versions[1].value, "v2");
  EXPECT_EQ(versions[2].value, "v3");
}

TEST_F(BtreeTest, DeleteIsEndOfLifeVersion) {
  Put("k", "v1", 10);
  Del("k", 20);
  TupleData t;
  EXPECT_TRUE(tree_->GetLatest("k", &t).IsNotFound());
  // History is preserved — the point of a transaction-time DB.
  std::vector<TupleData> versions;
  ASSERT_TRUE(tree_->GetVersions("k", &versions).ok());
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_FALSE(versions[0].eol);
  EXPECT_TRUE(versions[1].eol);
}

TEST_F(BtreeTest, ReinsertAfterDelete) {
  Put("k", "v1", 10);
  Del("k", 20);
  Put("k", "v2", 30);
  TupleData t;
  ASSERT_TRUE(tree_->GetLatest("k", &t).ok());
  EXPECT_EQ(t.value, "v2");
}

TEST_F(BtreeTest, DuplicateVersionRejected) {
  Put("k", "v1", 10);
  TupleData t;
  t.key = "k";
  t.value = "again";
  t.start = 10;
  EXPECT_TRUE(
      tree_->InsertVersion(nullptr, t, nullptr, nullptr).IsInvalidArgument());
}

TEST_F(BtreeTest, ManyKeysForceMultiLevelSplits) {
  const int kN = 2000;
  uint64_t start = 1;
  for (int i = 0; i < kN; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    Put(key, Numbered("value-", i), start++);
  }
  ExpectIntegrityOk();

  auto stats = tree_->CountPages();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().leaf_pages, 10u);
  EXPECT_GE(stats.value().internal_pages, 1u);

  for (int i = 0; i < kN; i += 97) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    TupleData t;
    ASSERT_TRUE(tree_->GetLatest(key, &t).ok()) << key;
    EXPECT_EQ(t.value, Numbered("value-", i));
  }
}

TEST_F(BtreeTest, SingleKeyManyVersionsSpansPages) {
  const int kN = 300;  // ~36 tuples/page -> versions span many leaves
  for (int i = 0; i < kN; ++i) {
    Put("hotkey", Numbered("v", i), static_cast<uint64_t>(i + 1));
  }
  ExpectIntegrityOk();
  std::vector<TupleData> versions;
  ASSERT_TRUE(tree_->GetVersions("hotkey", &versions).ok());
  ASSERT_EQ(versions.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(versions[i].start, static_cast<uint64_t>(i + 1));
  }
  TupleData t;
  ASSERT_TRUE(tree_->GetLatest("hotkey", &t).ok());
  EXPECT_EQ(t.value, Numbered("v", kN - 1));
}

TEST_F(BtreeTest, ScanAllInOrder) {
  Put("b", "2", 10);
  Put("a", "1", 20);
  Put("c", "3", 30);
  Put("a", "1b", 40);
  std::vector<std::pair<std::string, uint64_t>> seen;
  ASSERT_TRUE(tree_
                  ->ScanAll([&](PageId, const TupleData& t) {
                    seen.emplace_back(t.key, t.start);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], (std::pair<std::string, uint64_t>{"a", 20}));
  EXPECT_EQ(seen[1], (std::pair<std::string, uint64_t>{"a", 40}));
  EXPECT_EQ(seen[2], (std::pair<std::string, uint64_t>{"b", 10}));
  EXPECT_EQ(seen[3], (std::pair<std::string, uint64_t>{"c", 30}));
}

TEST_F(BtreeTest, ScanCurrentEmitsLatestNonEol) {
  Put("a", "a1", 10);
  Put("a", "a2", 20);
  Put("b", "b1", 30);
  Del("b", 40);
  Put("c", "c1", 50);
  std::vector<std::string> seen;
  ASSERT_TRUE(tree_
                  ->ScanCurrent([&](const TupleData& t) {
                    seen.push_back(t.key + "=" + t.value);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "a=a2");
  EXPECT_EQ(seen[1], "c=c1");
}

TEST_F(BtreeTest, ScanRangeCurrentRespectsBounds) {
  for (char c = 'a'; c <= 'h'; ++c) {
    Put(std::string(1, c), "v", static_cast<uint64_t>(c));
  }
  std::vector<std::string> seen;
  ASSERT_TRUE(tree_
                  ->ScanRangeCurrent("c", "f",
                                     [&](const TupleData& t) {
                                       seen.push_back(t.key);
                                       return Status::OK();
                                     })
                  .ok());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "c");
  EXPECT_EQ(seen[2], "e");
}

TEST_F(BtreeTest, StampVersionUpgradesStart) {
  TupleData t;
  t.key = "k";
  t.value = "v";
  t.start = 1000;  // txn id
  t.stamped = false;
  ASSERT_TRUE(tree_->InsertVersion(nullptr, t, nullptr, nullptr).ok());
  ASSERT_TRUE(tree_->StampVersion(nullptr, "k", 1000, 2000).ok());
  TupleData got;
  ASSERT_TRUE(tree_->GetLatest("k", &got).ok());
  EXPECT_TRUE(got.stamped);
  EXPECT_EQ(got.start, 2000u);
  // Idempotent re-stamp (recovery path).
  EXPECT_TRUE(tree_->StampVersion(nullptr, "k", 2000, 2000).ok());
}

TEST_F(BtreeTest, RemoveVersionErasesPhysically) {
  Put("k", "v1", 10);
  Put("k", "v2", 20);
  ASSERT_TRUE(tree_->RemoveVersion(nullptr, "k", 20, false, 0).ok());
  TupleData t;
  ASSERT_TRUE(tree_->GetLatest("k", &t).ok());
  EXPECT_EQ(t.value, "v1");
  EXPECT_TRUE(
      tree_->RemoveVersion(nullptr, "k", 999, false, 0).IsNotFound());
}

TEST_F(BtreeTest, IntegrityDetectsLeafSwap) {
  // Fig. 2(b): swap two leaf elements so a lookup fails.
  Put("a", "1", 10);
  Put("b", "2", 20);
  Put("c", "3", 30);
  Page* page = nullptr;
  ASSERT_TRUE(cache_->FetchPage(tree_->root(), &page).ok());
  std::string rec0(page->RecordAt(0).data(), page->RecordAt(0).size());
  std::string rec1(page->RecordAt(1).data(), page->RecordAt(1).size());
  ASSERT_TRUE(page->EraseRecord(0).ok());
  ASSERT_TRUE(page->InsertRecord(0, rec1).ok());
  ASSERT_TRUE(page->EraseRecord(1).ok());
  ASSERT_TRUE(page->InsertRecord(1, rec0).ok());
  cache_->Unpin(tree_->root(), true);

  auto r = CheckTreeIntegrity(cache_.get(), kTreeId, tree_->root());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().ok());
}

TEST_F(BtreeTest, IntegrityDetectsTamperedInternalKey) {
  // Fig. 2(c): bump an internal separator beyond its child's minimum.
  const int kN = 500;
  for (int i = 0; i < kN; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    Put(key, "v", static_cast<uint64_t>(i + 1));
  }
  Page* root = nullptr;
  ASSERT_TRUE(cache_->FetchPage(tree_->root(), &root).ok());
  ASSERT_EQ(root->type(), PageType::kBtreeInternal);
  ASSERT_GE(root->slot_count(), 2);
  IndexEntry e;
  ASSERT_TRUE(DecodeIndexEntry(root->RecordAt(1), &e).ok());
  e.key.back() = static_cast<char>(e.key.back() + 1);  // separator now too big
  ASSERT_TRUE(root->ReplaceRecord(1, EncodeIndexEntry(e)).ok());
  cache_->Unpin(tree_->root(), true);

  auto r = CheckTreeIntegrity(cache_.get(), kTreeId, tree_->root());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().ok());
}

TEST_F(BtreeTest, IntegrityDetectsBrokenSiblingChain) {
  const int kN = 500;
  for (int i = 0; i < kN; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    Put(key, "v", static_cast<uint64_t>(i + 1));
  }
  // Find the leftmost leaf and cut its sibling pointer.
  Page* root = nullptr;
  ASSERT_TRUE(cache_->FetchPage(tree_->root(), &root).ok());
  IndexEntry e;
  ASSERT_TRUE(DecodeIndexEntry(root->RecordAt(0), &e).ok());
  cache_->Unpin(tree_->root(), false);
  PageId leaf_pgno = e.child;
  Page* leaf = nullptr;
  ASSERT_TRUE(cache_->FetchPage(leaf_pgno, &leaf).ok());
  while (leaf->type() != PageType::kBtreeLeaf) {
    IndexEntry e2;
    ASSERT_TRUE(DecodeIndexEntry(leaf->RecordAt(0), &e2).ok());
    cache_->Unpin(leaf_pgno, false);
    leaf_pgno = e2.child;
    ASSERT_TRUE(cache_->FetchPage(leaf_pgno, &leaf).ok());
  }
  leaf->set_right_sibling(kInvalidPage);
  cache_->Unpin(leaf_pgno, true);

  auto r = CheckTreeIntegrity(cache_.get(), kTreeId, tree_->root());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().ok());
}

// Property test: random multi-version workload mirrors a model; integrity
// holds throughout; version history is exact.
class BtreePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BtreePropertyTest, MatchesModel) {
  testutil::TestDir test_dir(Numbered("btree_prop_", GetParam()));
  auto d = DiskManager::Open(test_dir.path() + "/tree.db");
  ASSERT_TRUE(d.ok());
  std::unique_ptr<DiskManager> disk(d.value());
  BufferCache cache(disk.get(), 32);
  auto root = Btree::Create(&cache, 1);
  ASSERT_TRUE(root.ok());
  BtreeEnv env;
  env.cache = &cache;
  Btree tree(env, 1, root.value());

  Random rng(GetParam());
  // model: key -> ordered list of (start, value, eol)
  std::map<std::string, std::vector<std::tuple<uint64_t, std::string, bool>>>
      model;
  uint64_t start = 1;

  for (int step = 0; step < 1500; ++step) {
    std::string key = Numbered("k", rng.Uniform(80));
    uint64_t op = rng.Uniform(10);
    if (op < 8) {
      std::string value = rng.Bytes(1 + rng.Uniform(50));
      TupleData t;
      t.key = key;
      t.value = value;
      t.start = start;
      t.stamped = true;
      ASSERT_TRUE(tree.InsertVersion(nullptr, t, nullptr, nullptr).ok());
      model[key].emplace_back(start, value, false);
    } else {
      // Delete if currently live.
      auto it = model.find(key);
      bool live = it != model.end() && !it->second.empty() &&
                  !std::get<2>(it->second.back());
      if (live) {
        TupleData t;
        t.key = key;
        t.start = start;
        t.eol = true;
        t.stamped = true;
        ASSERT_TRUE(tree.InsertVersion(nullptr, t, nullptr, nullptr).ok());
        model[key].emplace_back(start, "", true);
      }
    }
    ++start;
  }

  auto report = CheckTreeIntegrity(&cache, 1, tree.root());
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().ok())
      << report.value().problems.size() << " problems; first: "
      << report.value().problems[0];

  for (const auto& [key, history] : model) {
    std::vector<TupleData> versions;
    ASSERT_TRUE(tree.GetVersions(key, &versions).ok());
    ASSERT_EQ(versions.size(), history.size()) << key;
    for (size_t i = 0; i < history.size(); ++i) {
      EXPECT_EQ(versions[i].start, std::get<0>(history[i]));
      EXPECT_EQ(versions[i].value, std::get<1>(history[i]));
      EXPECT_EQ(versions[i].eol, std::get<2>(history[i]));
    }
    TupleData latest;
    Status s = tree.GetLatest(key, &latest);
    bool live = !std::get<2>(history.back());
    if (live) {
      ASSERT_TRUE(s.ok()) << key;
      EXPECT_EQ(latest.value, std::get<1>(history.back()));
    } else {
      EXPECT_TRUE(s.IsNotFound()) << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BtreePropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace complydb

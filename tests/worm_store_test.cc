#include "worm/worm_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "common/clock.h"
#include "test_dir.h"

namespace complydb {
namespace {

class WormStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir_.Reset("worm_" + testutil::TestName());
    auto r = WormStore::Open(dir_, &clock_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    store_.reset(r.value());
  }

  SimulatedClock clock_;
  testutil::TestDir test_dir_;
  std::string dir_;
  std::unique_ptr<WormStore> store_;
};

constexpr uint64_t kHour = 3600ull * 1'000'000;

TEST_F(WormStoreTest, CreateAppendRead) {
  ASSERT_TRUE(store_->Create("log", kHour).ok());
  ASSERT_TRUE(store_->Append("log", "hello ").ok());
  ASSERT_TRUE(store_->Append("log", "worm").ok());
  std::string out;
  ASSERT_TRUE(store_->ReadAll("log", &out).ok());
  EXPECT_EQ(out, "hello worm");
}

TEST_F(WormStoreTest, CreateOverExistingIsViolation) {
  ASSERT_TRUE(store_->Create("f", kHour).ok());
  Status s = store_->Create("f", kHour);
  EXPECT_TRUE(s.IsWormViolation()) << s.ToString();
  EXPECT_EQ(store_->violation_count(), 1u);
}

TEST_F(WormStoreTest, DeleteBeforeRetentionRefused) {
  ASSERT_TRUE(store_->Create("f", kHour).ok());
  clock_.AdvanceMicros(kHour / 2);
  EXPECT_TRUE(store_->Delete("f").IsWormViolation());
  EXPECT_TRUE(store_->Exists("f"));
}

TEST_F(WormStoreTest, DeleteAfterRetentionAllowed) {
  ASSERT_TRUE(store_->Create("f", kHour).ok());
  clock_.AdvanceMicros(kHour + 1);
  EXPECT_TRUE(store_->Delete("f").ok());
  EXPECT_FALSE(store_->Exists("f"));
}

TEST_F(WormStoreTest, RetainForeverNeverDeletable) {
  ASSERT_TRUE(store_->Create("f", 0).ok());
  clock_.AdvanceMicros(1000 * kHour);
  EXPECT_TRUE(store_->Delete("f").IsWormViolation());
}

TEST_F(WormStoreTest, ReleaseRetentionEnablesDelete) {
  ASSERT_TRUE(store_->Create("f", 0).ok());
  clock_.AdvanceMicros(10);
  ASSERT_TRUE(store_->ReleaseRetention("f").ok());
  EXPECT_TRUE(store_->Delete("f").ok());
}

TEST_F(WormStoreTest, CreateTimeComesFromComplianceClock) {
  clock_.AdvanceMicros(12345);
  uint64_t before = clock_.NowMicros();
  ASSERT_TRUE(store_->Create("witness", kHour).ok());
  auto info = store_->GetInfo("witness");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().create_time_micros, before);
}

TEST_F(WormStoreTest, ReadAtOffsets) {
  ASSERT_TRUE(store_->CreateWithContent("f", kHour, "0123456789").ok());
  std::string out;
  ASSERT_TRUE(store_->ReadAt("f", 3, 4, &out).ok());
  EXPECT_EQ(out, "3456");
  ASSERT_TRUE(store_->ReadAt("f", 8, 100, &out).ok());
  EXPECT_EQ(out, "89");
  ASSERT_TRUE(store_->ReadAt("f", 100, 10, &out).ok());
  EXPECT_EQ(out, "");
}

TEST_F(WormStoreTest, ListAndPrefix) {
  ASSERT_TRUE(store_->Create("witness_001", kHour).ok());
  ASSERT_TRUE(store_->Create("witness_002", kHour).ok());
  ASSERT_TRUE(store_->Create("log_1", kHour).ok());
  auto w = store_->ListPrefix("witness_");
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], "witness_001");
  EXPECT_EQ(w[1], "witness_002");
  EXPECT_EQ(store_->List().size(), 3u);
}

TEST_F(WormStoreTest, PersistsAcrossReopen) {
  ASSERT_TRUE(store_->CreateWithContent("f", kHour, "durable").ok());
  store_.reset();
  auto r = WormStore::Open(dir_, &clock_);
  ASSERT_TRUE(r.ok());
  store_.reset(r.value());
  std::string out;
  ASSERT_TRUE(store_->ReadAll("f", &out).ok());
  EXPECT_EQ(out, "durable");
  auto info = store_->GetInfo("f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().size, 7u);
}

TEST_F(WormStoreTest, AppendToMissingFileNotFound) {
  EXPECT_TRUE(store_->Append("nope", "x").IsNotFound());
}

TEST_F(WormStoreTest, BadNamesRejected) {
  EXPECT_TRUE(store_->Create("", kHour).IsInvalidArgument());
  EXPECT_TRUE(store_->Create("a/b", kHour).IsInvalidArgument());
  EXPECT_TRUE(store_->Create("_worm_meta", kHour).IsInvalidArgument());
}

TEST_F(WormStoreTest, UnflushedAppendsSurviveFlushAndReopen) {
  ASSERT_TRUE(store_->Create("batch", kHour).ok());
  ASSERT_TRUE(store_->AppendUnflushed("batch", "part1-").ok());
  ASSERT_TRUE(store_->AppendUnflushed("batch", "part2").ok());
  ASSERT_TRUE(store_->FlushAppends("batch").ok());
  std::string out;
  ASSERT_TRUE(store_->ReadAll("batch", &out).ok());
  EXPECT_EQ(out, "part1-part2");

  auto info = store_->GetInfo("batch");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().size, 11u);

  // Reopen: the lazily-persisted size reconciles against the real file.
  store_.reset();
  auto r = WormStore::Open(dir_, &clock_);
  ASSERT_TRUE(r.ok());
  store_.reset(r.value());
  info = store_->GetInfo("batch");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().size, 11u);
  ASSERT_TRUE(store_->ReadAll("batch", &out).ok());
  EXPECT_EQ(out, "part1-part2");
}

TEST_F(WormStoreTest, ReleasedFlagPersistsAcrossReopen) {
  ASSERT_TRUE(store_->Create("f", 0).ok());
  ASSERT_TRUE(store_->ReleaseRetention("f").ok());
  store_.reset();
  auto r = WormStore::Open(dir_, &clock_);
  ASSERT_TRUE(r.ok());
  store_.reset(r.value());
  EXPECT_TRUE(store_->Delete("f").ok());
}

TEST_F(WormStoreTest, AppendAfterDeleteOfOtherFileKeepsHandles) {
  ASSERT_TRUE(store_->Create("a", kHour).ok());
  ASSERT_TRUE(store_->Create("b", kHour).ok());
  ASSERT_TRUE(store_->Append("a", "x").ok());
  ASSERT_TRUE(store_->Append("b", "y").ok());
  clock_.AdvanceMicros(kHour + 1);
  ASSERT_TRUE(store_->Delete("a").ok());
  ASSERT_TRUE(store_->Append("b", "z").ok());
  std::string out;
  ASSERT_TRUE(store_->ReadAll("b", &out).ok());
  EXPECT_EQ(out, "yz");
  EXPECT_TRUE(store_->ReadAll("a", &out).IsNotFound());
}

TEST_F(WormStoreTest, RecreateAfterLegitimateDelete) {
  // Deleting an expired file frees its name — a fresh file under the same
  // name is a new object with a new create time.
  ASSERT_TRUE(store_->Create("cycle", kHour).ok());
  uint64_t t0 = clock_.NowMicros();
  clock_.AdvanceMicros(kHour + 1);
  ASSERT_TRUE(store_->Delete("cycle").ok());
  ASSERT_TRUE(store_->Create("cycle", kHour).ok());
  auto info = store_->GetInfo("cycle");
  ASSERT_TRUE(info.ok());
  EXPECT_GT(info.value().create_time_micros, t0);
}

}  // namespace
}  // namespace complydb

// Read-only (forensic inspection) opens: full query access, zero
// mutation — no recovery, no compliance appends, no CLEAN-marker churn.

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

class ReadOnlyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir_.Reset("ro_" + testutil::TestName());
    // Seed a database.
    auto r = CompliantDB::Open(Options(false));
    ASSERT_TRUE(r.ok());
    db_.reset(r.value());
    auto t = db_->CreateTable("t");
    ASSERT_TRUE(t.ok());
    table_ = t.value();
    for (int i = 0; i < 30; ++i) {
      auto txn = db_->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(db_->Put(txn.value(), table_, Numbered("k", i),
                           Numbered("v", i))
                      .ok());
      ASSERT_TRUE(db_->Commit(txn.value()).ok());
    }
    t1_ = db_->txns()->last_commit_time();
    ASSERT_TRUE(db_->Close().ok());
    db_.reset();
  }

  DbOptions Options(bool read_only) {
    DbOptions opts;
    opts.dir = dir_;
    opts.cache_pages = 64;
    opts.clock = &clock_;
    opts.compliance.enabled = true;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    opts.read_only = read_only;
    return opts;
  }

  SimulatedClock clock_;
  testutil::TestDir test_dir_;
  std::string dir_;
  uint32_t table_ = 0;
  uint64_t t1_ = 0;
  std::unique_ptr<CompliantDB> db_;
};

TEST_F(ReadOnlyTest, QueriesWorkMutationsRefused) {
  auto r = CompliantDB::Open(Options(true));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  db_.reset(r.value());

  std::string value;
  ASSERT_TRUE(db_->Get(table_, "k7", &value).ok());
  EXPECT_EQ(value, "v7");
  ASSERT_TRUE(db_->GetAsOf(table_, "k7", t1_, &value).ok());
  std::vector<TupleData> history;
  ASSERT_TRUE(db_->GetHistory(table_, "k7", &history).ok());
  EXPECT_EQ(history.size(), 1u);

  EXPECT_TRUE(db_->Begin().status().code() ==
              Status::Code::kNotSupported);
  EXPECT_TRUE(db_->CreateTable("nope").status().code() ==
              Status::Code::kNotSupported);
  EXPECT_TRUE(db_->Vacuum(table_).status().code() ==
              Status::Code::kNotSupported);
  EXPECT_TRUE(db_->Audit().status().code() == Status::Code::kNotSupported);
  ASSERT_TRUE(db_->Close().ok());
}

TEST_F(ReadOnlyTest, InspectionLeavesNoTrace) {
  // Snapshot the observable on-disk state.
  auto sizes = [&]() {
    std::map<std::string, uintmax_t> out;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir_)) {
      if (entry.is_regular_file()) {
        out[entry.path().string()] = entry.file_size();
      }
    }
    return out;
  };
  auto before = sizes();

  {
    auto r = CompliantDB::Open(Options(true));
    ASSERT_TRUE(r.ok());
    db_.reset(r.value());
    std::string value;
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(db_->Get(table_, Numbered("k", i), &value).ok());
    }
    ASSERT_TRUE(db_->Close().ok());
    db_.reset();
  }
  auto after = sizes();
  EXPECT_EQ(before, after) << "read-only inspection mutated the evidence";

  // The writable engine still opens cleanly afterwards.
  auto r = CompliantDB::Open(Options(false));
  ASSERT_TRUE(r.ok());
  db_.reset(r.value());
  EXPECT_FALSE(db_->recovered_from_crash());
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok());
}

TEST_F(ReadOnlyTest, ReadOnlyAfterCrashSeesDurableState) {
  // Crash the writable instance, then inspect read-only: durable (flushed)
  // data is visible; nothing is modified.
  {
    auto r = CompliantDB::Open(Options(false));
    ASSERT_TRUE(r.ok());
    db_.reset(r.value());
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db_->Put(txn.value(), table_, "post-crash", "x").ok());
    ASSERT_TRUE(db_->Commit(txn.value()).ok());
    db_.reset();  // crash (dirty pages lost)
  }
  auto r = CompliantDB::Open(Options(true));
  ASSERT_TRUE(r.ok());
  db_.reset(r.value());
  std::string value;
  ASSERT_TRUE(db_->Get(table_, "k3", &value).ok());
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();

  // A later writable open still runs real recovery.
  auto rw = CompliantDB::Open(Options(false));
  ASSERT_TRUE(rw.ok());
  db_.reset(rw.value());
  EXPECT_TRUE(db_->recovered_from_crash());
  ASSERT_TRUE(db_->Get(table_, "post-crash", &value).ok());
  EXPECT_EQ(value, "x");
}

}  // namespace
}  // namespace complydb

// Asynchronous compliance-log shipping: determinism and crash windows.
//
// The shipper drains a FIFO ring on a single thread, so the bytes it
// appends to L must be exactly the bytes sync mode would have written —
// the first test proves this at the file level. The crash tests kill the
// database (destructor without Close) at each interesting point relative
// to the durability barriers: with records still pending in the ring,
// after an eviction forced the dependent-pwrite barrier, and right after
// a commit's full-flush barrier. In every window the auditor's verdict
// must match what sync mode produces for the same crash.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compliance/compliance_log.h"
#include "db/compliant_db.h"
#include "test_dir.h"

namespace complydb {
namespace {

constexpr uint64_t kMinute = 60ull * 1'000'000;

// A group-commit window far longer than any test: background drains never
// fire, so records sit in the ring until a barrier (or a crash) hits them.
constexpr uint64_t kHugeWindow = 10ull * kMinute;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The env override would force async for every Open in this binary (the
// TSan CI job sets it); these tests pick the mode per-options, so the
// fixture clears it and restores the previous value afterwards.
class AsyncShippingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* env = std::getenv("COMPLYDB_COMPLIANCE_ASYNC");
    if (env != nullptr) saved_env_ = env;
    ::unsetenv("COMPLYDB_COMPLIANCE_ASYNC");
  }
  void TearDown() override {
    if (saved_env_.has_value()) {
      ::setenv("COMPLYDB_COMPLIANCE_ASYNC", saved_env_->c_str(), 1);
    }
  }

  DbOptions MakeOptions(const std::string& dir, bool async,
                        size_t cache_pages = 32,
                        uint64_t window_micros = kHugeWindow) {
    DbOptions opts;
    opts.dir = dir;
    opts.cache_pages = cache_pages;
    opts.clock = clock_.get();
    opts.compliance.enabled = true;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    opts.compliance.async_shipping = async;
    opts.compliance.group_commit_window_micros = window_micros;
    return opts;
  }

  std::unique_ptr<CompliantDB> Open(const DbOptions& opts) {
    auto r = CompliantDB::Open(opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::unique_ptr<CompliantDB>(r.ok() ? r.value() : nullptr);
  }

  std::string FreshDir(const std::string& name) {
    std::string dir = test_dir_.path() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
  }

  testutil::TestDir test_dir_{"async_ship_" + testutil::TestName()};
  std::unique_ptr<SimulatedClock> clock_ =
      std::make_unique<SimulatedClock>();
  std::optional<std::string> saved_env_;
};

// Runs a fixed mixed workload: single puts, multi-key transactions, an
// abort, deletes, and clock advances that trigger regret-interval forcing
// (dirty-page write-out exercises the pwrite barrier mid-workload).
void RunWorkload(CompliantDB* db, uint32_t table) {
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 25; ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn.ok());
      std::string key = "key" + std::to_string((round * 25 + i) % 40);
      std::string value(40 + (i * 7) % 120, static_cast<char>('a' + i % 26));
      ASSERT_TRUE(db->Put(txn.value(), table, key, value).ok());
      ASSERT_TRUE(db->Commit(txn.value()).ok());
    }
    {
      auto txn = db->Begin();
      ASSERT_TRUE(txn.ok());
      for (int i = 0; i < 5; ++i) {
        std::string key = "multi" + std::to_string(round * 5 + i);
        ASSERT_TRUE(db->Put(txn.value(), table, key, "batch").ok());
      }
      if (round % 2 == 0) {
        ASSERT_TRUE(db->Commit(txn.value()).ok());
      } else {
        ASSERT_TRUE(db->Abort(txn.value()).ok());
      }
    }
    if (round >= 2) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(
          db->Delete(txn.value(), table, "key" + std::to_string(round)).ok());
      ASSERT_TRUE(db->Commit(txn.value()).ok());
    }
    ASSERT_TRUE(db->AdvanceClock(6 * kMinute).ok());
  }
}

// With a single-threaded FIFO drain, async mode must produce the same L
// (and, after a clean close, the same stamp index) byte for byte.
TEST_F(AsyncShippingTest, LogBytesIdenticalSyncVsAsync) {
  std::string contents[2][2];  // [mode][L, Lidx]
  for (int mode = 0; mode < 2; ++mode) {
    bool async = mode == 1;
    std::string dir = FreshDir(async ? "det_async" : "det_sync");
    clock_ = std::make_unique<SimulatedClock>();  // identical stamps per run
    auto db = Open(MakeOptions(dir, async, /*cache_pages=*/16,
                               /*window_micros=*/200));
    ASSERT_NE(db, nullptr);
    auto t = db->CreateTable("det");
    ASSERT_TRUE(t.ok());
    RunWorkload(db.get(), t.value());
    ASSERT_TRUE(db->Close().ok());
    db.reset();
    contents[mode][0] = ReadFileBytes(dir + "/worm/" + LogFileName(0));
    contents[mode][1] = ReadFileBytes(dir + "/worm/" + StampIndexFileName(0));
  }
  ASSERT_FALSE(contents[0][0].empty());
  EXPECT_EQ(contents[0][0], contents[1][0]) << "L diverged sync vs async";
  EXPECT_EQ(contents[0][1], contents[1][1]) << "Lidx diverged sync vs async";
}

// Crash window 1: kill between ring-append and WORM flush, before any
// dependent pwrite. Read-hash records queue behind the huge window (clean-
// page evictions fire no barrier), so async loses the tail that sync made
// durable — the on-disk L sizes prove the window was real — yet the
// auditor's verdict must match sync: a lost READ_HASH is indistinguishable
// from crashing before the read.
TEST_F(AsyncShippingTest, CrashWithRecordsPendingInRing) {
  uintmax_t log_sizes[2] = {0, 0};
  for (int mode = 0; mode < 2; ++mode) {
    bool async = mode == 1;
    std::string dir = FreshDir(async ? "ring_async" : "ring_sync");
    clock_ = std::make_unique<SimulatedClock>();
    uint32_t table = 0;
    {
      DbOptions opts = MakeOptions(dir, async, /*cache_pages=*/8);
      opts.compliance.hash_on_read = true;
      auto db = Open(opts);
      ASSERT_NE(db, nullptr);
      auto t = db->CreateTable("ring");
      ASSERT_TRUE(t.ok());
      table = t.value();
      for (int i = 0; i < 300; ++i) {
        auto txn = db->Begin();
        ASSERT_TRUE(txn.ok());
        ASSERT_TRUE(db->Put(txn.value(), table, "seed" + std::to_string(i),
                            std::string(200, 'x'))
                        .ok());
        ASSERT_TRUE(db->Commit(txn.value()).ok());
      }
      // Quiesce: everything so far durable, all pages clean.
      ASSERT_TRUE(db->FlushAll().ok());
      // Cache misses on clean pages: READ_HASH records enter the ring but
      // no pwrite barrier and no commit barrier ever drains them.
      std::string value;
      for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(db->Get(table, "seed" + std::to_string(i), &value).ok());
      }
      // Crash: destructor without Close drops the ring.
    }
    log_sizes[mode] =
        std::filesystem::file_size(dir + "/worm/" + LogFileName(0));
    auto db = Open(MakeOptions(dir, async));
    ASSERT_NE(db, nullptr);
    EXPECT_TRUE(db->recovered_from_crash());
    std::string value;
    EXPECT_TRUE(db->Get(table, "seed3", &value).ok());
    auto report = db->Audit();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report.value().ok())
        << (async ? "async" : "sync") << " audit failed; first problem: "
        << report.value().problems[0];
  }
  // The crash really hit the window: async lost queued records sync kept.
  EXPECT_LT(log_sizes[1], log_sizes[0]);
}

// Crash window 2: kill after dependent pwrites. The tiny cache evicts
// dirty pages throughout the storm, so the pwrite barrier repeatedly
// drains the ring (any page on disk has its records durable on WORM);
// the crash then takes the still-queued tail of post-storm read hashes.
// Committed data must survive and the audit must pass in both modes.
TEST_F(AsyncShippingTest, CrashAfterDependentPageWrites) {
  for (int mode = 0; mode < 2; ++mode) {
    bool async = mode == 1;
    std::string dir = FreshDir(async ? "evict_async" : "evict_sync");
    clock_ = std::make_unique<SimulatedClock>();
    uint32_t table = 0;
    {
      DbOptions opts = MakeOptions(dir, async, /*cache_pages=*/8);
      opts.compliance.hash_on_read = true;
      auto db = Open(opts);
      ASSERT_NE(db, nullptr);
      auto t = db->CreateTable("evict");
      ASSERT_TRUE(t.ok());
      table = t.value();
      // Steal/no-force: dirty pages from these commits get evicted and
      // pwritten while later records are still queued, exercising the
      // per-page barrier continuously.
      for (int i = 0; i < 200; ++i) {
        auto txn = db->Begin();
        ASSERT_TRUE(txn.ok());
        ASSERT_TRUE(db->Put(txn.value(), table,
                            "key" + std::to_string(i * 7919 % 1000),
                            std::string(120, 'c'))
                        .ok());
        ASSERT_TRUE(db->Commit(txn.value()).ok());
      }
      // A tail of READ_HASH records that never meets a barrier.
      std::string value;
      for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(
            db->Get(table, "key" + std::to_string(i * 7919 % 1000), &value)
                .ok());
      }
      // Crash with evicted pages on disk and records pending in the ring.
    }
    auto db = Open(MakeOptions(dir, async));
    ASSERT_NE(db, nullptr);
    EXPECT_TRUE(db->recovered_from_crash());
    std::string value;
    EXPECT_TRUE(
        db->Get(table, "key" + std::to_string(12 * 7919 % 1000), &value).ok());
    auto report = db->Audit();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report.value().ok())
        << (async ? "async" : "sync") << " audit failed; first problem: "
        << report.value().problems[0];
  }
}

// Crash window 3: the commit barrier returned, so the STAMP_TRANS (and
// everything queued before it) is durable on WORM even though the huge
// window guarantees no background drain ever ran. The committed data must
// survive the crash and audit clean.
TEST_F(AsyncShippingTest, CommittedWorkSurvivesCrashAfterCommitBarrier) {
  std::string dir = FreshDir("commit_barrier");
  clock_ = std::make_unique<SimulatedClock>();
  uint32_t table = 0;
  {
    auto db = Open(MakeOptions(dir, /*async=*/true));
    ASSERT_NE(db, nullptr);
    auto t = db->CreateTable("barrier");
    ASSERT_TRUE(t.ok());
    table = t.value();
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db->Put(txn.value(), table, "durable", "after-barrier").ok());
    ASSERT_TRUE(db->Commit(txn.value()).ok());
    // Crash immediately after the commit barrier returned.
  }
  auto db = Open(MakeOptions(dir, /*async=*/true));
  ASSERT_NE(db, nullptr);
  std::string value;
  ASSERT_TRUE(db->Get(table, "durable", &value).ok());
  EXPECT_EQ(value, "after-barrier");
  auto report = db->Audit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok()) << "first problem: "
                                   << report.value().problems[0];
}

// Scans must observe records still in flight: the log read path waits for
// the shipper to drain before scanning (an audit would otherwise race).
TEST_F(AsyncShippingTest, ScanSeesRecordsQueuedBehindHugeWindow) {
  std::string dir = FreshDir("scan_drain");
  auto db = Open(MakeOptions(dir, /*async=*/true));
  ASSERT_NE(db, nullptr);
  auto t = db->CreateTable("scan");
  ASSERT_TRUE(t.ok());
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db->Put(txn.value(), t.value(), "k", "v").ok());
  ASSERT_TRUE(db->Commit(txn.value()).ok());
  auto stats = db->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().compliance_log_records, 0u);
  ASSERT_TRUE(db->Close().ok());
}

// COMPLYDB_COMPLIANCE_ASYNC turns shipping on without recompiling or
// replumbing options ("1" = on, "0"/empty = leave options alone).
TEST_F(AsyncShippingTest, EnvVarOverridesAsyncOption) {
  {
    ::setenv("COMPLYDB_COMPLIANCE_ASYNC", "1", 1);
    auto db = Open(MakeOptions(FreshDir("env_on"), /*async=*/false));
    ASSERT_NE(db, nullptr);
    EXPECT_TRUE(db->compliance_logger()->options().async_shipping);
    ASSERT_TRUE(db->Close().ok());
  }
  {
    ::setenv("COMPLYDB_COMPLIANCE_ASYNC", "0", 1);
    auto db = Open(MakeOptions(FreshDir("env_off"), /*async=*/false));
    ASSERT_NE(db, nullptr);
    EXPECT_FALSE(db->compliance_logger()->options().async_shipping);
    ASSERT_TRUE(db->Close().ok());
  }
  ::unsetenv("COMPLYDB_COMPLIANCE_ASYNC");
}

}  // namespace
}  // namespace complydb

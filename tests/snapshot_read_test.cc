// Concurrent read path: SnapshotReader handles pinned at a commit time
// running against the single writer. Covers the fixed-point visibility
// contract, the audit quiescence rule, invariant preservation under
// concurrent readers + writer, and the TPC-C read-only transactions on
// reader threads. Reader-thread count comes from COMPLYDB_READ_THREADS
// (default 2); CI runs this suite under TSan with 4.

#include "db/snapshot_reader.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "db/compliant_db.h"
#include "test_dir.h"
#include "tpcc/workload.h"

namespace complydb {
namespace {

constexpr uint64_t kMinute = 60ull * 1'000'000;

int ReaderThreads() {
  const char* env = std::getenv("COMPLYDB_READ_THREADS");
  return env != nullptr ? std::max(1, std::atoi(env)) : 2;
}

class SnapshotReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir_.Reset("snap_" + testutil::TestName());
  }

  DbOptions MakeOptions() {
    DbOptions opts;
    opts.dir = dir_;
    opts.cache_pages = 128;
    opts.clock = &clock_;
    opts.compliance.enabled = true;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    return opts;
  }

  void OpenDb(const DbOptions& opts) {
    auto r = CompliantDB::Open(opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    db_.reset(r.value());
  }

  void PutCommitted(uint32_t table, const std::string& key,
                    const std::string& value) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok()) << txn.status().ToString();
    ASSERT_TRUE(db_->Put(txn.value(), table, key, value).ok());
    Status s = db_->Commit(txn.value());
    ASSERT_TRUE(s.ok()) << s.ToString();
    clock_.AdvanceMicros(1000);
  }

  void DeleteCommitted(uint32_t table, const std::string& key) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db_->Delete(txn.value(), table, key).ok());
    ASSERT_TRUE(db_->Commit(txn.value()).ok());
    clock_.AdvanceMicros(1000);
  }

  SimulatedClock clock_;
  testutil::TestDir test_dir_;
  std::string dir_;
  std::unique_ptr<CompliantDB> db_;
};

TEST_F(SnapshotReadTest, SnapshotIsAFixedPoint) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("accounts");
  ASSERT_TRUE(table.ok());
  PutCommitted(table.value(), "alice", "100");

  auto r = db_->BeginSnapshot();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::unique_ptr<SnapshotReader> snap(r.value());

  // Commits after the snapshot are invisible through it.
  PutCommitted(table.value(), "alice", "200");
  PutCommitted(table.value(), "bob", "50");

  std::string value;
  ASSERT_TRUE(snap->Get(table.value(), "alice", &value).ok());
  EXPECT_EQ(value, "100");
  EXPECT_EQ(snap->Get(table.value(), "bob", &value).code(),
            Status::Code::kNotFound);

  // The live view moved on.
  ASSERT_TRUE(db_->Get(table.value(), "alice", &value).ok());
  EXPECT_EQ(value, "200");
}

TEST_F(SnapshotReadTest, GetAsOfIsBoundedBySnapshotTime) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("accounts");
  ASSERT_TRUE(table.ok());
  PutCommitted(table.value(), "alice", "v1");
  uint64_t after_v1 = clock_.NowMicros();

  auto r = db_->BeginSnapshot();
  ASSERT_TRUE(r.ok());
  std::unique_ptr<SnapshotReader> snap(r.value());
  PutCommitted(table.value(), "alice", "v2");

  // Asking far into the future still clamps to the snapshot.
  std::string value;
  ASSERT_TRUE(
      snap->GetAsOf(table.value(), "alice", ~0ull, &value).ok());
  EXPECT_EQ(value, "v1");
  // Temporal reads inside the snapshot's past still work.
  ASSERT_TRUE(
      snap->GetAsOf(table.value(), "alice", after_v1, &value).ok());
  EXPECT_EQ(value, "v1");
}

TEST_F(SnapshotReadTest, ScanSeesSnapshotStateNotLiveState) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("accounts");
  ASSERT_TRUE(table.ok());
  PutCommitted(table.value(), "a", "1");
  PutCommitted(table.value(), "b", "2");

  auto r = db_->BeginSnapshot();
  ASSERT_TRUE(r.ok());
  std::unique_ptr<SnapshotReader> snap(r.value());

  DeleteCommitted(table.value(), "a");
  PutCommitted(table.value(), "b", "20");
  PutCommitted(table.value(), "c", "3");

  std::vector<std::string> rows;
  ASSERT_TRUE(snap->ScanCurrent(table.value(), "", "",
                                [&](const TupleData& row) {
                                  rows.push_back(row.key + "=" + row.value);
                                  return Status::OK();
                                })
                  .ok());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], "a=1");
  EXPECT_EQ(rows[1], "b=2");

  // Early stop via Busy is a clean termination, not an error.
  size_t seen = 0;
  ASSERT_TRUE(snap->ScanCurrent(table.value(), "", "",
                                [&](const TupleData&) {
                                  ++seen;
                                  return Status::Busy("stop");
                                })
                  .ok());
  EXPECT_EQ(seen, 1u);
}

TEST_F(SnapshotReadTest, AuditRequiresQuiescence) {
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("accounts");
  ASSERT_TRUE(table.ok());
  PutCommitted(table.value(), "alice", "100");

  auto r = db_->BeginSnapshot();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(db_->open_snapshots(), 1);
  {
    auto r2 = db_->BeginSnapshot();
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(db_->open_snapshots(), 2);
    auto blocked = db_->Audit();
    EXPECT_FALSE(blocked.ok());
    EXPECT_EQ(blocked.status().code(), Status::Code::kBusy);
    delete r2.value();
  }
  delete r.value();
  EXPECT_EQ(db_->open_snapshots(), 0);

  auto report = db_->Audit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok());
}

TEST_F(SnapshotReadTest, ConcurrentReadersSeeConsistentSnapshots) {
  // The writer keeps two keys equal inside every transaction; a snapshot
  // taken at any commit time must never observe them unequal, and the
  // counter a reader sees must be monotonic across its snapshots.
  OpenDb(MakeOptions());
  auto table = db_->CreateTable("pairs");
  ASSERT_TRUE(table.ok());
  uint32_t t = table.value();
  PutCommitted(t, "x", "0");
  PutCommitted(t, "y", "0");

  std::atomic<bool> done{false};
  std::atomic<bool> mismatch{false};
  std::atomic<bool> regressed{false};
  std::atomic<uint64_t> snapshots_read{0};

  std::vector<std::thread> readers;
  for (int i = 0; i < ReaderThreads(); ++i) {
    readers.emplace_back([&] {
      long last = -1;
      while (!done.load(std::memory_order_acquire)) {
        auto r = db_->BeginSnapshot();
        if (!r.ok()) continue;
        std::unique_ptr<SnapshotReader> snap(r.value());
        std::string x, y;
        if (!snap->Get(t, "x", &x).ok() || !snap->Get(t, "y", &y).ok()) {
          continue;
        }
        if (x != y) mismatch.store(true, std::memory_order_relaxed);
        long v = std::strtol(x.c_str(), nullptr, 10);
        if (v < last) regressed.store(true, std::memory_order_relaxed);
        last = v;
        snapshots_read.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int i = 1; i <= 200; ++i) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    std::string v = std::to_string(i);
    ASSERT_TRUE(db_->Put(txn.value(), t, "x", v).ok());
    ASSERT_TRUE(db_->Put(txn.value(), t, "y", v).ok());
    ASSERT_TRUE(db_->Commit(txn.value()).ok());
    clock_.AdvanceMicros(500);
  }
  // Keep the snapshot path open until every reader got at least one full
  // read in (the writer can outrun slow-starting threads).
  while (snapshots_read.load(std::memory_order_relaxed) <
         static_cast<uint64_t>(ReaderThreads())) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_FALSE(mismatch.load()) << "a snapshot saw a half-applied txn";
  EXPECT_FALSE(regressed.load()) << "snapshot time went backwards";
  EXPECT_GT(snapshots_read.load(), 0u);
  EXPECT_EQ(db_->open_snapshots(), 0);

  std::string x;
  ASSERT_TRUE(db_->Get(t, "x", &x).ok());
  EXPECT_EQ(x, "200");
}

TEST_F(SnapshotReadTest, TpccReadOnlyTransactionsConcurrentWithWriter) {
  OpenDb(MakeOptions());
  tpcc::Scale scale;
  scale.warehouses = 1;
  scale.districts_per_warehouse = 2;
  scale.customers_per_district = 12;
  scale.items = 50;
  scale.initial_orders_per_district = 12;
  auto workload = std::make_unique<tpcc::Workload>(db_.get(), scale, 42);
  ASSERT_TRUE(workload->CreateOrAttachTables().ok());
  ASSERT_TRUE(workload->Load().ok());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> ro_ok{0};
  std::atomic<int> failures{0};
  std::mutex failure_mu;
  std::string first_failure;

  std::vector<std::thread> readers;
  for (int i = 0; i < ReaderThreads(); ++i) {
    readers.emplace_back([&, i] {
      tpcc::TpccRandom rng(1000 + i);
      bool order_status = true;
      while (!done.load(std::memory_order_acquire)) {
        auto r = db_->BeginSnapshot();
        if (!r.ok()) continue;
        std::unique_ptr<SnapshotReader> snap(r.value());
        Status s = order_status ? workload->OrderStatusRO(*snap, &rng)
                                : workload->StockLevelRO(*snap, &rng);
        if (s.ok()) {
          ro_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          if (failures.fetch_add(1, std::memory_order_relaxed) == 0) {
            std::lock_guard<std::mutex> lock(failure_mu);
            first_failure = (order_status ? "OrderStatusRO: "
                                          : "StockLevelRO: ") +
                            s.ToString();
          }
        }
        order_status = !order_status;
      }
    });
  }

  tpcc::MixStats stats;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(workload->RunMix(1, &stats).ok());
    clock_.AdvanceMicros(2000);
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(failures.load(), 0) << first_failure;
  EXPECT_GT(ro_ok.load(), 0u);

  // The read path left no trace the auditor can see: the report must be
  // byte-identical to a quiescent run's — in particular, COMPLIANT.
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok())
      << (report.value().problems.empty() ? "?"
                                          : report.value().problems[0]);
}

}  // namespace
}  // namespace complydb

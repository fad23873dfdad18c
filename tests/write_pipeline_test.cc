// Epoch-based multi-writer commit pipeline: determinism, quiescence
// reporting, and crash recovery.
//
// The pipeline's contract is the same as PR 3's sync-vs-async identity,
// one level up: for the same slot schedule, the compliance log L must be
// byte-identical at any write_threads value, because the turnstile admits
// slots in ticket order and every L append happens inside a slot. The
// first test proves this at the file level (L and the stamp index) and
// compares the audit verdicts too. The crash test reuses the PR 3
// crash-window harness: kill the database mid-run (destructor without
// Close) with records queued behind a huge group-commit window, reopen,
// and require recovery plus a clean audit.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "audit/epoch_chain.h"
#include "compliance/compliance_log.h"
#include "db/compliant_db.h"
#include "numbered.h"
#include "test_dir.h"
#include "tpcc/workload.h"
#include "txn/slot_scheduler.h"

namespace complydb {
namespace {

using testutil::Numbered;

constexpr uint64_t kMinute = 60ull * 1'000'000;
constexpr uint64_t kHugeWindow = 10ull * kMinute;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The CI TSan job forces COMPLYDB_WRITE_THREADS=4 (and other jobs may
// force COMPLYDB_COMPLIANCE_ASYNC); these tests pin both per-options, so
// the fixture clears the env and restores it afterwards.
class WritePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name :
         {"COMPLYDB_WRITE_THREADS", "COMPLYDB_COMPLIANCE_ASYNC"}) {
      const char* env = std::getenv(name);
      saved_.emplace_back(name,
                          env != nullptr ? std::optional<std::string>(env)
                                         : std::nullopt);
      ::unsetenv(name);
    }
  }
  void TearDown() override {
    for (const auto& [name, value] : saved_) {
      if (value.has_value()) ::setenv(name.c_str(), value->c_str(), 1);
    }
  }

  DbOptions MakeOptions(const std::string& dir, uint32_t write_threads,
                        uint64_t window_micros = 200,
                        size_t cache_pages = 128) {
    DbOptions opts;
    opts.dir = dir;
    opts.cache_pages = cache_pages;
    opts.clock = clock_.get();
    opts.compliance.enabled = true;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    // Async in every arm: write_threads > 1 would force it anyway, and
    // byte comparison needs the single-writer arm on the same path.
    opts.compliance.async_shipping = true;
    opts.compliance.group_commit_window_micros = window_micros;
    opts.write_threads = write_threads;
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

  static tpcc::Scale SmallScale() {
    tpcc::Scale scale;
    scale.warehouses = 2;  // exercises remote NewOrder / Payment paths
    scale.customers_per_district = 20;
    scale.items = 200;
    scale.initial_orders_per_district = 10;
    return scale;
  }

  testutil::TestDir test_dir_{"write_pipeline_" + testutil::TestName()};
  std::unique_ptr<SimulatedClock> clock_ =
      std::make_unique<SimulatedClock>();
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

// The tentpole assertion: the same RunMixConcurrent schedule at
// write_threads 1 (serial engine, no pipeline), 2, and 4 produces a
// byte-identical compliance log and stamp index, identical mix stats,
// and the same clean audit verdict.
TEST_F(WritePipelineTest, LogBytesIdenticalAcrossWriteThreads) {
  const uint32_t kThreads[] = {1, 2, 4};
  const uint64_t kSlots = 150;
  std::string logs[3];
  std::string indexes[3];
  tpcc::MixStats stats[3];
  for (int i = 0; i < 3; ++i) {
    uint32_t wt = kThreads[i];
    std::string dir = FreshDir(Numbered("det_wt", wt));
    clock_ = std::make_unique<SimulatedClock>();  // identical stamps per run
    auto db = Open(MakeOptions(dir, wt));
    ASSERT_NE(db, nullptr);
    EXPECT_EQ(db->write_threads(), wt);
    EXPECT_EQ(db->write_pipeline() != nullptr, wt > 1);

    tpcc::Workload workload(db.get(), SmallScale(), /*seed=*/42);
    ASSERT_TRUE(workload.CreateOrAttachTables().ok());
    ASSERT_TRUE(workload.Load().ok());
    Status run = workload.RunMixConcurrent(kSlots, wt, clock_.get(),
                                           /*advance_micros=*/700, &stats[i]);
    ASSERT_TRUE(run.ok()) << run.ToString();
    EXPECT_EQ(stats[i].total(), kSlots);
    if (auto* pipeline = db->write_pipeline()) {
      EXPECT_EQ(pipeline->in_flight(), 0u);
      EXPECT_GT(pipeline->epochs(), 0u);
    }

    // Quiesce and capture L before the audit supersedes this epoch's
    // files.
    ASSERT_TRUE(db->FlushAll().ok());
    logs[i] = ReadFileBytes(dir + "/worm/" + LogFileName(0));
    indexes[i] = ReadFileBytes(dir + "/worm/" + StampIndexFileName(0));
    auto report = db->Audit();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report.value().ok())
        << "wt=" << wt
        << " audit failed; first problem: " << report.value().problems[0];
    ASSERT_TRUE(db->Close().ok());
  }
  ASSERT_FALSE(logs[0].empty());
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(logs[0], logs[i])
        << "L diverged: write_threads=1 vs " << kThreads[i];
    EXPECT_EQ(indexes[0], indexes[i])
        << "Lidx diverged: write_threads=1 vs " << kThreads[i];
    EXPECT_EQ(stats[0].new_order, stats[i].new_order);
    EXPECT_EQ(stats[0].payment, stats[i].payment);
    EXPECT_EQ(stats[0].delivery, stats[i].delivery);
    EXPECT_EQ(stats[0].rollbacks, stats[i].rollbacks);
  }
}

// PR 8's sealed chain must survive concurrent slot execution unchanged:
// with sealing deferred past the mix (large seal_min_bytes) and one
// quiescent SealEpochNow per arm, the chain file covers identical L
// prefixes and hashes to identical bytes at every thread count.
TEST_F(WritePipelineTest, SealedChainBytesIdenticalAcrossWriteThreads) {
  const uint32_t kThreads[] = {1, 2, 4};
  const uint64_t kSlots = 100;
  std::string chains[3];
  for (int i = 0; i < 3; ++i) {
    uint32_t wt = kThreads[i];
    std::string dir = FreshDir(Numbered("chain_wt", wt));
    clock_ = std::make_unique<SimulatedClock>();
    DbOptions opts = MakeOptions(dir, wt);
    // No mid-run seals: the leader's threshold is never reached, so the
    // single post-quiescence seal covers the same L range in every arm.
    opts.seal_min_bytes = 1ull << 40;
    auto db = Open(opts);
    ASSERT_NE(db, nullptr);

    tpcc::Workload workload(db.get(), SmallScale(), /*seed=*/7);
    ASSERT_TRUE(workload.CreateOrAttachTables().ok());
    ASSERT_TRUE(workload.Load().ok());
    tpcc::MixStats stats;
    Status run = workload.RunMixConcurrent(kSlots, wt, clock_.get(),
                                           /*advance_micros=*/700, &stats);
    ASSERT_TRUE(run.ok()) << run.ToString();
    ASSERT_TRUE(db->SealEpochNow().ok());
    ASSERT_TRUE(db->Close().ok());
    // Chain bytes are appended unflushed (the seal must not pay a filer
    // round trip); teardown drains them to disk.
    db.reset();
    chains[i] = ReadFileBytes(dir + "/worm/" + ChainFileName(0));
  }
  ASSERT_FALSE(chains[0].empty());
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(chains[0], chains[i])
        << "sealed chain diverged: write_threads=1 vs " << kThreads[i];
  }
}

// Forced total conflict: one warehouse means every slot declares the
// same partition, so the scheduler admits them one at a time — the run
// degenerates to the turnstile schedule (waits, not wrong answers).
TEST_F(WritePipelineTest, SingleWarehouseConflictDegeneratesSerial) {
  std::string dir = FreshDir("conflict");
  auto db = Open(MakeOptions(dir, /*write_threads=*/4));
  ASSERT_NE(db, nullptr);
  EXPECT_STREQ(db->scheduler_mode(), "disjoint");

  tpcc::Scale scale;
  scale.warehouses = 1;
  scale.customers_per_district = 20;
  scale.items = 200;
  scale.initial_orders_per_district = 10;
  tpcc::Workload workload(db.get(), scale, /*seed=*/11);
  ASSERT_TRUE(workload.CreateOrAttachTables().ok());
  ASSERT_TRUE(workload.Load().ok());
  tpcc::MixStats stats;
  Status run = workload.RunMixConcurrent(/*slots=*/120, /*threads=*/4,
                                         clock_.get(),
                                         /*advance_micros=*/700, &stats);
  ASSERT_TRUE(run.ok()) << run.ToString();
  EXPECT_EQ(stats.total(), 120u);

  ASSERT_NE(db->write_pipeline(), nullptr);
  SlotScheduler* sched = db->write_pipeline()->scheduler();
  ASSERT_NE(sched, nullptr);
  // Every slot declared the one warehouse: all concurrent-class, and the
  // shared partition forced real admission waits.
  EXPECT_EQ(sched->admitted_concurrent() + sched->footprint_fallbacks(),
            120u);
  EXPECT_GT(sched->conflict_waits(), 0u);
  EXPECT_EQ(db->write_pipeline()->in_flight(), 0u);

  auto report = db->Audit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
  ASSERT_TRUE(db->Close().ok());
}

// Crash after a concurrent TPC-C mix with records still queued behind a
// huge group-commit window: recovery must reconcile WAL-durable commits
// whose compliance tail died in the shipper ring, and the reopened
// database must audit clean and keep committing through the scheduler.
TEST_F(WritePipelineTest, CrashAfterConcurrentMixRecoversAndAuditsClean) {
  std::string dir = FreshDir("crash_mix");
  {
    auto db = Open(MakeOptions(dir, /*write_threads=*/4, kHugeWindow,
                               /*cache_pages=*/16));
    ASSERT_NE(db, nullptr);
    tpcc::Workload workload(db.get(), SmallScale(), /*seed=*/13);
    ASSERT_TRUE(workload.CreateOrAttachTables().ok());
    ASSERT_TRUE(workload.Load().ok());
    tpcc::MixStats stats;
    Status run = workload.RunMixConcurrent(/*slots=*/100, /*threads=*/4,
                                           clock_.get(),
                                           /*advance_micros=*/700, &stats);
    ASSERT_TRUE(run.ok()) << run.ToString();
    // Crash: destructor without Close drops the ring mid-epoch.
  }
  auto db = Open(MakeOptions(dir, /*write_threads=*/4, kHugeWindow,
                             /*cache_pages=*/16));
  ASSERT_NE(db, nullptr);
  EXPECT_TRUE(db->recovered_from_crash());
  tpcc::Workload workload(db.get(), SmallScale(), /*seed=*/13);
  ASSERT_TRUE(workload.CreateOrAttachTables().ok());
  tpcc::MixStats stats;
  Status run = workload.RunMixConcurrent(/*slots=*/20, /*threads=*/4,
                                         clock_.get(),
                                         /*advance_micros=*/700, &stats);
  ASSERT_TRUE(run.ok()) << run.ToString();
  auto report = db->Audit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
  ASSERT_TRUE(db->Close().ok());
}

// Bare Begin/Commit from many threads: each transaction gets an implicit
// slot, so callers that know nothing about slots still serialize
// correctly and keep durable-on-return semantics.
TEST_F(WritePipelineTest, ImplicitSlotsSerializeBareTransactions) {
  std::string dir = FreshDir("implicit");
  auto db = Open(MakeOptions(dir, /*write_threads=*/4));
  ASSERT_NE(db, nullptr);
  auto table = db->CreateTable("accounts");
  ASSERT_TRUE(table.ok());

  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 25;
  std::vector<std::thread> pool;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto txn = db->Begin();
        if (!txn.ok()) { ++failures; return; }
        std::string key = Numbered(Numbered("t", t) + "-k", i);
        if (!db->Put(txn.value(), table.value(), key, "v").ok() ||
            !db->Commit(txn.value()).ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_NE(db->write_pipeline(), nullptr);
  EXPECT_EQ(db->write_pipeline()->in_flight(), 0u);

  std::string value;
  EXPECT_TRUE(db->Get(table.value(), "t3-k24", &value).ok());
  auto report = db->Audit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
  ASSERT_TRUE(db->Close().ok());
}

// COMPLYDB_WRITE_THREADS overrides DbOptions.write_threads without a
// rebuild, and a multi-writer open forces async shipping (the epoch
// barrier requires the shipper's thread-safe FlushThrough).
TEST_F(WritePipelineTest, EnvVarOverridesWriteThreads) {
  {
    ::setenv("COMPLYDB_WRITE_THREADS", "4", 1);
    auto db = Open(MakeOptions(FreshDir("env_on"), /*write_threads=*/1));
    ASSERT_NE(db, nullptr);
    EXPECT_EQ(db->write_threads(), 4u);
    EXPECT_NE(db->write_pipeline(), nullptr);
    EXPECT_TRUE(db->compliance_logger()->options().async_shipping);
    EXPECT_STREQ(db->shipper_mode(), "async");
    ASSERT_TRUE(db->Close().ok());
  }
  {
    // Not a positive integer: the option stands.
    ::setenv("COMPLYDB_WRITE_THREADS", "bogus", 1);
    auto db = Open(MakeOptions(FreshDir("env_bogus"), /*write_threads=*/1));
    ASSERT_NE(db, nullptr);
    EXPECT_EQ(db->write_threads(), 1u);
    EXPECT_EQ(db->write_pipeline(), nullptr);
    ASSERT_TRUE(db->Close().ok());
  }
  ::unsetenv("COMPLYDB_WRITE_THREADS");
}

// The Audit Busy error names what is actually in the way: the open
// snapshot count and the in-flight writer count.
TEST_F(WritePipelineTest, AuditBusyReportsCounts) {
  std::string dir = FreshDir("busy");
  auto db = Open(MakeOptions(dir, /*write_threads=*/1));
  ASSERT_NE(db, nullptr);
  auto table = db->CreateTable("t");
  ASSERT_TRUE(table.ok());

  auto snap = db->BeginSnapshot();
  ASSERT_TRUE(snap.ok());
  auto while_snapshot = db->Audit();
  ASSERT_FALSE(while_snapshot.ok());
  EXPECT_TRUE(while_snapshot.status().IsBusy());
  EXPECT_NE(while_snapshot.status().ToString().find(
                "1 snapshots open, 0 writers in flight"),
            std::string::npos)
      << while_snapshot.status().ToString();
  delete snap.value();

  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  auto while_writing = db->Audit();
  ASSERT_FALSE(while_writing.ok());
  EXPECT_TRUE(while_writing.status().IsBusy());
  EXPECT_NE(while_writing.status().ToString().find(
                "0 snapshots open, 1 writers in flight"),
            std::string::npos)
      << while_writing.status().ToString();
  ASSERT_TRUE(db->Abort(txn.value()).ok());

  auto report = db->Audit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(db->Close().ok());
}

// Crash mid-epoch (PR 3's crash-window harness, multi-writer edition):
// a 4-writer run against a huge group-commit window, killed without
// Close while trailing records sit in the shipper ring. Recovery must
// re-announce WAL-durable commits whose STAMPs died with the ring, the
// post-crash database must keep working at write_threads=4, and the
// audit must come back clean.
TEST_F(WritePipelineTest, CrashMidEpochRecoversAndAuditsClean) {
  std::string dir = FreshDir("crash");
  uint32_t table = 0;
  {
    auto db = Open(MakeOptions(dir, /*write_threads=*/4, kHugeWindow,
                               /*cache_pages=*/16));
    ASSERT_NE(db, nullptr);
    auto t = db->CreateTable("crash");
    ASSERT_TRUE(t.ok());
    table = t.value();
    // The tiny cache evicts dirty pages mid-run, so the dependent-pwrite
    // barrier drains the ring repeatedly; the crash then takes whatever
    // queued after the last epoch barrier.
    std::vector<std::thread> pool;
    for (int w = 0; w < 4; ++w) {
      pool.emplace_back([&, w] {
        for (int i = 0; i < 50; ++i) {
          auto txn = db->Begin();
          ASSERT_TRUE(txn.ok());
          ASSERT_TRUE(db->Put(txn.value(), table,
                              Numbered(Numbered("w", w) + "-", i * 7919 % 400),
                              std::string(120, 'c'))
                          .ok());
          ASSERT_TRUE(db->Commit(txn.value()).ok());
        }
      });
    }
    for (auto& th : pool) th.join();
    // Crash: destructor without Close drops the ring mid-epoch.
  }
  auto db = Open(MakeOptions(dir, /*write_threads=*/4, kHugeWindow,
                             /*cache_pages=*/16));
  ASSERT_NE(db, nullptr);
  EXPECT_TRUE(db->recovered_from_crash());
  std::string value;
  EXPECT_TRUE(db->Get(table, Numbered("w2-", 12 * 7919 % 400), &value)
                  .ok());
  // The recovered database keeps committing through the pipeline.
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db->Put(txn.value(), table, "post-crash", "alive").ok());
  ASSERT_TRUE(db->Commit(txn.value()).ok());
  auto report = db->Audit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
  ASSERT_TRUE(db->Close().ok());
}

}  // namespace
}  // namespace complydb

// Parameterized configuration sweeps: the same TPC-C mini-workload must
// stay correct and audit-clean across buffer-cache sizes (eviction
// pressure), regret intervals, and compliance modes.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <tuple>

#include "test_dir.h"
#include "tpcc/workload.h"

namespace complydb {
namespace {

constexpr uint64_t kMinute = 60ull * 1'000'000;

using SweepParam = std::tuple<size_t /*cache_pages*/,
                              uint64_t /*regret_minutes*/,
                              bool /*hash_on_read*/, bool /*tsb*/,
                              size_t /*max_cached_baselines*/>;

class SweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SweepTest, TpccMiniStaysAuditClean) {
  auto [cache_pages, regret_minutes, hash_on_read, tsb, baseline_cap] =
      GetParam();
  testutil::TestDir test_dir(
      "sweep_" + std::to_string(cache_pages) + "_" +
      std::to_string(regret_minutes) + "_" + std::to_string(hash_on_read) +
      std::to_string(tsb) + "_" + std::to_string(baseline_cap));
  const std::string& dir = test_dir.path();

  SimulatedClock clock;
  DbOptions opts;
  opts.dir = dir;
  opts.cache_pages = cache_pages;
  opts.clock = &clock;
  opts.compliance.enabled = true;
  opts.compliance.hash_on_read = hash_on_read;
  opts.compliance.regret_interval_micros = regret_minutes * kMinute;
  opts.compliance.max_cached_pages = baseline_cap;
  opts.tsb_enabled = tsb;

  auto open = CompliantDB::Open(opts);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  std::unique_ptr<CompliantDB> db(open.value());

  tpcc::Scale scale;
  scale.warehouses = 1;
  scale.districts_per_warehouse = 2;
  scale.customers_per_district = 10;
  scale.items = 60;
  scale.initial_orders_per_district = 10;

  tpcc::Workload workload(db.get(), scale, /*seed=*/777);
  ASSERT_TRUE(workload.CreateOrAttachTables().ok());
  Status load = workload.Load();
  ASSERT_TRUE(load.ok()) << load.ToString();

  tpcc::MixStats stats;
  for (int i = 0; i < 120; ++i) {
    Status s = workload.RunMix(1, &stats);
    ASSERT_TRUE(s.ok()) << s.ToString() << " at txn " << i;
    clock.AdvanceMicros(regret_minutes * kMinute / 40);
  }

  // Consistency condition 1 must hold regardless of configuration.
  std::string raw;
  ASSERT_TRUE(
      db->Get(workload.tables().warehouse, tpcc::WarehouseKey(1), &raw).ok());
  tpcc::WarehouseRow warehouse;
  ASSERT_TRUE(tpcc::WarehouseRow::Decode(raw, &warehouse).ok());
  int64_t district_sum = 0;
  for (uint32_t d = 1; d <= scale.districts_per_warehouse; ++d) {
    ASSERT_TRUE(
        db->Get(workload.tables().district, tpcc::DistrictKey(1, d), &raw)
            .ok());
    tpcc::DistrictRow district;
    ASSERT_TRUE(tpcc::DistrictRow::Decode(raw, &district).ok());
    district_sum += district.ytd_cents;
  }
  EXPECT_EQ(warehouse.ytd_cents, district_sum);

  auto report = db->Audit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
  EXPECT_TRUE(db->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SweepTest,
    ::testing::Values(
        // Severe eviction pressure.
        SweepParam{16, 5, false, false, 0},
        SweepParam{16, 5, true, false, 0},
        // Moderate cache.
        SweepParam{64, 5, false, false, 0},
        SweepParam{64, 1, true, false, 0},
        SweepParam{64, 30, false, true, 0},
        // Everything cached.
        SweepParam{2048, 5, true, false, 0},
        SweepParam{2048, 5, false, true, 0},
        // Tiny regret interval under pressure.
        SweepParam{32, 1, true, true, 0},
        // Bounded logger baselines under every kind of pressure.
        SweepParam{16, 5, true, false, 8},
        SweepParam{64, 1, true, true, 4},
        SweepParam{32, 5, false, true, 2}));

}  // namespace
}  // namespace complydb

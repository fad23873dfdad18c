#include "tpcc/workload.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "test_dir.h"

namespace complydb {
namespace tpcc {
namespace {

constexpr uint64_t kMinute = 60ull * 1'000'000;

class TpccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir_.Reset("tpcc_" + testutil::TestName());
  }

  DbOptions MakeOptions(bool compliance = true) {
    DbOptions opts;
    opts.dir = dir_;
    opts.cache_pages = 512;
    opts.clock = &clock_;
    opts.compliance.enabled = compliance;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    return opts;
  }

  Scale SmallScale() {
    Scale scale;
    scale.warehouses = 1;
    scale.districts_per_warehouse = 3;
    scale.customers_per_district = 12;
    scale.items = 100;
    scale.initial_orders_per_district = 12;
    return scale;
  }

  void OpenAndLoad(const DbOptions& opts, const Scale& scale) {
    auto r = CompliantDB::Open(opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    db_.reset(r.value());
    workload_ = std::make_unique<Workload>(db_.get(), scale, 42);
    ASSERT_TRUE(workload_->CreateOrAttachTables().ok());
    Status s = workload_->Load();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  // TPC-C consistency condition 1: W_YTD == sum of its districts' D_YTD.
  void CheckYtdConsistency(uint32_t w) {
    std::string raw;
    ASSERT_TRUE(
        db_->Get(workload_->tables().warehouse, WarehouseKey(w), &raw).ok());
    WarehouseRow warehouse;
    ASSERT_TRUE(WarehouseRow::Decode(raw, &warehouse).ok());
    int64_t district_sum = 0;
    for (uint32_t d = 1; d <= workload_->scale().districts_per_warehouse;
         ++d) {
      ASSERT_TRUE(
          db_->Get(workload_->tables().district, DistrictKey(w, d), &raw)
              .ok());
      DistrictRow district;
      ASSERT_TRUE(DistrictRow::Decode(raw, &district).ok());
      district_sum += district.ytd_cents;
    }
    EXPECT_EQ(warehouse.ytd_cents, district_sum);
  }

  SimulatedClock clock_;
  testutil::TestDir test_dir_;
  std::string dir_;
  std::unique_ptr<CompliantDB> db_;
  std::unique_ptr<Workload> workload_;
};

TEST_F(TpccTest, LoadPopulatesAllRelations) {
  OpenAndLoad(MakeOptions(), SmallScale());
  const auto& t = workload_->tables();
  std::string raw;
  ASSERT_TRUE(db_->Get(t.warehouse, WarehouseKey(1), &raw).ok());
  ASSERT_TRUE(db_->Get(t.district, DistrictKey(1, 3), &raw).ok());
  ASSERT_TRUE(db_->Get(t.customer, CustomerKey(1, 2, 5), &raw).ok());
  ASSERT_TRUE(db_->Get(t.item, ItemKey(77), &raw).ok());
  ASSERT_TRUE(db_->Get(t.stock, StockKey(1, 77), &raw).ok());
  ASSERT_TRUE(db_->Get(t.order, OrderKey(1, 1, 1), &raw).ok());

  DistrictRow district;
  ASSERT_TRUE(db_->Get(t.district, DistrictKey(1, 1), &raw).ok());
  ASSERT_TRUE(DistrictRow::Decode(raw, &district).ok());
  EXPECT_EQ(district.next_o_id, 13u);  // initial orders + 1
}

TEST_F(TpccTest, NewOrderAdvancesDistrictAndWritesLines) {
  OpenAndLoad(MakeOptions(), SmallScale());
  const auto& t = workload_->tables();

  std::string raw;
  ASSERT_TRUE(db_->Get(t.district, DistrictKey(1, 1), &raw).ok());
  DistrictRow before;
  ASSERT_TRUE(DistrictRow::Decode(raw, &before).ok());

  // Run NewOrders until one lands in district 1 and commits.
  uint32_t landed = 0;
  for (int i = 0; i < 200 && landed == 0; ++i) {
    bool committed = false;
    ASSERT_TRUE(workload_->NewOrder(&committed).ok());
    if (!committed) continue;
    ASSERT_TRUE(db_->Get(t.district, DistrictKey(1, 1), &raw).ok());
    DistrictRow after;
    ASSERT_TRUE(DistrictRow::Decode(raw, &after).ok());
    if (after.next_o_id > before.next_o_id) landed = after.next_o_id - 1;
  }
  ASSERT_GT(landed, 0u);

  ASSERT_TRUE(db_->Get(t.order, OrderKey(1, 1, landed), &raw).ok());
  OrderRow order;
  ASSERT_TRUE(OrderRow::Decode(raw, &order).ok());
  EXPECT_GE(order.ol_cnt, 1u);
  ASSERT_TRUE(db_->Get(t.order_line, OrderLineKey(1, 1, landed, 1), &raw).ok());
  ASSERT_TRUE(db_->Get(t.new_order, NewOrderKey(1, 1, landed), &raw).ok());
}

TEST_F(TpccTest, PaymentMaintainsYtdConsistency) {
  OpenAndLoad(MakeOptions(), SmallScale());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(workload_->Payment().ok());
  }
  CheckYtdConsistency(1);
}

TEST_F(TpccTest, DeliveryClearsOldestNewOrders) {
  OpenAndLoad(MakeOptions(), SmallScale());
  const auto& t = workload_->tables();
  // The loader leaves the last third of initial orders undelivered;
  // district 1's oldest undelivered order is o_id 9 (of 12).
  std::string raw;
  ASSERT_TRUE(db_->Get(t.new_order, NewOrderKey(1, 1, 9), &raw).ok());
  ASSERT_TRUE(workload_->Delivery().ok());
  EXPECT_TRUE(db_->Get(t.new_order, NewOrderKey(1, 1, 9), &raw).IsNotFound());
  ASSERT_TRUE(db_->Get(t.order, OrderKey(1, 1, 9), &raw).ok());
  OrderRow order;
  ASSERT_TRUE(OrderRow::Decode(raw, &order).ok());
  EXPECT_GT(order.carrier_id, 0u);
}

TEST_F(TpccTest, ReadOnlyTransactionsSucceed) {
  OpenAndLoad(MakeOptions(), SmallScale());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(workload_->OrderStatus().ok());
    ASSERT_TRUE(workload_->StockLevel().ok());
  }
}

TEST_F(TpccTest, MixRunsAndAuditPasses) {
  OpenAndLoad(MakeOptions(), SmallScale());
  MixStats stats;
  Status s = workload_->RunMix(300, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(stats.total(), 300u);
  EXPECT_EQ(stats.new_order, 135u);  // exact deck proportions
  EXPECT_EQ(stats.payment, 129u);
  CheckYtdConsistency(1);

  auto report = db_->Audit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
  EXPECT_GT(report.value().tuples_checked, 1000u);
}

TEST_F(TpccTest, MixWithRegretIntervalsAndCrash) {
  OpenAndLoad(MakeOptions(), SmallScale());
  MixStats stats;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(workload_->RunMix(60, &stats).ok());
    ASSERT_TRUE(db_->AdvanceClock(5 * kMinute + 1).ok());
  }
  // Crash and recover; the audit must still pass.
  db_.reset();
  auto r = CompliantDB::Open(MakeOptions());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  db_.reset(r.value());
  EXPECT_TRUE(db_->recovered_from_crash());
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
}

TEST_F(TpccTest, MixUnderTsbMigration) {
  DbOptions opts = MakeOptions();
  opts.tsb_enabled = true;
  opts.tsb_split_threshold = 0.5;
  OpenAndLoad(opts, SmallScale());
  MixStats stats;
  ASSERT_TRUE(workload_->RunMix(400, &stats).ok());
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
}

TEST_F(TpccTest, NewOrderRollbackRateRoughlyOnePercent) {
  OpenAndLoad(MakeOptions(false), SmallScale());
  uint64_t rollbacks = 0;
  const int kRuns = 600;
  for (int i = 0; i < kRuns; ++i) {
    bool committed = false;
    ASSERT_TRUE(workload_->NewOrder(&committed).ok());
    if (!committed) ++rollbacks;
  }
  EXPECT_GT(rollbacks, 0u);
  EXPECT_LT(rollbacks, kRuns / 20);  // ~1%, generously bounded
}

TEST_F(TpccTest, MultiWarehouseRemotePathsAuditClean) {
  // Two warehouses: remote Payments (15%) and remote NewOrder stock
  // updates (1%) cross warehouse boundaries; everything stays
  // audit-clean and consistent per warehouse.
  Scale scale = SmallScale();
  scale.warehouses = 2;
  OpenAndLoad(MakeOptions(), scale);
  MixStats stats;
  Status s = workload_->RunMix(300, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  CheckYtdConsistency(1);
  CheckYtdConsistency(2);
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
}

TEST_F(TpccTest, CustomerByNameIndexAgreesWithTable) {
  OpenAndLoad(MakeOptions(), SmallScale());
  const auto& t = workload_->tables();
  ASSERT_NE(t.customer_by_name, 0u);
  // Every customer row must be reachable through its name index entry.
  size_t rows = 0;
  size_t indexed = 0;
  ASSERT_TRUE(db_->ScanCurrent(t.customer, "", "",
                               [&](const TupleData&) {
                                 ++rows;
                                 return Status::OK();
                               })
                  .ok());
  for (uint32_t w = 1; w <= workload_->scale().warehouses; ++w) {
    for (uint32_t d = 1; d <= workload_->scale().districts_per_warehouse;
         ++d) {
      for (int n = 0; n < 10; ++n) {
        char prefix[20];
        std::snprintf(prefix, sizeof(prefix), "%08x%08x", w, d);
        std::string secondary =
            std::string(prefix) + "NAME" + std::to_string(n);
        ASSERT_TRUE(db_->ScanIndex(t.customer_by_name, secondary,
                                   [&](Slice) {
                                     ++indexed;
                                     return Status::OK();
                                   })
                        .ok());
      }
    }
  }
  EXPECT_EQ(indexed, rows);
}

}  // namespace
}  // namespace tpcc
}  // namespace complydb

// TPC-C schema unit tests: row codec round-trips and composite-key
// ordering properties (big-endian encodings must sort numerically).

#include "tpcc/schema.h"

#include <gtest/gtest.h>

#include "tpcc/tpcc_random.h"

namespace complydb {
namespace tpcc {
namespace {

TEST(TpccSchemaTest, WarehouseRowRoundTrip) {
  WarehouseRow row;
  row.name = "warehouse-7";
  row.tax_bp = 1250;
  row.ytd_cents = -42;  // signed fields survive
  WarehouseRow back;
  ASSERT_TRUE(WarehouseRow::Decode(row.Encode(), &back).ok());
  EXPECT_EQ(back.name, row.name);
  EXPECT_EQ(back.tax_bp, row.tax_bp);
  EXPECT_EQ(back.ytd_cents, row.ytd_cents);
}

TEST(TpccSchemaTest, DistrictRowRoundTrip) {
  DistrictRow row;
  row.name = "d";
  row.tax_bp = 99;
  row.ytd_cents = 123456789;
  row.next_o_id = 3001;
  DistrictRow back;
  ASSERT_TRUE(DistrictRow::Decode(row.Encode(), &back).ok());
  EXPECT_EQ(back.next_o_id, 3001u);
  EXPECT_EQ(back.ytd_cents, row.ytd_cents);
}

TEST(TpccSchemaTest, CustomerRowRoundTrip) {
  CustomerRow row;
  row.w = 3;
  row.d = 7;
  row.last_name = "BARBARBAR";
  // Assigned from a temporary: GCC 12 misreports assigning the literal
  // as a read of uninitialized bytes (-Wmaybe-uninitialized).
  row.credit = std::string("BC");
  row.balance_cents = -987654;
  row.ytd_payment_cents = 1000;
  row.payment_cnt = 17;
  row.delivery_cnt = 3;
  row.data = std::string(300, 'd');
  CustomerRow back;
  ASSERT_TRUE(CustomerRow::Decode(row.Encode(), &back).ok());
  EXPECT_EQ(back.w, 3u);
  EXPECT_EQ(back.d, 7u);
  EXPECT_EQ(back.last_name, row.last_name);
  EXPECT_EQ(back.balance_cents, row.balance_cents);
  EXPECT_EQ(back.data, row.data);
}

TEST(TpccSchemaTest, OrderAndLineRoundTrip) {
  OrderRow order;
  order.c_id = 42;
  order.entry_d = 1'000'000;
  order.carrier_id = 5;
  order.ol_cnt = 11;
  order.all_local = false;
  OrderRow order_back;
  ASSERT_TRUE(OrderRow::Decode(order.Encode(), &order_back).ok());
  EXPECT_EQ(order_back.c_id, 42u);
  EXPECT_FALSE(order_back.all_local);

  OrderLineRow line;
  line.i_id = 77;
  line.supply_w = 2;
  line.quantity = 9;
  line.amount_cents = 12345;
  line.delivery_d = 0;
  line.dist_info = std::string(24, 'x');
  OrderLineRow line_back;
  ASSERT_TRUE(OrderLineRow::Decode(line.Encode(), &line_back).ok());
  EXPECT_EQ(line_back.i_id, 77u);
  EXPECT_EQ(line_back.amount_cents, 12345);
}

TEST(TpccSchemaTest, ItemAndStockRoundTrip) {
  ItemRow item;
  item.name = "widget";
  item.price_cents = 999;
  item.data = "ORIGINAL";
  ItemRow item_back;
  ASSERT_TRUE(ItemRow::Decode(item.Encode(), &item_back).ok());
  EXPECT_EQ(item_back.price_cents, 999);

  StockRow stock;
  stock.quantity = -5;  // can go negative pending restock in some variants
  stock.ytd = 1000;
  stock.order_cnt = 12;
  stock.remote_cnt = 1;
  stock.dist_info = std::string(24, 's');
  StockRow stock_back;
  ASSERT_TRUE(StockRow::Decode(stock.Encode(), &stock_back).ok());
  EXPECT_EQ(stock_back.quantity, -5);
  EXPECT_EQ(stock_back.remote_cnt, 1u);
}

TEST(TpccSchemaTest, DecodersRejectTruncation) {
  CustomerRow row;
  row.last_name = "X";
  std::string bytes = row.Encode();
  for (size_t cut : {size_t{0}, size_t{3}, bytes.size() - 1}) {
    CustomerRow back;
    EXPECT_FALSE(
        CustomerRow::Decode(Slice(bytes.data(), cut), &back).ok());
  }
}

TEST(TpccSchemaTest, CompositeKeysSortNumerically) {
  // Lexicographic byte order of the big-endian composite keys must match
  // numeric order on every component.
  EXPECT_LT(OrderKey(1, 1, 9), OrderKey(1, 1, 10));
  EXPECT_LT(OrderKey(1, 9, 1), OrderKey(1, 10, 1));
  EXPECT_LT(OrderKey(9, 1, 1), OrderKey(10, 1, 1));
  EXPECT_LT(OrderLineKey(1, 1, 5, 15), OrderLineKey(1, 1, 6, 1));
  EXPECT_LT(CustomerKey(1, 2, 3), CustomerKey(1, 2, 4));
  EXPECT_LT(StockKey(1, 99999), StockKey(2, 1));
  // An order's lines are contiguous under the next order's range.
  EXPECT_LT(OrderLineKey(1, 1, 5, 9999), OrderLineKey(1, 1, 6, 0));
}

TEST(TpccSchemaTest, NURandSkewsSelection) {
  // The NURand item distribution must be visibly non-uniform: the hottest
  // decile should draw well above 10% of selections.
  TpccRandom rng(123);
  constexpr uint32_t kItems = 1000;
  std::vector<uint32_t> counts(kItems + 1, 0);
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    uint32_t item = rng.ItemId(kItems);
    ASSERT_GE(item, 1u);
    ASSERT_LE(item, kItems);
    ++counts[item];
  }
  std::sort(counts.begin(), counts.end(), std::greater<uint32_t>());
  uint64_t hottest_decile = 0;
  for (size_t i = 0; i < kItems / 10; ++i) hottest_decile += counts[i];
  EXPECT_GT(hottest_decile, kDraws / 5)
      << "NURand should concentrate >20% of draws in the hottest 10%";
}

}  // namespace
}  // namespace tpcc
}  // namespace complydb

#include "tpcc/schema.h"

#include "common/coding.h"

namespace complydb {
namespace tpcc {

std::string WarehouseKey(uint32_t w) {
  std::string k;
  PutBigEndian32(&k, w);
  return k;
}

std::string DistrictKey(uint32_t w, uint32_t d) {
  std::string k;
  PutBigEndian32(&k, w);
  PutBigEndian32(&k, d);
  return k;
}

std::string CustomerKey(uint32_t w, uint32_t d, uint32_t c) {
  std::string k;
  PutBigEndian32(&k, w);
  PutBigEndian32(&k, d);
  PutBigEndian32(&k, c);
  return k;
}

std::string HistoryKey(uint32_t w, uint32_t d, uint32_t c, uint64_t seq) {
  std::string k;
  PutBigEndian32(&k, w);
  PutBigEndian32(&k, d);
  PutBigEndian32(&k, c);
  PutBigEndian64(&k, seq);
  return k;
}

std::string NewOrderKey(uint32_t w, uint32_t d, uint32_t o) {
  std::string k;
  PutBigEndian32(&k, w);
  PutBigEndian32(&k, d);
  PutBigEndian32(&k, o);
  return k;
}

std::string OrderKey(uint32_t w, uint32_t d, uint32_t o) {
  return NewOrderKey(w, d, o);
}

std::string OrderLineKey(uint32_t w, uint32_t d, uint32_t o, uint32_t ol) {
  std::string k;
  PutBigEndian32(&k, w);
  PutBigEndian32(&k, d);
  PutBigEndian32(&k, o);
  PutBigEndian32(&k, ol);
  return k;
}

std::string ItemKey(uint32_t i) {
  std::string k;
  PutBigEndian32(&k, i);
  return k;
}

std::string StockKey(uint32_t w, uint32_t i) {
  std::string k;
  PutBigEndian32(&k, w);
  PutBigEndian32(&k, i);
  return k;
}

std::string CustomerLastOrderKey(uint32_t w, uint32_t d, uint32_t c) {
  return CustomerKey(w, d, c);
}

// --- row codecs ---

std::string WarehouseRow::Encode() const {
  std::string out;
  PutLengthPrefixed(&out, name);
  PutFixed64(&out, static_cast<uint64_t>(tax_bp));
  PutFixed64(&out, static_cast<uint64_t>(ytd_cents));
  return out;
}

Status WarehouseRow::Decode(Slice data, WarehouseRow* out) {
  Decoder dec(data);
  CDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->name));
  uint64_t v = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&v));
  out->tax_bp = static_cast<int64_t>(v);
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&v));
  out->ytd_cents = static_cast<int64_t>(v);
  return Status::OK();
}

std::string DistrictRow::Encode() const {
  std::string out;
  PutLengthPrefixed(&out, name);
  PutFixed64(&out, static_cast<uint64_t>(tax_bp));
  PutFixed64(&out, static_cast<uint64_t>(ytd_cents));
  PutFixed32(&out, next_o_id);
  return out;
}

Status DistrictRow::Decode(Slice data, DistrictRow* out) {
  Decoder dec(data);
  CDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->name));
  uint64_t v = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&v));
  out->tax_bp = static_cast<int64_t>(v);
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&v));
  out->ytd_cents = static_cast<int64_t>(v);
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->next_o_id));
  return Status::OK();
}

std::string CustomerRow::Encode() const {
  std::string out;
  PutFixed32(&out, w);
  PutFixed32(&out, d);
  PutLengthPrefixed(&out, last_name);
  PutLengthPrefixed(&out, credit);
  PutFixed64(&out, static_cast<uint64_t>(balance_cents));
  PutFixed64(&out, static_cast<uint64_t>(ytd_payment_cents));
  PutFixed32(&out, payment_cnt);
  PutFixed32(&out, delivery_cnt);
  PutLengthPrefixed(&out, data);
  return out;
}

Status CustomerRow::Decode(Slice data_in, CustomerRow* out) {
  Decoder dec(data_in);
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->w));
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->d));
  CDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->last_name));
  CDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->credit));
  uint64_t v = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&v));
  out->balance_cents = static_cast<int64_t>(v);
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&v));
  out->ytd_payment_cents = static_cast<int64_t>(v);
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->payment_cnt));
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->delivery_cnt));
  CDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->data));
  return Status::OK();
}

std::string HistoryRow::Encode() const {
  std::string out;
  PutFixed32(&out, c_w);
  PutFixed32(&out, c_d);
  PutFixed32(&out, c_id);
  PutFixed64(&out, static_cast<uint64_t>(amount_cents));
  PutFixed64(&out, date);
  PutLengthPrefixed(&out, data);
  return out;
}

Status HistoryRow::Decode(Slice data_in, HistoryRow* out) {
  Decoder dec(data_in);
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->c_w));
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->c_d));
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->c_id));
  uint64_t v = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&v));
  out->amount_cents = static_cast<int64_t>(v);
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->date));
  CDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->data));
  return Status::OK();
}

std::string OrderRow::Encode() const {
  std::string out;
  PutFixed32(&out, c_id);
  PutFixed64(&out, entry_d);
  PutFixed32(&out, carrier_id);
  PutFixed32(&out, ol_cnt);
  out.push_back(all_local ? 1 : 0);
  return out;
}

Status OrderRow::Decode(Slice data, OrderRow* out) {
  Decoder dec(data);
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->c_id));
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->entry_d));
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->carrier_id));
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->ol_cnt));
  uint8_t flag = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed8(&flag));
  out->all_local = flag != 0;
  return Status::OK();
}

std::string OrderLineRow::Encode() const {
  std::string out;
  PutFixed32(&out, i_id);
  PutFixed32(&out, supply_w);
  PutFixed32(&out, quantity);
  PutFixed64(&out, static_cast<uint64_t>(amount_cents));
  PutFixed64(&out, delivery_d);
  PutLengthPrefixed(&out, dist_info);
  return out;
}

Status OrderLineRow::Decode(Slice data, OrderLineRow* out) {
  Decoder dec(data);
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->i_id));
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->supply_w));
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->quantity));
  uint64_t v = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&v));
  out->amount_cents = static_cast<int64_t>(v);
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->delivery_d));
  CDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->dist_info));
  return Status::OK();
}

std::string ItemRow::Encode() const {
  std::string out;
  PutLengthPrefixed(&out, name);
  PutFixed64(&out, static_cast<uint64_t>(price_cents));
  PutLengthPrefixed(&out, data);
  return out;
}

Status ItemRow::Decode(Slice data_in, ItemRow* out) {
  Decoder dec(data_in);
  CDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->name));
  uint64_t v = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&v));
  out->price_cents = static_cast<int64_t>(v);
  CDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->data));
  return Status::OK();
}

std::string StockRow::Encode() const {
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(quantity));
  PutFixed64(&out, static_cast<uint64_t>(ytd));
  PutFixed32(&out, order_cnt);
  PutFixed32(&out, remote_cnt);
  PutLengthPrefixed(&out, dist_info);
  return out;
}

Status StockRow::Decode(Slice data, StockRow* out) {
  Decoder dec(data);
  uint32_t q = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&q));
  out->quantity = static_cast<int32_t>(q);
  uint64_t v = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&v));
  out->ytd = static_cast<int64_t>(v);
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->order_cnt));
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->remote_cnt));
  CDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->dist_info));
  return Status::OK();
}

}  // namespace tpcc
}  // namespace complydb

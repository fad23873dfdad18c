#include "btree/tuple.h"

#include "common/coding.h"

namespace complydb {

namespace {
constexpr uint8_t kFlagEol = 0x1;
constexpr uint8_t kFlagStamped = 0x2;
}  // namespace

std::string TupleData::IdentityBytes(uint32_t tree_id,
                                     uint64_t commit_start) const {
  std::string out;
  PutFixed32(&out, tree_id);
  PutFixed64(&out, commit_start);
  out.push_back(eol ? 1 : 0);
  PutLengthPrefixed(&out, key);
  PutLengthPrefixed(&out, value);
  return out;
}

std::string EncodeTuple(const TupleData& t) {
  std::string rec;
  size_t total = 2 + 1 + 2 + 8 + 2 + t.key.size() + t.value.size();
  PutFixed16(&rec, static_cast<uint16_t>(total));
  uint8_t flags = 0;
  if (t.eol) flags |= kFlagEol;
  if (t.stamped) flags |= kFlagStamped;
  rec.push_back(static_cast<char>(flags));
  PutFixed16(&rec, t.order_no);
  PutFixed64(&rec, t.start);
  PutFixed16(&rec, static_cast<uint16_t>(t.key.size()));
  rec += t.key;
  rec += t.value;
  return rec;
}

Status DecodeTuple(Slice record, TupleData* out) {
  Decoder dec(record);
  uint16_t rec_len = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed16(&rec_len));
  if (rec_len != record.size()) return Status::Corruption("tuple rec_len");
  uint8_t flags = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed8(&flags));
  out->eol = (flags & kFlagEol) != 0;
  out->stamped = (flags & kFlagStamped) != 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed16(&out->order_no));
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->start));
  uint16_t key_len = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed16(&key_len));
  CDB_RETURN_IF_ERROR(dec.GetBytes(key_len, &out->key));
  CDB_RETURN_IF_ERROR(dec.GetBytes(dec.remaining(), &out->value));
  return Status::OK();
}

std::string EncodeIndexEntry(const IndexEntry& e) {
  std::string rec;
  size_t total = 2 + 4 + 8 + 2 + e.key.size();
  PutFixed16(&rec, static_cast<uint16_t>(total));
  PutFixed32(&rec, e.child);
  PutFixed64(&rec, e.start);
  PutFixed16(&rec, static_cast<uint16_t>(e.key.size()));
  rec += e.key;
  return rec;
}

Status DecodeIndexEntry(Slice record, IndexEntry* out) {
  Decoder dec(record);
  uint16_t rec_len = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed16(&rec_len));
  if (rec_len != record.size()) return Status::Corruption("index rec_len");
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->child));
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->start));
  uint16_t key_len = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed16(&key_len));
  CDB_RETURN_IF_ERROR(dec.GetBytes(key_len, &out->key));
  return Status::OK();
}

Status DecodeTupleKey(Slice record, Slice* key, uint64_t* start) {
  // rec_len u16 | flags u8 | order_no u16 | start u64 | key_len u16 | key...
  if (record.size() < 15) return Status::Corruption("tuple too short");
  *start = DecodeFixed64(record.data() + 5);
  uint16_t key_len = DecodeFixed16(record.data() + 13);
  if (15 + static_cast<size_t>(key_len) > record.size()) {
    return Status::Corruption("tuple key overflows record");
  }
  *key = Slice(record.data() + 15, key_len);
  return Status::OK();
}

Status DecodeIndexEntryKey(Slice record, Slice* key, uint64_t* start,
                           PageId* child) {
  // rec_len u16 | child u32 | start u64 | key_len u16 | key
  if (record.size() < 16) return Status::Corruption("index entry too short");
  *child = DecodeFixed32(record.data() + 2);
  *start = DecodeFixed64(record.data() + 6);
  uint16_t key_len = DecodeFixed16(record.data() + 14);
  if (16 + static_cast<size_t>(key_len) > record.size()) {
    return Status::Corruption("index key overflows record");
  }
  *key = Slice(record.data() + 16, key_len);
  return Status::OK();
}

int CompareVersion(Slice key_a, uint64_t start_a, Slice key_b,
                   uint64_t start_b) {
  int c = key_a.compare(key_b);
  if (c != 0) return c;
  if (start_a < start_b) return -1;
  if (start_a > start_b) return 1;
  return 0;
}

}  // namespace complydb

#include "compliance/records.h"

#include "common/coding.h"
#include "common/crc32.h"

namespace complydb {

namespace {

void PutStringList(std::string* dst, const std::vector<std::string>& list) {
  PutFixed32(dst, static_cast<uint32_t>(list.size()));
  for (const auto& s : list) PutLengthPrefixed(dst, s);
}

Status GetStringList(Decoder* dec, std::vector<std::string>* out) {
  uint32_t n = 0;
  CDB_RETURN_IF_ERROR(dec->GetFixed32(&n));
  if (n > 1u << 20) return Status::Corruption("crecord list too long");
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string s;
    CDB_RETURN_IF_ERROR(dec->GetLengthPrefixed(&s));
    out->push_back(std::move(s));
  }
  return Status::OK();
}

}  // namespace

void CRecord::EncodeTo(std::string* dst) const {
  const size_t frame = BeginFrame(dst);
  dst->push_back(static_cast<char>(type));
  PutFixed32(dst, tree_id);
  PutFixed32(dst, pgno);
  PutFixed32(dst, new_pgno);
  PutFixed32(dst, third_pgno);
  PutFixed64(dst, txn_id);
  PutFixed64(dst, commit_time);
  PutFixed64(dst, timestamp);
  PutFixed16(dst, order_no);
  PutFixed64(dst, start);
  PutLengthPrefixed(dst, tuple);
  PutLengthPrefixed(dst, key);
  PutLengthPrefixed(dst, hash);
  PutLengthPrefixed(dst, name);
  PutStringList(dst, entries_a);
  PutStringList(dst, entries_b);
  EndFrame(dst, frame);
}

std::string CRecord::Encode() const {
  std::string framed;
  EncodeTo(&framed);
  return framed;
}

Status CRecord::Decode(Slice input, CRecord* out, size_t* consumed) {
  Decoder frame(input);
  uint32_t len = 0;
  uint32_t crc = 0;
  CDB_RETURN_IF_ERROR(frame.GetFixed32(&len));
  CDB_RETURN_IF_ERROR(frame.GetFixed32(&crc));
  if (frame.remaining() < len) {
    return Status::Corruption("compliance record truncated");
  }
  Slice payload(input.data() + 8, len);
  if (Crc32(payload) != crc) {
    return Status::Corruption("compliance record bad crc");
  }
  Decoder dec(payload);
  uint8_t type_byte = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed8(&type_byte));
  out->type = static_cast<CRecordType>(type_byte);
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->tree_id));
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->pgno));
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->new_pgno));
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&out->third_pgno));
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->txn_id));
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->commit_time));
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->timestamp));
  CDB_RETURN_IF_ERROR(dec.GetFixed16(&out->order_no));
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->start));
  CDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->tuple));
  CDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->key));
  CDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->hash));
  CDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->name));
  CDB_RETURN_IF_ERROR(GetStringList(&dec, &out->entries_a));
  CDB_RETURN_IF_ERROR(GetStringList(&dec, &out->entries_b));
  *consumed = 8 + len;
  return Status::OK();
}

Status ScanCRecords(
    Slice data,
    const std::function<Status(const CRecord&, uint64_t offset)>& fn) {
  size_t off = 0;
  while (off < data.size()) {
    CRecord rec;
    size_t consumed = 0;
    CDB_RETURN_IF_ERROR(CRecord::Decode(
        Slice(data.data() + off, data.size() - off), &rec, &consumed));
    CDB_RETURN_IF_ERROR(fn(rec, off));
    off += consumed;
  }
  return Status::OK();
}

}  // namespace complydb

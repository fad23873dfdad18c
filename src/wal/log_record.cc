#include "wal/log_record.h"

#include "common/coding.h"
#include "common/crc32.h"

namespace complydb {

void WalRecord::EncodeTo(std::string* dst) const {
  const size_t frame = BeginFrame(dst);
  dst->push_back(static_cast<char>(type));
  PutFixed64(dst, prev_lsn);
  PutFixed64(dst, txn_id);
  PutFixed32(dst, pgno);
  PutFixed32(dst, tree_id);
  PutFixed16(dst, order_no);
  PutFixed64(dst, commit_time);
  PutFixed64(dst, undo_next);
  PutLengthPrefixed(dst, tuple);
  PutLengthPrefixed(dst, page_image);
  EndFrame(dst, frame);
}

std::string WalRecord::Encode() const {
  std::string framed;
  EncodeTo(&framed);
  return framed;
}

Status WalRecord::Decode(Slice input, WalRecord* out, size_t* consumed) {
  Decoder dec(input);
  uint32_t len = 0;
  uint32_t crc = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&len));
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&crc));
  if (dec.remaining() < len) return Status::Corruption("wal: truncated record");
  Slice payload(input.data() + 8, len);
  if (Crc32(payload) != crc) return Status::Corruption("wal: bad record crc");

  Decoder body(payload);
  uint8_t type_byte = 0;
  CDB_RETURN_IF_ERROR(body.GetFixed8(&type_byte));
  out->type = static_cast<WalRecordType>(type_byte);
  CDB_RETURN_IF_ERROR(body.GetFixed64(&out->prev_lsn));
  CDB_RETURN_IF_ERROR(body.GetFixed64(&out->txn_id));
  CDB_RETURN_IF_ERROR(body.GetFixed32(&out->pgno));
  CDB_RETURN_IF_ERROR(body.GetFixed32(&out->tree_id));
  CDB_RETURN_IF_ERROR(body.GetFixed16(&out->order_no));
  CDB_RETURN_IF_ERROR(body.GetFixed64(&out->commit_time));
  CDB_RETURN_IF_ERROR(body.GetFixed64(&out->undo_next));
  CDB_RETURN_IF_ERROR(body.GetLengthPrefixed(&out->tuple));
  CDB_RETURN_IF_ERROR(body.GetLengthPrefixed(&out->page_image));

  *consumed = 8 + len;
  return Status::OK();
}

}  // namespace complydb

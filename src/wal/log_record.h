#ifndef COMPLYDB_WAL_LOG_RECORD_H_
#define COMPLYDB_WAL_LOG_RECORD_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "storage/page.h"

namespace complydb {

using TxnId = uint64_t;

/// Transaction-log record types (ARIES-lite).
///
/// Tuple-level records are physiological: they name a page and carry the
/// full tuple bytes, so redo re-inserts and undo removes by content.
/// Structure modifications (splits, root growth, page formats) are logged
/// as redo-only full page images and are never undone — in a
/// transaction-time store a split survives even if the transaction that
/// triggered it aborts.
enum class WalRecordType : uint8_t {
  kBegin = 1,
  kCommit = 2,
  kAbort = 3,       // abort decided (undo follows)
  kEnd = 4,         // undo complete
  kTupleInsert = 5, // redo: insert tuple on page; undo: remove it
  kTupleRemove = 6, // redo: remove tuple from page; undo: re-insert (vacuum)
  kTupleStamp = 7,  // redo-only: replace txn-id start with commit time
  kPageImage = 8,   // redo-only full page image (SMO)
  kClrRemove = 9,   // compensation for kTupleInsert: tuple removed again
  kCheckpoint = 10,
  kIndexInsert = 11, // redo-only: separator inserted into an internal node
  kClrInsert = 12,  // compensation for kTupleRemove: tuple re-inserted
};

/// One WAL record. lsn is assigned by the LogManager at append time (the
/// byte offset of the record in the log).
struct WalRecord {
  WalRecordType type = WalRecordType::kBegin;
  Lsn lsn = 0;
  Lsn prev_lsn = 0;  // previous record of the same transaction
  TxnId txn_id = 0;

  // kTupleInsert / kTupleRemove / kClr / kTupleStamp / kPageImage:
  PageId pgno = kInvalidPage;
  uint32_t tree_id = 0;

  // kTupleInsert / kTupleRemove / kClr: the page record bytes.
  std::string tuple;

  // kTupleStamp: which tuple (by order number) and the commit time.
  uint16_t order_no = 0;
  uint64_t commit_time = 0;

  // kCommit: commit time. kClr: next lsn to undo (undo_next).
  Lsn undo_next = 0;

  // kPageImage: the full page bytes (kPageSize).
  std::string page_image;

  /// Appends the framed record (len u32 | crc u32 | payload) to *dst,
  /// encoding the payload in place.
  void EncodeTo(std::string* dst) const;
  /// The framed record as a fresh string (EncodeTo on an empty one).
  std::string Encode() const;

  /// Decodes one framed record from the front of `input`; on success sets
  /// *consumed to the framed size. The caller fills in lsn from the offset.
  static Status Decode(Slice input, WalRecord* out, size_t* consumed);
};

}  // namespace complydb

#endif  // COMPLYDB_WAL_LOG_RECORD_H_

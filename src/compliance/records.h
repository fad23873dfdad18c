#ifndef COMPLYDB_COMPLIANCE_RECORDS_H_
#define COMPLYDB_COMPLIANCE_RECORDS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "storage/page.h"
#include "wal/log_record.h"

namespace complydb {

/// Record types of the compliance log L on WORM (paper §IV–§VIII).
enum class CRecordType : uint8_t {
  /// A new tuple version reached disk on page `pgno` (full record bytes).
  kNewTuple = 1,
  /// Transaction `txn_id` committed at `commit_time` (paper: STAMP_TRANS).
  kStampTrans = 2,
  /// Transaction `txn_id` aborted.
  kAbort = 3,
  /// A tuple version disappeared from page `pgno` (abort undo or vacuum;
  /// the auditor verifies each UNDO against an ABORT or SHREDDED record).
  kUndo = 4,
  /// Hash-page-on-read (§V): Hs over the page's tuples in order-number
  /// order, logged when the page was read from disk.
  kReadHash = 5,
  /// Leaf page split: `entries_a`/`entries_b` are the full contents of the
  /// old and new page immediately after the split (§V).
  kPageSplit = 6,
  /// The (fixed) root leaf grew into an internal node; entries moved to
  /// two fresh leaves.
  kRootGrow = 7,
  /// Time split (§VI): `entries_a` migrated from live page `pgno` to WORM
  /// historical page `name`.
  kMigrate = 8,
  /// Vacuum intent (§VIII): tuple (tree, key, start) on `pgno` with
  /// content hash `hash` will be physically erased.
  kShredded = 9,
  /// Crash recovery began at `timestamp` (§IV-B).
  kStartRecovery = 10,
  /// Dummy STAMP_TRANS showing liveness through an idle regret interval.
  kHeartbeat = 11,
  /// The on-page copy of a tuple was lazily stamped: its start field
  /// changed from `txn_id` to `commit_time` (identified by order_no).
  kStampPage = 12,
  /// A new tree (relation or index) was created.
  kNewTree = 13,
  /// Index-page tracking (§V: "the compliance plugin also hashes and logs
  /// the contents of index pages"): an internal-node entry appeared on /
  /// disappeared from page `pgno` (separator inserts, splits), and the Hs
  /// of an internal page read from disk.
  kIndexAdd = 14,
  kIndexRemove = 15,
  kReadHashIndex = 16,
};

/// One compliance-log record. A single struct covers all types; unused
/// fields encode as zero/empty (records are length-prefixed and CRC'd, so
/// framing is uniform).
struct CRecord {
  CRecordType type = CRecordType::kHeartbeat;
  uint32_t tree_id = 0;
  PageId pgno = kInvalidPage;
  PageId new_pgno = kInvalidPage;   // kPageSplit/kRootGrow second page
  PageId third_pgno = kInvalidPage; // kRootGrow right page
  TxnId txn_id = 0;
  uint64_t commit_time = 0;
  uint64_t timestamp = 0;
  uint16_t order_no = 0;
  uint64_t start = 0;       // kShredded: version start time
  std::string tuple;        // raw leaf record bytes (kNewTuple, kUndo)
  std::string key;          // kShredded; kNewTree: tree name
  std::string hash;         // kReadHash: 32-byte Hs; kShredded: tuple hash
  std::vector<std::string> entries_a;  // post-state contents (record bytes)
  std::vector<std::string> entries_b;
  std::string name;         // kMigrate: WORM historical page file name

  /// Appends the framed record (len u32 | crc u32 | payload) to *dst,
  /// encoding the payload in place.
  void EncodeTo(std::string* dst) const;
  /// The framed record as a fresh string (EncodeTo on an empty one).
  std::string Encode() const;
  static Status Decode(Slice input, CRecord* out, size_t* consumed);
};

/// Streams framed CRecords out of a byte buffer.
Status ScanCRecords(Slice data,
                    const std::function<Status(const CRecord&, uint64_t offset)>& fn);

}  // namespace complydb

#endif  // COMPLYDB_COMPLIANCE_RECORDS_H_

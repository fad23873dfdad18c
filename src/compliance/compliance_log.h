#ifndef COMPLYDB_COMPLIANCE_COMPLIANCE_LOG_H_
#define COMPLYDB_COMPLIANCE_COMPLIANCE_LOG_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "compliance/records.h"
#include "worm/worm_store.h"

namespace complydb {

/// Naming scheme for the per-epoch WORM files. An epoch is the span
/// between two audits; audit n verifies (snapshot_n, L_n) and produces
/// snapshot_{n+1}, after which epoch n+1 begins.
std::string LogFileName(uint64_t epoch);
std::string StampIndexFileName(uint64_t epoch);
std::string SnapshotFileName(uint64_t epoch);
std::string WitnessFileName(uint64_t epoch, uint64_t seq);
std::string TxTailFileName(uint64_t epoch, uint64_t seq);
std::string HistPageFileName(uint32_t tree_id, uint64_t seq);

/// Append/scan access to one epoch's compliance log L on WORM.
///
/// Appends go to an in-memory tail: the pending L bytes and the pending
/// stamp-index bytes. A flush drains the tail inline on the calling
/// thread — one drainer at a time, FIFO, so the bytes reaching WORM are
/// the append order whoever drains — and one WORM fflush covers every
/// record accumulated since the previous drain. A record "is on WORM"
/// once a Flush/FlushThrough covering it returns. *When* to flush is the
/// caller's policy (ComplianceLogger: every hook in sync mode, the pwrite
/// and commit barriers in async mode); the bytes are the same either way.
///
/// Durability bookkeeping is in logical L offsets: size() is the end of
/// everything appended, durable_offset() the end of everything fflushed.
/// Appends come from one thread at a time (the logger holds its mutex);
/// flushes and reads may come from any thread.
///
/// Destruction drops the tail without draining it, exactly as a crash
/// would. Callers that want a clean shutdown flush first.
///
/// The auxiliary stamp index (paper §IV-A) records, for every STAMP_TRANS,
/// the transaction id, its offset in L, and the commit time, letting the
/// auditor build its txn-id -> commit-time table without a preliminary
/// pass over the full log.
class ComplianceLog {
 public:
  using RecordFn = std::function<Status(const CRecord&, uint64_t offset)>;

  /// `repair_stamp_index`: OpenExisting rebuilds a missing stamp-index
  /// tail from L's STAMP_TRANS records. The index's durability is lazy
  /// (it rides the log's drain unflushed), so a crash can lose index
  /// entries whose records are on L; they are reconstructed byte for
  /// byte. Off for read-only consumers (the auditor tolerates a short
  /// index).
  ComplianceLog(WormStore* worm, uint64_t epoch,
                bool repair_stamp_index = false)
      : worm_(worm), epoch_(epoch), repair_stamp_index_(repair_stamp_index) {}

  /// Creates the epoch's L and stamp-index files (must not exist).
  Status Create();

  /// Opens existing files with one read of L: positions the append
  /// offset, counts the records (validating the framing), repairs the
  /// stamp index if asked, and hands every record to `fn` when set.
  Status OpenExisting(const RecordFn& fn = nullptr);

  /// AppendUnflushed + Flush.
  Status Append(const CRecord& rec);

  /// Appends to the in-memory tail. Returns the sticky error of an
  /// earlier failed drain, if any.
  Status AppendUnflushed(const CRecord& rec);
  Status Flush();

  /// Durability barrier up to a logical L offset: returns once every byte
  /// below `offset` is durable on WORM. Drains the tail inline unless a
  /// drain is already in flight, in which case it waits for that one and
  /// re-checks. Once a drain failed, returns its error forever —
  /// compliance logging cannot continue past a WORM outage.
  Status FlushThrough(uint64_t offset);

  /// Bytes appended so far (the next record's offset).
  uint64_t size() const;
  /// Bytes known durable on WORM.
  uint64_t durable_offset() const;
  uint64_t epoch() const { return epoch_; }
  uint64_t record_count() const;

  /// Scans this epoch's records in order (flushes the tail first, so the
  /// scan sees every append).
  Status Scan(const RecordFn& fn);

  /// Scans the stamp index: fn(txn_id, offset_in_L, commit_time).
  Status ScanStampIndex(
      const std::function<Status(TxnId, uint64_t, uint64_t)>& fn);

  WormStore* worm() const { return worm_; }

 private:
  /// Swaps out the tail and ships it. Caller holds `lock` and has checked
  /// `!draining_`; the lock is released during the WORM I/O and re-held on
  /// return.
  void DrainLocked(std::unique_lock<std::mutex>& lock);

  WormStore* const worm_;
  const uint64_t epoch_;
  const bool repair_stamp_index_;

  mutable std::mutex mu_;
  std::condition_variable durable_cv_;  // a drain landed
  std::string pending_log_;
  std::string pending_index_;
  uint64_t pending_records_ = 0;
  uint64_t size_ = 0;            // end offset of everything appended
  uint64_t durable_offset_ = 0;  // end offset of everything flushed
  uint64_t record_count_ = 0;
  uint64_t batch_seq_ = 0;  // drains so far; the span causal key
  bool draining_ = false;   // a drain is mid-ship
  Status error_;
};

}  // namespace complydb

#endif  // COMPLYDB_COMPLIANCE_COMPLIANCE_LOG_H_

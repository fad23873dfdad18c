#ifndef COMPLYDB_DB_SNAPSHOT_READER_H_
#define COMPLYDB_DB_SNAPSHOT_READER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "audit/audit_cursor.h"
#include "btree/tuple.h"
#include "common/status.h"
#include "tsb/tsb_policy.h"
#include "txn/transaction_manager.h"

namespace complydb {

class CompliantDB;

/// Every stored version of `key` in `table`, unsorted: the live tree's,
/// then the WORM-migrated history's. Live first, because a time split
/// writes the historical page before it erases the versions from the live
/// leaf, so a version moved mid-read is seen at least once. A crash
/// between a historical page's WORM write and its MIGRATE record can leave
/// an orphan copy of a version in both. InvalidArgument for an unknown
/// table.
Status GatherVersions(const TransactionManager& txns,
                      const HistoricalStore& hist, uint32_t table, Slice key,
                      std::vector<TupleData>* out);

/// The transaction-time visibility rule that every temporal read uses:
/// the version of a key visible as of `limit` is the newest of `versions`
/// whose commit time is <= `limit`. An unstamped version's start is a txn
/// id that resolves through `txns`'s committed-transaction table; an
/// in-flight or aborted one resolves to nothing and is invisible. Returns
/// the visible version and its commit time, or nullptr when no version
/// qualifies or the visible one is end-of-life (the key is deleted as of
/// `limit`). The order of `versions` does not matter: versions are unique
/// by start, so commit times tie only between orphan copies of one
/// version.
const TupleData* VisibleAsOf(const std::vector<TupleData>& versions,
                             uint64_t limit, const TransactionManager& txns,
                             uint64_t* commit_time);

/// A read-only view of the database pinned at a commit timestamp.
///
/// In a transaction-time store, committed versions are immutable: the
/// writer only appends new versions, upgrades lazy stamps, or migrates
/// superseded versions to WORM — it never changes what was visible at any
/// past commit time. A reader pinned at the last commit time therefore
/// needs no 2PL: page latches (crabbed shared descents in the btree) give
/// physical consistency, and version visibility at the pinned time gives
/// logical consistency. Versions from the writer's in-flight transaction
/// are unstamped with a start id that resolves to no committed txn at or
/// below the snapshot, so they are naturally invisible.
///
/// Handles are created by CompliantDB::BeginSnapshot() and freed with
/// `delete`; every method is safe to call from any thread, and multiple
/// handles on multiple threads run concurrently with the single writer.
class SnapshotReader {
 public:
  ~SnapshotReader();

  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  /// The commit time this view is pinned at.
  uint64_t snapshot_time() const { return snap_; }

  /// Latest value of `key` visible at the snapshot time.
  Status Get(uint32_t table, Slice key, std::string* value) const;

  /// Value of `key` as of min(time, snapshot time) — the snapshot bounds
  /// how far forward a temporal read inside it can see.
  Status GetAsOf(uint32_t table, Slice key, uint64_t time,
                 std::string* value) const;

  /// Latest visible value per key over [begin, end) at the snapshot time
  /// (end empty = unbounded). `fn` may return Busy to stop early.
  Status ScanCurrent(uint32_t table, Slice begin, Slice end,
                     const std::function<Status(const TupleData&)>& fn) const;

  /// Get that does not trust the engine it is reading: alongside the
  /// value, it demands a Merkle inclusion proof that this exact version
  /// (key, value, commit time) is committed under the last certified
  /// chain root. Verify client-side with VerifyInclusionProof against an
  /// independently remembered root. NotFound if the key has no visible
  /// version, or if its visible version is newer than the certified
  /// prefix (run AuditIncremental and retry).
  Status GetWithProof(uint32_t table, Slice key, std::string* value,
                      uint64_t* commit_time, InclusionProof* proof) const;

 private:
  friend class CompliantDB;

  SnapshotReader(CompliantDB* db, TransactionManager* txns,
                 HistoricalStore* hist, uint64_t snap,
                 std::atomic<int>* open_count);

  CompliantDB* db_;
  TransactionManager* txns_;
  HistoricalStore* hist_;
  uint64_t snap_;
  std::atomic<int>* open_count_;
};

}  // namespace complydb

#endif  // COMPLYDB_DB_SNAPSHOT_READER_H_

#ifndef COMPLYDB_TXN_TRANSACTION_MANAGER_H_
#define COMPLYDB_TXN_TRANSACTION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "btree/btree.h"
#include "common/clock.h"
#include "common/status.h"
#include "txn/commit_observer.h"
#include "wal/log_manager.h"

namespace complydb {

class CommitPipeline;
class SlotWriteBuffer;

/// One write performed by a transaction (final state per key; an in-txn
/// overwrite replaces the entry). Drives abort-undo bookkeeping, lazy
/// stamping, and AS-OF resolution.
struct TxnWrite {
  uint32_t tree_id = 0;
  std::string key;
};

/// Undo bookkeeping: the in-memory mirror of the WAL chain, so abort can
/// run without re-reading the log.
struct UndoAction {
  enum Kind { kRemoveInserted, kReinsertRemoved } kind;
  uint32_t tree_id;
  std::string key;      // kRemoveInserted
  uint64_t start;       // kRemoveInserted
  std::string record;   // kReinsertRemoved: exact removed record bytes
};

class Transaction {
 public:
  enum class State { kActive, kCommitted, kAborted };

  TxnId id() const { return id_; }
  State state() const { return state_; }
  uint64_t commit_time() const { return commit_time_; }

  /// Non-null for a deferred transaction created during a scheduler
  /// execute phase: its writes live in the slot's staging buffer until
  /// replay. CompliantDB routes Commit/Abort on it back to the buffer.
  SlotWriteBuffer* slot_buffer() const { return slot_buffer_; }

 private:
  friend class TransactionManager;
  friend class SlotWriteBuffer;

  TxnId id_ = 0;
  State state_ = State::kActive;
  uint64_t commit_time_ = 0;
  TxnWalContext wal_;
  std::vector<TxnWrite> writes_;
  std::vector<UndoAction> undo_;
  SlotWriteBuffer* slot_buffer_ = nullptr;
};

/// Transaction engine: begin/commit/abort with steal/no-force semantics,
/// lazy commit-time stamping, and temporal reads.
///
/// Transactions execute serially (one active at a time) — see DESIGN.md;
/// the paper's evaluation is a single TPC-C stream atop Berkeley DB. All
/// timestamps (txn ids and commit times) are drawn from one strictly
/// monotonic sequence seeded by the compliance clock, so the lazy stamp
/// upgrade never reorders versions and commit times strictly increase
/// (an auditor check, §IV-B).
///
/// Mutation stays single-writer, but snapshot readers call GetTree,
/// ResolveCommitTime, and last_commit_time from other threads, so the
/// tree registry and the committed-times table take reader/writer locks
/// and the last commit time is atomic.
class TransactionManager {
 public:
  TransactionManager(LogManager* wal, Clock* clock,
                     CommitObserver* observer = nullptr)
      : wal_(wal), clock_(clock), observer_(observer) {}

  /// Trees must be registered before transactions touch them.
  void RegisterTree(uint32_t tree_id, Btree* tree);
  Btree* GetTree(uint32_t tree_id) const;

  Result<Transaction*> Begin();

  /// Inserts or updates `key` (a new version at this txn's id).
  Status Put(Transaction* txn, uint32_t tree_id, Slice key, Slice value);

  /// Deletes `key` by writing an end-of-life version. NotFound if the key
  /// is not currently live.
  Status Delete(Transaction* txn, uint32_t tree_id, Slice key);

  /// Current-version read (sees this txn's own writes).
  Status Get(Transaction* txn, uint32_t tree_id, Slice key,
             std::string* value);

  Status Commit(Transaction* txn);
  Status Abort(Transaction* txn);

  /// Lazy timestamping (paper §IV-A): upgrades tuples of up to `max_txns`
  /// committed-but-unstamped transactions (0 = all). The DB facade calls
  /// this on the regret-interval tick and before audits.
  Status StampPending(size_t max_txns = 0);
  size_t pending_stamp_count() const { return pending_stamps_.size(); }

  /// Commit time for a start value: identity for stamped starts, a lookup
  /// for txn ids. NotFound for uncommitted/aborted ids.
  Result<uint64_t> ResolveCommitTime(uint64_t start) const;

  uint64_t last_commit_time() const {
    return last_commit_time_.load(std::memory_order_acquire);
  }
  bool HasActiveTxn() const { return active_ != nullptr; }

  /// Recovery hook: registers a commit found in the WAL.
  void RestoreCommittedTxn(TxnId id, uint64_t commit_time);

  /// Recovery hook: never reissue ids/times at or below `tick` (aborted
  /// pre-crash transactions must not share ids with new ones — the
  /// compliance log would see ABORT and STAMP_TRANS for one id).
  void BumpTick(uint64_t tick) { last_tick_ = std::max(last_tick_, tick); }

  /// Strictly monotonic tick, >= the compliance clock. Used for txn ids
  /// and commit times.
  uint64_t NextTick();

  /// Attaches the multi-writer commit pipeline (write_threads > 1). When
  /// set and the calling thread holds an open slot, Commit sequences the
  /// compliance record via OnCommitQueued and defers durability to the
  /// slot's epoch barrier, and Put/Delete acquire the target partition's
  /// write latch for the life of the slot. Engine state (active_,
  /// last_tick_, pending_stamps_) needs no extra locking: the pipeline's
  /// turnstile admits one slot at a time, and its mutex handoff orders
  /// slots' accesses.
  void SetPipeline(CommitPipeline* pipeline) { pipeline_ = pipeline; }

 private:
  struct PendingStamp {
    TxnId txn_id;
    uint64_t commit_time;
    std::vector<TxnWrite> writes;
  };

  LogManager* wal_;
  Clock* clock_;
  CommitObserver* observer_;
  CommitPipeline* pipeline_ = nullptr;
  mutable std::shared_mutex trees_mu_;
  std::unordered_map<uint32_t, Btree*> trees_;
  std::unique_ptr<Transaction> active_;
  uint64_t last_tick_ = 0;
  std::atomic<uint64_t> last_commit_time_{0};
  std::deque<PendingStamp> pending_stamps_;
  mutable std::shared_mutex times_mu_;
  std::map<TxnId, uint64_t> committed_times_;
};

}  // namespace complydb

#endif  // COMPLYDB_TXN_TRANSACTION_MANAGER_H_

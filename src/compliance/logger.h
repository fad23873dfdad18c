#ifndef COMPLYDB_COMPLIANCE_LOGGER_H_
#define COMPLYDB_COMPLIANCE_LOGGER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "btree/structure_observer.h"
#include "common/clock.h"
#include "compliance/compliance_log.h"
#include "compliance/page_replay.h"
#include "compliance/snapshot.h"
#include "storage/disk_manager.h"
#include "storage/io_hook.h"
#include "txn/commit_observer.h"

namespace complydb {

/// Configuration of the compliance machinery (paper §IV–§V).
struct ComplianceOptions {
  /// Master switch: off = plain DBMS (the "native Berkeley DB" baseline).
  bool enabled = true;

  /// Hash-page-on-read refinement (§V): log Hs of every leaf page read
  /// from disk, enabling query verification at audit.
  bool hash_on_read = false;

  /// The regret interval (§II): dirty pages are forced to disk and a
  /// witness file is created at least this often. Default 5 minutes.
  uint64_t regret_interval_micros = 300ull * 1'000'000;

  /// Keep a copy of each page's tuple set from pread, so the pwrite diff
  /// needs no extra storage-server I/O (§IV-A). Ablation: false re-reads
  /// the old page image from disk on every write.
  bool cache_page_images = true;

  /// Cap on cached page baselines (0 = unbounded). Only disk-consistent
  /// entries are evictable: a baseline derived from log replay can be
  /// *ahead* of the on-disk image after a crash and must stay pinned
  /// until the page catches up, or the fallback disk read would
  /// resurrect stale state.
  size_t max_cached_pages = 0;

  /// The logger's flush policy. Records always go to the compliance
  /// log's in-memory tail; sync mode flushes it at every hook, async mode
  /// only at two WAL-style barriers (the per-page pwrite barrier and the
  /// commit/tick/shred full flush), so many records share one fflush. The
  /// bytes on WORM are identical; only their flush timing moves.
  /// Overridable at open via the COMPLYDB_COMPLIANCE_ASYNC env variable.
  bool async_shipping = false;
};

/// The compliance logging plugin. Implements the paper's pread/pwrite tap
/// (IoHook), split/migration notifications (StructureObserver), and
/// commit/abort/recovery notifications (CommitObserver). Every record it
/// appends is durable on WORM before the triggering operation proceeds,
/// which is what makes the log authoritative at audit.
///
/// Thread-safe: one internal mutex serializes every public entry point,
/// so the record order on L stays a single total order even when hooks
/// fire from reader threads (cache-miss READ_HASH, dirty-page eviction).
/// Lock order: buffer-cache shard mutex -> WAL mutex -> this mutex.
class ComplianceLogger : public IoHook,
                         public StructureObserver,
                         public CommitObserver {
 public:
  ComplianceLogger(const ComplianceOptions& options, WormStore* worm,
                   DiskManager* disk, Clock* clock)
      : options_(options), worm_(worm), disk_(disk), clock_(clock) {}

  /// Begins a brand-new epoch (first open, or right after an audit):
  /// creates L_<epoch> and its stamp index; baselines start empty.
  Status StartFreshEpoch(uint64_t epoch);

  /// Re-attaches to an in-progress epoch after restart: replays
  /// snapshot_<epoch> + L_<epoch> to rebuild the page baselines, so
  /// post-recovery diffs are computed against log-consistent state. This
  /// is the open's only read of L; `shreds`, when set, receives L's
  /// SHREDDED records for the facade's own reopen work.
  /// `repair_stamp_index` rebuilds a missing stamp-index tail from L (see
  /// ComplianceLog).
  Status AttachToEpoch(uint64_t epoch, const Snapshot* snapshot,
                       bool repair_stamp_index,
                       std::vector<ShredRecord>* shreds);

  ComplianceLog* log() { return log_.get(); }
  uint64_t epoch() const { return log_ == nullptr ? 0 : log_->epoch(); }
  bool enabled() const { return options_.enabled; }
  const ComplianceOptions& options() const { return options_; }

  /// Full durability barrier: everything appended so far reaches WORM.
  /// No-op when disabled or before an epoch is attached.
  Status FlushLog();

  /// Current size of L in bytes, taken under the logger mutex — always a
  /// record boundary, so it is a valid epoch-seal target.
  uint64_t LogSize() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_ == nullptr ? 0 : log_->size();
  }

  // --- IoHook ---
  Status OnPageRead(PageId pgno, const Page& image) override;
  Status OnPageWrite(PageId pgno, const Page& image) override;
  Status OnPageWriteBarrier(PageId pgno) override;

  // --- StructureObserver ---
  Status OnPageSplit(uint32_t tree_id, uint8_t level, PageId old_pgno,
                     PageId new_pgno, const Page& pre_old,
                     const Page& post_old, const Page& post_new) override;
  Status OnRootGrow(uint32_t tree_id, PageId root_pgno, PageId left_pgno,
                    PageId right_pgno, const Page& pre_root,
                    const Page& post_root, const Page& post_left,
                    const Page& post_right) override;
  Status OnMigrate(uint32_t tree_id, PageId live_pgno, const Page& pre_live,
                   const Page& post_live, const std::string& hist_name,
                   const Page& hist_image) override;

  // --- CommitObserver ---
  Status OnCommit(TxnId txn_id, uint64_t commit_time) override;
  Status OnAbort(TxnId txn_id) override;

  /// Commit-pipeline variant: appends the STAMP_TRANS under the logger
  /// mutex (record order = turnstile order) but skips the durability
  /// barrier, returning the L offset the commit must outlast. The epoch
  /// leader later makes a whole window durable via WaitCommitDurable.
  Result<uint64_t> OnCommitQueued(TxnId txn_id, uint64_t commit_time) override;

  /// Epoch durability barrier: blocks until L is durable through
  /// `offset`. Deliberately takes no logger mutex — the compliance log's
  /// FlushThrough is internally synchronized and coalescing, so
  /// commit-path hooks from subsequent slots keep appending meanwhile.
  Status WaitCommitDurable(uint64_t offset);
  Status OnStartRecovery() override;
  Status OnRecoveryComplete() override;

  /// A relation/index tree was created (schema change, logged like data).
  Status OnNewTree(uint32_t tree_id, PageId root, const std::string& name);

  /// Shredding intent (§VIII): must hit WORM before the vacuum erases.
  /// For tuples migrated to WORM, `hist_name` names the historical page
  /// file slated for whole-file deletion after the next audit.
  Status OnShredIntent(uint32_t tree_id, Slice key, uint64_t start,
                       PageId pgno, Slice content_hash, uint64_t timestamp,
                       const std::string& hist_name = "");

  /// Regret-interval tick: emits a heartbeat if no transaction ended this
  /// interval and creates the liveness witness file.
  Status Tick(uint64_t now);

  // --- statistics (space-overhead benchmarks) ---
  struct Stats {
    uint64_t new_tuples = 0;
    uint64_t undos = 0;
    uint64_t read_hashes = 0;
    uint64_t stamps = 0;
    uint64_t splits = 0;
    uint64_t migrations = 0;
    uint64_t heartbeats = 0;
    uint64_t witness_files = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  using PageState = PageReplayer::PageState;

  static PageState StateFromImage(const Page& image);
  Result<PageState> BaselineFor(PageId pgno);
  Status EmitDiff(uint32_t tree_id, PageId pgno, const PageState& old_state,
                  const PageState& new_state);
  Status Append(const CRecord& rec);

  using IndexState = PageReplayer::IndexState;

  static IndexState IndexStateFromImage(const Page& image);
  Result<IndexState> IndexBaselineFor(PageId pgno);
  Status EmitIndexDiff(uint32_t tree_id, PageId pgno,
                       const IndexState& old_state,
                       const IndexState& new_state);

  /// Sync mode: flush inline (the classic per-hook durability point).
  /// Async mode: no-op — durability is deferred to the barriers.
  Status MaybeSyncFlush();

  /// Serializes all public entry points (none call each other; the
  /// private helpers run with it held).
  mutable std::mutex mu_;
  ComplianceOptions options_;
  WormStore* worm_;
  DiskManager* disk_;
  Clock* clock_;
  std::unique_ptr<ComplianceLog> log_;
  /// Records that (pgno, is_index) was cached with the given sync state
  /// and enforces max_cached_pages by evicting old disk-consistent
  /// entries.
  void NoteCached(PageId pgno, bool is_index, bool disk_synced);

  std::map<PageId, PageState> baseline_;
  std::map<PageId, IndexState> index_baseline_;
  // Async shipping: per-page high-water mark — the logical L offset after
  // the last record mentioning the page. OnPageWriteBarrier stalls the
  // pwrite until the log is durable through this offset (WAL-style
  // "log before data" applied to the compliance log).
  std::map<PageId, uint64_t> page_high_water_;
  // Baselines known to be ahead of the on-disk image (unpinnable).
  std::set<PageId> unsynced_;
  // FIFO of eviction candidates; entries may be stale (lazily skipped).
  std::deque<std::pair<PageId, bool>> evict_queue_;
  uint64_t last_stamp_activity_ = 0;
  uint64_t last_witness_time_ = 0;
  uint64_t witness_seq_ = 0;
  bool in_recovery_ = false;
  // Transaction outcomes already on L: recovery re-announces every
  // committed/aborted transaction it finds in the WAL, and appending a
  // second copy would be redundant (and trip the auditor's monotonic-
  // commit-time check).
  std::map<TxnId, uint64_t> stamps_on_log_;
  std::set<TxnId> aborts_on_log_;
  Stats stats_;
};

}  // namespace complydb

#endif  // COMPLYDB_COMPLIANCE_LOGGER_H_

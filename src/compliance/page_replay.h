#ifndef COMPLYDB_COMPLIANCE_PAGE_REPLAY_H_
#define COMPLYDB_COMPLIANCE_PAGE_REPLAY_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "compliance/compliance_log.h"
#include "compliance/records.h"
#include "crypto/add_hash.h"
#include "crypto/sha256.h"

namespace complydb {

/// One SHREDDED intent found in L.
struct ShredRecord {
  uint32_t tree_id = 0;
  std::string key;
  uint64_t start = 0;
  PageId pgno = kInvalidPage;
  uint64_t timestamp = 0;
  std::string content_hash;
  /// Non-empty for shreds of WORM-migrated tuples: the historical page
  /// file slated for whole-file deletion after the audit.
  std::string hist_name;
};

/// One migration record found in L.
struct MigrationRecord {
  uint32_t tree_id = 0;
  PageId live_pgno = kInvalidPage;
  std::string hist_name;
  std::vector<std::string> entries;
  /// L offset of the MIGRATE record; shard merging sorts on it so the
  /// merged list reproduces the serial log order.
  uint64_t offset = 0;
};

/// One STAMP_TRANS found in L.
struct CommitStamp {
  uint64_t offset = 0;  // of the record in L
  TxnId txn_id = 0;
  uint64_t commit_time = 0;
};

/// One NEW_TREE found in L: the tree's name and root page.
struct TreeAnnouncement {
  std::string name;
  PageId root = kInvalidPage;
};

/// Prepass summary of one epoch's L: transaction outcomes and shred
/// intents, needed before replay because UNDO records may precede the
/// ABORT/SHREDDED records that justify them (crash-recovery interleaving).
/// The incremental cursor folds it window by window, before each window's
/// replay; the full audit reads its commit and tree lists afterwards.
struct LogSummary {
  std::map<TxnId, uint64_t> stamps;  // txn id -> commit time
  std::set<TxnId> aborts;
  std::vector<ShredRecord> shreds;
  std::vector<std::string> problems;  // conflicting stamps, abort+commit, ...
  uint64_t last_commit_time = 0;
  std::vector<CommitStamp> commits;  // every STAMP_TRANS, in L order
  std::map<uint32_t, TreeAnnouncement> new_trees;  // tree id -> last NEW_TREE
};

/// Folds one record (at L offset `offset`) into `out`.
void SummarizeRecord(const CRecord& rec, uint64_t offset, LogSummary* out);

/// Deterministic replay of L's page-level records, reconstructing the
/// expected tuple content of every live leaf page.
///
/// Simplification over the paper's §V roll-back/roll-forward: because we
/// keep the full record set per page (keyed by tuple order number, which
/// is unique for a page's lifetime), an aborted tuple is simply present
/// between its NEW_TUPLE and its UNDO — exactly mirroring the physical
/// page — so READ hashes verify with no hash-chain rollback.
///
/// Sharded replay: every record in L names the page(s) it touches, and
/// records for different pages never interact until Finalize — so N
/// replayers can each apply one window of L, each taking only the
/// records whose pages hash into its shard, then be folded back
/// (AbsorbWindowShard + FinishMerge) into a state identical to the
/// serial replay. Records that touch two or three pages (PAGE_SPLIT,
/// ROOT_GROW) are applied piecewise by each page's owner; the union
/// cross-check runs on the old page's owner, which is the only shard
/// holding the pre-image.
class PageReplayer {
 public:
  struct Options {
    /// Auditor mode: run cross-checks (split unions, UNDO justification,
    /// READ-hash verification) and collect problems. The compliance
    /// logger replays with verify=false just to rebuild its diff baseline.
    bool verify = false;
    bool verify_read_hashes = false;
    /// Sharded replay: this replayer applies only records for pages with
    /// Owns(tree_id, pgno). shard_count == 1 is the serial reference
    /// path and applies everything.
    uint32_t shard_index = 0;
    uint32_t shard_count = 1;
  };

  using PageKey = std::pair<uint32_t, PageId>;  // (tree_id, pgno)
  using PageState = std::map<uint16_t, std::string>;  // order_no -> record
  /// Internal (index) page state: entry bytes keyed by their (key, start)
  /// sort key — slot order on disk is sorted order, so Hs agrees.
  using IndexState = std::map<std::string, std::string>;

  PageReplayer(Options opts, const LogSummary* summary)
      : opts_(opts), summary_(summary) {}

  /// Seeds a page's state (from the previous snapshot).
  void SeedPage(uint32_t tree_id, PageId pgno, const std::vector<std::string>& records);

  /// Seeds an internal page's entry list (from the previous snapshot).
  void SeedIndexPage(uint32_t tree_id, PageId pgno,
                     const std::vector<std::string>& entries);

  Status Apply(const CRecord& rec, uint64_t offset);

  /// True when this replayer's shard owns (tree_id, pgno). With
  /// shard_count == 1 every page is owned.
  bool Owns(uint32_t tree_id, PageId pgno) const;

  /// Folds a *window* shard — an ephemeral replayer that was seeded with
  /// this replayer's current state for `touched_pages`/`touched_index`
  /// and then applied one window's records — back into this long-lived
  /// state. For every touched key the shard owns, the shard's version
  /// *overwrites* ours, and a key the shard no longer holds is *erased*
  /// (ROOT_GROW deletes the old root's leaf state). Non-page artifacts
  /// (deltas, problems, pending checks) concatenate; call FinishMerge
  /// once after absorbing every shard.
  void AbsorbWindowShard(PageReplayer&& other,
                         const std::vector<PageKey>& touched_pages,
                         const std::vector<PageKey>& touched_index);

  /// Restores serial order after AbsorbWindowShard: migrations, problems,
  /// and pending checks are re-sorted by their L offsets. At most one
  /// shard emits problems for a given offset, so a stable sort reproduces
  /// the serial problem list byte for byte.
  void FinishMerge();

  /// End-of-window step: resolves the pending UNDO justifications that
  /// the current state *can* answer (the moved tuple is present again)
  /// and the identity changes whose transaction is now stamped, and keeps
  /// the rest pending — mid-chain, the justifying SHREDDED, page move, or
  /// STAMP_TRANS may simply lie in a later window. Finalize remains the
  /// authoritative reporter for justifications that never arrive.
  void ResolvePendingMoves();

  /// Verify mode: run after the last window. Resolves deferred UNDO
  /// justifications — a stamped tuple's UNDO with no SHREDDED record is
  /// legitimate only if the tuple still exists elsewhere in the final
  /// state (a crash-reconciliation page move), never if it vanished —
  /// and drops identity changes whose transaction never committed.
  Status Finalize();

  /// Verify mode: net change to the live-tuple identity ADD_HASH implied
  /// by this epoch's log (folding it into the previous snapshot's hash
  /// yields the expected hash of the final database state). Complete
  /// only after Finalize: an unstamped tuple's identity waits for its
  /// transaction's STAMP_TRANS, which may lie in a later window.
  const AddHash& identity_delta() const { return identity_delta_; }
  /// Verify mode: identities migrated to WORM this epoch.
  const AddHash& migrated_delta() const { return migrated_delta_; }

  const std::map<PageKey, PageState>& pages() const { return pages_; }
  const std::map<PageKey, IndexState>& index_pages() const {
    return index_pages_;
  }
  const std::vector<MigrationRecord>& migrations() const { return migrations_; }
  const std::map<uint32_t, PageId>& tree_roots() const { return tree_roots_; }
  const std::vector<std::string>& problems() const { return problems_; }
  uint64_t read_hashes_checked() const { return read_hashes_checked_; }

  /// Hs over a page state in order-number order (the logger's READ hash).
  static Sha256Digest HashPageState(const PageState& state);
  /// Hs over an internal page's entries in sorted (slot) order.
  static Sha256Digest HashIndexState(const IndexState& state);
  /// Sort key of an internal entry: key bytes + big-endian start.
  static Result<std::string> IndexEntrySortKey(Slice entry);

 private:
  /// How a record changes the identity hashes: NEW_TUPLE adds, UNDO
  /// removes, MIGRATE moves the identity from live to migrated.
  enum class IdentityChange { kAdd, kRemove, kMigrate };
  struct PendingIdentity {
    uint32_t tree_id = 0;
    std::string tuple;
    IdentityChange change = IdentityChange::kAdd;
  };

  void Problem(const std::string& what);
  /// Applies `change` for `tuple` now, or defers it while the tuple's
  /// transaction has no STAMP_TRANS in the summary yet.
  void ChangeIdentity(uint32_t tree_id, const std::string& tuple,
                      IdentityChange change);
  /// Applies the deferred changes whose transaction is now stamped.
  void ResolvePendingIdentities();

  Options opts_;
  const LogSummary* summary_;
  std::map<PageKey, PageState> pages_;
  std::map<PageKey, IndexState> index_pages_;
  std::map<uint32_t, PageId> tree_roots_;
  std::vector<MigrationRecord> migrations_;
  std::vector<std::string> problems_;
  // L offset of each problems_ entry (parallel vector); Finalize-time
  // problems use kNoOffset so they stay last after the merge sort.
  std::vector<uint64_t> problem_offsets_;
  uint64_t current_offset_ = 0;
  uint64_t read_hashes_checked_ = 0;
  AddHash identity_delta_;
  AddHash migrated_delta_;
  // (identity bytes, L offset) of stamped UNDOs awaiting the final-state
  // presence check.
  std::vector<std::pair<std::string, uint64_t>> pending_move_checks_;
  std::vector<PendingIdentity> pending_identities_;
};

}  // namespace complydb

#endif  // COMPLYDB_COMPLIANCE_PAGE_REPLAY_H_

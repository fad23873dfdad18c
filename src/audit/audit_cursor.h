#ifndef COMPLYDB_AUDIT_AUDIT_CURSOR_H_
#define COMPLYDB_AUDIT_AUDIT_CURSOR_H_

// Incremental, online certification of the compliance log — and the one
// driver that replays L, for the incremental verdict and the full audit
// alike.
//
// The AuditCursor certifies "all state through sealed epoch k" by
// replaying only the delta since the last certified epoch: for each
// uncertified SealedEpoch it re-reads exactly that L byte range, checks
// the range against the epoch's Merkle root and the chain linkage, folds
// the records into a long-lived PageReplayer state, and verifies every
// READ hash inside the window against that state. Readers and the
// multi-writer commit pipeline keep running the whole time — the cursor
// touches only WORM files, never the live engine.
//
// Scope of the incremental verdict (see DESIGN.md): chain and Merkle
// integrity, L well-formedness, the replay cross-checks (split unions,
// UNDO justification, conflicting stamps/aborts), and READ-hash
// verification — the paper's hash-page-on-read tamper detector, which is
// what catches edits to the database file itself.
//
// The full audit (Auditor::Audit) finishes a cursor instead of replaying
// L itself: it certifies the sealed epochs past the head, re-hashes the
// windows certified before it against their sealed Merkle roots
// (RehashCertified: an edit to certified L is still caught, without
// replaying it), and replays the rest of L as one unverified tail
// (ReplayTail). Only the uncertified delta is replayed; the cursor is
// spent afterwards. Final state vs disk, identity ADD_HASH, witness
// liveness, and retention/hold policy stay the full audit's own checks.
//
// Equivalence: certifying epochs 1..E one at a time, in batches, or all
// at once runs the identical per-window code against identical state, so
// the problem list, chain root, and state digest match a from-scratch
// full replay byte for byte (asserted in tests, including across a
// crash/reopen between increments).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "audit/epoch_chain.h"
#include "common/status.h"
#include "compliance/page_replay.h"
#include "crypto/sha256.h"
#include "worm/worm_store.h"

namespace complydb {

class ThreadPool;

/// Result of one CertifyThrough run (or of a full-replay pass).
struct IncrementalAuditReport {
  /// Problems found by THIS run, in L order; a chain-level finding (the
  /// window certification stopped at) comes last.
  std::vector<std::string> problems;
  /// Every finding inside the windows the cursor has replayed since
  /// Attach (chain-level findings are not part of the state: the window
  /// they reject is never applied).
  std::vector<std::string> all_problems;
  uint64_t certified_seq = 0;     // chain position after the run
  uint64_t certified_offset = 0;  // L bytes covered after the run
  uint64_t epochs_certified = 0;  // sealed epochs consumed this run
  uint64_t records_replayed = 0;  // this run — the O(delta) witness
  uint64_t bytes_replayed = 0;
  uint64_t read_hashes_checked = 0;
  uint32_t threads_used = 1;
  double seconds = 0;
  Sha256Digest chain_root{};   // chain digest of the certified head
  Sha256Digest state_digest{};  // digest of the replayed page state

  bool ok() const { return problems.empty(); }
};

/// A self-contained proof that one tuple version is covered by the
/// certified chain: the sealed-epoch headers up to the certified head
/// plus Merkle audit paths for the NEW_TUPLE record (and, for lazily
/// stamped tuples, the STAMP_TRANS record that resolves its commit
/// time). Verification needs only the trusted 32-byte chain root.
struct InclusionProof {
  struct Leaf {
    uint64_t epoch_seq = 0;   // 1-based position in `chain`
    uint64_t leaf_index = 0;  // record index inside the sealed epoch
    std::string record;       // framed CRecord bytes (len|crc|payload)
    std::vector<Sha256Digest> path;
  };

  uint64_t audit_epoch = 0;
  std::vector<SealedEpoch> chain;  // certified prefix, seq 1..n
  Leaf tuple;                      // the NEW_TUPLE record
  bool has_stamp = false;
  Leaf stamp;                      // STAMP_TRANS when the tuple is unstamped
};

/// Client-side proof check: pure function of the proof bytes and the
/// trusted chain root — no database, no WORM access. Verifies the chain
/// recomputes from its seed to `trusted_root`, that each leaf's Merkle
/// path lands on its epoch's sealed root, and that the leaf bytes decode
/// to the claimed (tree, key, value, commit time).
Status VerifyInclusionProof(const InclusionProof& proof,
                            const Sha256Digest& trusted_root,
                            uint32_t tree_id, Slice key, Slice value,
                            uint64_t commit_time);

class AuditCursor {
 public:
  struct Options {
    std::string auditor_key;
    bool verify_read_hashes = true;
  };

  AuditCursor(Options opts, WormStore* worm)
      : opts_(std::move(opts)), worm_(worm) {}

  /// Positions the cursor for `audit_epoch`, resuming from the last
  /// HMAC-verified certification marker when one exists: the certified
  /// prefix is re-derived by windowed replay and cross-checked against
  /// the marker's chain digest (Tampered on any disagreement). Without a
  /// marker the cursor starts from the epoch's snapshot baseline.
  Status Attach(uint64_t audit_epoch);

  /// Like Attach but ignores certification markers: a from-scratch
  /// cursor, used for the full-replay equivalence mode.
  Status AttachFresh(uint64_t audit_epoch);

  /// Certifies every sealed epoch past the current head (up to
  /// `limit_seq`), replaying only the delta. A chain-level problem stops
  /// the advance — the offending epoch is not certified — and is reported
  /// through the returned report (not a failed Status; those are reserved
  /// for I/O-level trouble and a chain that rewrote the certified head).
  Result<IncrementalAuditReport> CertifyThrough(
      const std::vector<SealedEpoch>& chain, uint32_t num_threads,
      uint64_t limit_seq = UINT64_MAX);

  /// Full-audit step: re-hashes windows 1..`through_seq` of `chain`
  /// against their sealed Merkle roots without replaying them, appending
  /// one finding per window whose L bytes no longer match.
  Status RehashCertified(const std::vector<SealedEpoch>& chain,
                         uint64_t through_seq,
                         std::vector<std::string>* findings) const;

  /// Full-audit step: replays [certified_offset, end of L) as one window
  /// with no Merkle check — the sealed epochs certification stopped at
  /// plus the unsealed tail — then finalizes the replay. A record that
  /// fails to decode stops the replay there. Spends the cursor: no record
  /// may be applied twice, so CertifyThrough and ReplayTail refuse to run
  /// again until the next Attach.
  Result<IncrementalAuditReport> ReplayTail(uint32_t num_threads);

  /// Appends the signed certification marker for the current head to
  /// cert_<epoch>. Call after a clean CertifyThrough.
  Status PersistCertification();

  /// Builds an inclusion proof for (tree, key, value, commit_time) out of
  /// the certified prefix. NotFound when the version is not covered —
  /// typically because it committed after the last certified epoch.
  Result<InclusionProof> ProveInclusion(uint32_t tree_id, Slice key,
                                        Slice value, uint64_t commit_time);

  const Options& options() const { return opts_; }
  uint64_t audit_epoch() const { return epoch_; }
  uint64_t certified_seq() const { return certified_seq_; }
  uint64_t certified_offset() const { return certified_offset_; }
  const Sha256Digest& certified_root() const { return certified_root_; }
  const std::vector<std::string>& problems() const { return problems_; }
  /// The replayed state and the summary of every record applied since
  /// Attach, and how many records that was.
  const PageReplayer& state() const { return state_; }
  const LogSummary& summary() const { return summary_; }
  uint64_t records_applied() const { return records_applied_; }

  /// Deterministic digest of the replayed state (pages, index pages,
  /// tree roots): the incremental-vs-full equivalence witness.
  Sha256Digest StateDigest() const;

 private:
  Status AttachInternal(uint64_t audit_epoch, bool use_certification);
  /// Decodes, summarizes and replays one window of L starting at L
  /// offset `base`. A sealed window is all or nothing: a record that
  /// fails to decode rejects it untouched. The tail keeps the records
  /// before the bad one and stops there.
  Status ApplyWindow(const std::string& blob, uint64_t base,
                     const std::string& tag, bool sealed, uint32_t nthreads,
                     ThreadPool* pool, IncrementalAuditReport* rep);
  /// A finding inside an applied window: kept in the cursor's state and
  /// reported by this run.
  void AddProblem(const std::string& what, IncrementalAuditReport* rep);
  /// A finding reported by this run only (a rejected window is never
  /// applied, so its finding is not part of the state).
  void ReportFinding(const std::string& what, IncrementalAuditReport* rep);

  Options opts_;
  WormStore* worm_;
  uint64_t epoch_ = 0;
  uint64_t certified_seq_ = 0;
  uint64_t certified_offset_ = 0;
  Sha256Digest certified_root_{};
  LogSummary summary_;             // cumulative over certified windows
  size_t summary_problems_seen_ = 0;
  PageReplayer state_{PageReplayer::Options{}, nullptr};
  size_t state_problems_seen_ = 0;
  std::vector<std::string> problems_;  // cumulative, in L order
  uint64_t records_applied_ = 0;
  bool spent_ = false;  // ReplayTail ran: the state is past the chain
};

}  // namespace complydb

#endif  // COMPLYDB_AUDIT_AUDIT_CURSOR_H_

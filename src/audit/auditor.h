#ifndef COMPLYDB_AUDIT_AUDITOR_H_
#define COMPLYDB_AUDIT_AUDITOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "compliance/compliance_log.h"
#include "compliance/snapshot.h"
#include "storage/disk_manager.h"
#include "worm/worm_store.h"

namespace complydb {

class AuditCursor;

/// Looks up the retention period (micros) that governed `tree_id` at time
/// `at_time`; NotFound if no policy existed. The DB facade implements this
/// over the Expiry relation (§VIII).
using RetentionResolver =
    std::function<Result<uint64_t>(uint32_t tree_id, uint64_t at_time)>;

/// Whether a litigation hold covered (tree_id, key) at `at_time` (§IX).
using HoldResolver = std::function<Result<bool>(
    uint32_t tree_id, const std::string& key, uint64_t at_time)>;

struct AuditOptions {
  std::string auditor_key;
  /// Verify READ hashes when the epoch was run with hash-page-on-read.
  bool verify_read_hashes = true;
  /// Run the paper's single-pass ADD_HASH completeness check (§IV-A).
  bool identity_hash_check = true;
  /// Also run the O(|L| log |L|) sort-merge completeness variant the
  /// paper uses as its baseline (ablation / cross-check).
  bool sort_merge_check = false;
  uint64_t regret_interval_micros = 300ull * 1'000'000;
  /// Liveness gaps up to slack * regret interval are tolerated (regret
  /// flushing and heartbeats are edge-aligned, so 2 is the natural bound).
  uint64_t gap_slack = 3;
  /// Path of the DBMS transaction log, for the WORM-tail cross-check.
  std::string wal_path;
  RetentionResolver retention_resolver;  // may be null: skip expiry checks
  HoldResolver hold_resolver;            // may be null: skip hold checks
  /// Worker threads for the replay, final-state, and index-check phases.
  /// 1 = the serial reference path (default); 0 = hardware_concurrency.
  /// Any value produces a byte-identical report: each replayed window
  /// shards by (tree_id, pgno), the database scan chunks by pgno, and
  /// both merge deterministically.
  uint32_t num_threads = 1;
  /// Legacy full-audit ergonomics: instead of returning Busy the moment a
  /// snapshot is open or a writer is in flight, poll for quiescence until
  /// `quiesce_deadline_micros` of wall time has elapsed, then give up
  /// with Busy. Honored by the CompliantDB facade (the standalone auditor
  /// has no live engine to wait for).
  bool wait_for_quiesce = false;
  uint64_t quiesce_deadline_micros = 2'000'000;
};

/// Exit codes of the cdb_audit tool — a stable CLI contract so scripts
/// can tell "come back later" from "call the prosecutor".
enum AuditExitCode : int {
  kAuditExitCompliant = 0,
  kAuditExitTampered = 1,  // findings, or Tampered/Corruption while reading
  kAuditExitUsage = 2,
  kAuditExitBusy = 3,  // database not quiescent (legacy full audit only)
  kAuditExitIoError = 4,
};

/// Maps an audit-path Status to the exit code above (OK -> compliant).
int AuditExitCodeForStatus(const Status& s);

struct AuditTimings {
  /// Certifying the sealed epochs past the cursor's head, plus the
  /// commit-time, liveness, and stamp-index checks over what it gathered.
  double summarize_seconds = 0;
  double snapshot_seconds = 0;   // hashing/loading the previous snapshot
  /// Re-hashing the certified prefix and replaying the uncertified tail
  /// (incl. READ-hash verification).
  double replay_seconds = 0;
  double final_state_seconds = 0;  // full scan of the current database
  double index_check_seconds = 0;
  double total_seconds = 0;
};

struct AuditReport {
  std::vector<std::string> problems;
  AuditTimings timings;
  /// Historical WORM page files whose every tuple was verified shredded
  /// this epoch; deletable after the audit (whole-file WORM deletion,
  /// §VIII). Populated only on a passing audit.
  std::vector<std::string> shredded_hist_files;
  uint64_t log_records = 0;
  uint64_t pages_checked = 0;
  uint64_t tuples_checked = 0;
  uint64_t read_hashes_checked = 0;
  uint64_t shreds_verified = 0;
  uint64_t migrations_verified = 0;
  uint64_t identity_checks_run = 0;
  /// Worker threads the parallel phases actually ran with (informational;
  /// not part of the deterministic verdict).
  uint32_t threads_used = 1;

  bool ok() const { return problems.empty(); }
};

/// The external auditor (paper §IV): verifies, in one pass over the
/// compliance log plus one pass over the database, that the current state
/// is consistent with all past modifications — and, with hash-page-on-read,
/// that every page read by every transaction was untampered. On success it
/// writes the signed snapshot that seeds the next epoch.
///
/// The pass over L is an AuditCursor's: the auditor certifies the sealed
/// epochs past the cursor's head, re-hashes the windows certified before
/// against their sealed Merkle roots, and replays only the uncertified
/// rest of L. Everything on the disk side — final state, catalog, index
/// integrity, ADD_HASH identity, shreds, migrations, WAL tails — is the
/// auditor's own.
///
/// The auditor deliberately reads the database through its own hook-free
/// cache (the paper's prosecutor runs her own DBMS software against the
/// seized disks); nothing the production DBMS claims is trusted except
/// what sits on WORM.
class Auditor {
 public:
  Auditor(const AuditOptions& options, WormStore* worm, DiskManager* disk)
      : options_(options), worm_(worm), disk_(disk) {}

  /// Audits epoch `epoch`. If `write_snapshot`, a successful audit writes
  /// snapshot_{epoch+1} (a failed audit never does). `cursor`, when it
  /// is attached to `epoch` with the same READ-hash setting, is the live
  /// certification cursor to finish — only its uncertified delta is
  /// replayed — and is spent afterwards; otherwise the audit attaches a
  /// fresh cursor of its own.
  Result<AuditReport> Audit(uint64_t epoch, bool write_snapshot,
                            AuditCursor* cursor = nullptr);

  /// After a successful audit of `epoch`, superseded WORM files (the
  /// previous snapshot, L, stamp index, witness files, log tails) become
  /// releasable and are deleted.
  Status ReleaseOldFiles(uint64_t epoch);

 private:
  AuditOptions options_;
  WormStore* worm_;
  DiskManager* disk_;
};

}  // namespace complydb

#endif  // COMPLYDB_AUDIT_AUDITOR_H_

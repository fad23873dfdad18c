#ifndef COMPLYDB_SHRED_VACUUM_H_
#define COMPLYDB_SHRED_VACUUM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "btree/btree.h"
#include "common/clock.h"
#include "common/status.h"
#include "compliance/logger.h"
#include "shred/expiry.h"
#include "shred/holds.h"
#include "tsb/tsb_policy.h"
#include "wal/log_manager.h"

namespace complydb {

struct VacuumReport {
  uint64_t candidates = 0;  // expired versions found
  uint64_t shredded = 0;    // versions announced and physically erased
  uint64_t requeued = 0;    // re-vacuumed after a crash (Recheck)
  uint64_t held = 0;        // expired but protected by a litigation hold
};

/// Auditable shredding (paper §VIII): a version is vacuumable when
///  - it is stamped (committed) and was captured by the last audit's
///    snapshot (tuples are retained through at least one audit),
///  - its life has ended — it is superseded by a stamped successor, or it
///    is an end-of-life marker — and
///  - end-of-life + retention <= now, under the Expiry policy.
///
/// Protocol per victim: a SHREDDED record (tuple id, page, content hash,
/// timestamp) reaches WORM *first*; only then is the version physically
/// erased. The erase surfaces in L as an ordinary UNDO at the next pwrite,
/// which the auditor justifies against the SHREDDED record.
class Vacuumer {
 public:
  /// `now_fn` supplies the shred timestamp; it must be >= every commit
  /// time already issued (under a simulated clock, transaction ticks can
  /// run ahead of wall time, and a shred time-stamped behind a hold's
  /// release commit would look hold-violating to the auditor).
  Vacuumer(LogManager* wal, ComplianceLogger* logger,
           std::function<uint64_t()> now_fn, const ExpiryPolicy* expiry,
           const LitigationHolds* holds = nullptr)
      : wal_(wal),
        logger_(logger),
        now_fn_(std::move(now_fn)),
        expiry_(expiry),
        holds_(holds) {}

  /// Vacuums expired versions of `tree`. `last_audit_time`: only versions
  /// whose life ended at or before this time are eligible.
  Result<VacuumReport> Run(Btree* tree, uint64_t last_audit_time);

  /// Shreds whole WORM historical pages (§VIII final paragraph): a file
  /// whose every tuple has expired (and none is under hold) is announced
  /// tuple-by-tuple on L with the file name, dropped from the temporal
  /// index, and physically deleted by the auditor after verification —
  /// "the unit of deletion on WORM is an entire file."
  Result<VacuumReport> RunHistorical(Btree* tree, HistoricalStore* hist,
                                     uint64_t last_audit_time);

  /// Post-crash completion: any tuple named by one of L's SHREDDED
  /// records (`shreds`, as the logger's attach scan found them) but still
  /// present is erased ("the simplest implementation is just to re-vacuum
  /// after recovery").
  Result<VacuumReport> Recheck(const std::vector<ShredRecord>& shreds,
                               const std::map<uint32_t, Btree*>& trees);

 private:
  LogManager* wal_;
  ComplianceLogger* logger_;
  std::function<uint64_t()> now_fn_;
  const ExpiryPolicy* expiry_;
  const LitigationHolds* holds_;
};

}  // namespace complydb

#endif  // COMPLYDB_SHRED_VACUUM_H_

#ifndef COMPLYDB_DB_COMPLIANT_DB_H_
#define COMPLYDB_DB_COMPLIANT_DB_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "audit/audit_cursor.h"
#include "audit/auditor.h"
#include "audit/epoch_chain.h"
#include "btree/btree.h"
#include "common/clock.h"
#include "compliance/logger.h"
#include "shred/expiry.h"
#include "shred/holds.h"
#include "shred/vacuum.h"
#include "storage/buffer_cache.h"
#include "storage/disk_manager.h"
#include "tsb/tsb_policy.h"
#include "txn/epoch_pipeline.h"
#include "txn/recovery.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"
#include "wal/wal_io_hook.h"
#include "obs/telemetry_server.h"
#include "worm/worm_store.h"

namespace complydb {

class SnapshotReader;

/// Top-level configuration.
struct DbOptions {
  /// Directory holding the database file, transaction log, and the WORM
  /// store emulation (subdirectory `worm/`).
  std::string dir;

  /// Buffer cache capacity in 4 KB pages (the paper's 256 MB / 512 MB /
  /// 32 MB knobs, scaled). The shard count is derived from it: the
  /// largest power of two <= min(16, cache_pages / 8), at least 1. Each
  /// shard has its own hash table, free list, LRU, and mutex, so
  /// concurrent snapshot readers miss-and-load in parallel.
  size_t cache_pages = 256;

  /// Compliance machinery (§IV–§V). compliance.enabled=false gives the
  /// "native Berkeley DB" baseline of Fig. 3.
  ComplianceOptions compliance;

  /// Time-split B+-trees + WORM migration (§VI).
  bool tsb_enabled = false;
  double tsb_split_threshold = 0.5;

  /// Time source. If null, a SystemClock is owned internally; tests and
  /// benchmarks pass a SimulatedClock so regret intervals elapse on
  /// demand.
  Clock* clock = nullptr;

  /// Key whose holder can sign/verify snapshots (the auditor).
  std::string auditor_key = "auditor-secret-key";

  /// Forensic inspection mode: no recovery, no compliance appends, every
  /// mutating API refused. The view can be stale after a crash (recovery
  /// has not run); use tools/cdb_audit for the authoritative verdict.
  bool read_only = false;

  /// Run the §IV-C structural integrity check over every tree at open
  /// (after recovery) and refuse to open a corrupted database. Cheaper
  /// than a full audit; catches file-editor damage early.
  bool verify_on_open = false;

  /// TCP port for the embedded telemetry endpoint (loopback only;
  /// /metrics, /metrics.json, /trace, /healthz — see
  /// docs/OBSERVABILITY.md). 0 = disabled. The COMPLYDB_TELEMETRY_PORT
  /// environment variable, when set, overrides this; a bind failure is
  /// logged and the database opens without the endpoint (telemetry never
  /// blocks the engine).
  uint16_t telemetry_port = 0;

  /// Worker threads for Audit()'s replay/final-state/index-check phases
  /// and AuditIncremental()'s window replay. 1 = serial reference path;
  /// 0 = hardware_concurrency. The COMPLYDB_AUDIT_THREADS environment
  /// variable, when set at Open, overrides this (CI uses it to exercise
  /// the parallel path everywhere). The report is byte-identical at any
  /// thread count.
  uint32_t audit_threads = 1;

  /// Writer threads the epoch-based commit pipeline admits (see
  /// DESIGN.md, "The epoch/sequencer commit pipeline"). 1 = the serial
  /// engine, no pipeline. > 1 creates the ticket turnstile: workers
  /// reserve slots via ReserveWriteSlot/RunWriteSlot (or get an implicit
  /// slot per bare Begin), commits are sequenced in ticket order, and
  /// durability is one epoch barrier per slot — the compliance log stays
  /// byte-identical at any thread count. Forces compliance.async_shipping
  /// when compliance is enabled. The COMPLYDB_WRITE_THREADS environment
  /// variable, when set to a positive integer, overrides this.
  uint32_t write_threads = 1;

  /// Disjoint-slot scheduling (DESIGN.md, "Disjoint-slot scheduling").
  /// When true and write_threads > 1, slots that declare a
  /// single-partition footprint at ReserveWriteSlot execute concurrently
  /// against per-slot staging buffers and are replayed through the engine
  /// in ticket order; undeclared or multi-partition slots keep exclusive
  /// turnstile admission. Forced off when compliance.hash_on_read is set
  /// (execute-phase reads must not append READ_HASH records at
  /// thread-dependent times). The COMPLYDB_SLOT_SCHEDULER environment
  /// variable ("0"/"1"), when set, overrides this.
  bool slot_scheduler = true;
};

/// The compliant DBMS facade: a transaction-time key-value store over
/// B+-trees with WAL recovery, a compliance log on WORM, regret-interval
/// forcing, audits, time-split migration, and auditable shredding.
///
/// Lifecycle: Open -> transactions -> (Close for a clean shutdown, or
/// destroy the object to simulate a crash — committed work is recovered
/// from the WAL on the next Open, and the compliance machinery follows
/// §IV-B).
class CompliantDB {
 public:
  static Result<CompliantDB*> Open(const DbOptions& options);
  ~CompliantDB();

  CompliantDB(const CompliantDB&) = delete;
  CompliantDB& operator=(const CompliantDB&) = delete;

  /// Flushes everything and writes the clean-shutdown marker.
  Status Close();

  // --- schema ---
  Result<uint32_t> CreateTable(const std::string& name);
  Result<uint32_t> GetTable(const std::string& name) const;
  std::vector<std::string> ListTables() const;

  // --- secondary indexes ---
  /// Derives the indexed key from a row's value bytes. The derived key
  /// must not contain a 0x00 byte (it is the index-entry separator).
  using IndexExtractor = std::function<Result<std::string>(Slice value)>;

  /// Creates a secondary index on `table` and registers its extractor.
  /// Index entries are ordinary transaction-time tuples in their own tree
  /// — maintained inside the same transaction as the base write, so they
  /// are audited, versioned, and tamper-evident like any relation (the
  /// paper's indexes get the same §IV-C treatment).
  Result<uint32_t> CreateIndex(uint32_t table, const std::string& name,
                               IndexExtractor extractor);

  /// Re-registers the extractor for an existing index after reopen
  /// (extractors are code and cannot be persisted).
  Result<uint32_t> AttachIndex(uint32_t table, const std::string& name,
                               IndexExtractor extractor);

  /// Equality lookup: primary keys whose current row derives `secondary`,
  /// in primary-key order.
  Status ScanIndex(uint32_t index_id, Slice secondary,
                   const std::function<Status(Slice primary_key)>& fn);

  // --- multi-writer commit slots (write_threads > 1) ---
  /// Reserves the next commit-pipeline ticket. Tickets are admitted in
  /// reservation order; reserve under the same lock that decides the
  /// slot's content and the schedule is deterministic. With no pipeline
  /// this is a plain counter (RunWriteSlot runs the body inline).
  /// Undeclared footprint: exclusive turnstile admission.
  uint64_t ReserveWriteSlot();

  /// Reserves a ticket with a declared footprint. With the disjoint-slot
  /// scheduler enabled, a single-partition footprint makes the slot
  /// eligible for concurrent execution; multi-partition declarations fall
  /// back to exclusive admission (txn.scheduler.footprint_fallbacks).
  uint64_t ReserveWriteSlot(const SlotFootprint& footprint);

  /// Runs `body` inside commit slot `ticket`: blocks until the turnstile
  /// admits the ticket, runs the body (any number of Begin/Commit cycles
  /// plus reads), then releases the turnstile and waits for the epoch
  /// durability barrier covering the slot's commits. Returns the body's
  /// status, or the barrier's if the body succeeded.
  ///
  /// For a scheduler-admitted concurrent slot the body instead runs
  /// immediately against a per-slot staging buffer (reads see committed
  /// state plus the slot's own writes), and the buffered ops are replayed
  /// through the engine once the turnstile admits the ticket — observable
  /// effects are identical, but disjoint bodies overlap.
  ///
  /// `epilogue`, when provided, runs inside the slot after the body (or
  /// after the replay), i.e. serially in ticket order — drivers use it to
  /// advance the simulated clock deterministically.
  Status RunWriteSlot(uint64_t ticket, const std::function<Status()>& body);
  Status RunWriteSlot(uint64_t ticket, const std::function<Status()>& body,
                      const std::function<void()>& epilogue);

  // --- transactions ---
  Result<Transaction*> Begin();
  Status Put(Transaction* txn, uint32_t table, Slice key, Slice value);
  Status Delete(Transaction* txn, uint32_t table, Slice key);
  Status Get(uint32_t table, Slice key, std::string* value);
  Status Commit(Transaction* txn);
  Status Abort(Transaction* txn);

  // --- temporal queries ---
  /// Value of `key` as of commit time `time` (includes WORM-migrated
  /// history).
  Status GetAsOf(uint32_t table, Slice key, uint64_t time,
                 std::string* value);
  /// Full version history, oldest first (live + migrated).
  Status GetHistory(uint32_t table, Slice key, std::vector<TupleData>* out);
  /// Latest value per key over [begin, end) (end empty = unbounded).
  Status ScanCurrent(uint32_t table, Slice begin, Slice end,
                     const std::function<Status(const TupleData&)>& fn);

  // --- snapshot reads ---
  /// Opens a read handle pinned at the last commit time. Its Get/GetAsOf/
  /// ScanCurrent run concurrently with the single writer from any thread
  /// (committed versions are immutable in a transaction-time store, so no
  /// read locks are taken — see DESIGN.md, "Concurrency model"). Delete
  /// the handle to release it; Audit() reports Busy while any are open.
  Result<SnapshotReader*> BeginSnapshot();
  int open_snapshots() const {
    return open_snapshots_.load(std::memory_order_acquire);
  }

  // --- retention & shredding (§VIII) ---
  Status SetRetention(uint32_t table, uint64_t retention_micros);
  Result<VacuumReport> Vacuum(uint32_t table);

  // --- litigation holds (§IX) ---
  /// Protects every key of `table` starting with `key_prefix` from
  /// shredding until the hold is released. Audited and versioned.
  Status PlaceHold(uint32_t table, Slice key_prefix);
  Status ReleaseHold(uint32_t table, Slice key_prefix);
  Result<bool> IsHeld(uint32_t table, Slice key);

  // --- time & maintenance ---
  uint64_t Now() const { return clock_->NowMicros(); }
  /// Advances a simulated clock and performs any regret-interval work
  /// that became due (dirty-page forcing, lazy stamping, heartbeats,
  /// witness files, transaction-log tail rotation).
  Status AdvanceClock(uint64_t micros);
  Status FlushAll();

  // --- audit (§IV) ---
  /// Quiesces, flushes, audits the current epoch; on success releases
  /// superseded WORM files and begins the next epoch. The audit finishes
  /// the certification cursor, so only L past the certified head is
  /// replayed (DESIGN.md, "Incremental certification"). Runs with the
  /// configured audit_threads (or the COMPLYDB_AUDIT_THREADS override);
  /// the overload pins a specific worker count for this run.
  Result<AuditReport> Audit();
  Result<AuditReport> Audit(uint32_t num_threads);
  /// Full audit honoring caller-tuned AuditOptions knobs. The facade owns
  /// key/paths/resolvers; what it honors from `overrides` is num_threads
  /// (0 = hardware_concurrency), wait_for_quiesce and
  /// quiesce_deadline_micros (poll for quiescence on wall time instead of
  /// returning Busy immediately), and the verification toggles.
  Result<AuditReport> Audit(const AuditOptions& overrides);
  uint64_t epoch() const { return epoch_; }
  uint64_t last_audit_time() const { return last_audit_time_; }

  // --- incremental certification (online audit; DESIGN.md §"Incremental
  // certification") ---
  /// Forces an epoch seal covering everything appended to L so far: makes
  /// L durable through its current size, then seals through that offset.
  /// No-op when compliance is disabled or nothing new was appended.
  Status SealEpochNow();

  /// Certifies every sealed-but-uncertified epoch by replaying only the
  /// delta since the last certified epoch — O(delta), not O(|L|) — while
  /// readers and the multi-writer pipeline keep running (no quiescence).
  /// Seals the L tail first so the freshest commits are certifiable. On a
  /// clean run the certification marker is persisted to WORM, shrinking
  /// the trusted base to the latest certified chain root. Detected
  /// tampering surfaces as report problems (ok() == false), never as an
  /// error status. The overload pins the worker count for this run.
  Result<IncrementalAuditReport> AuditIncremental();
  Result<IncrementalAuditReport> AuditIncremental(uint32_t num_threads);

  /// Reference cross-check for the incremental path: replays the WHOLE
  /// certified chain from the epoch-seed state with a fresh cursor
  /// (ignoring any persisted certification marker) and returns the same
  /// report shape. Incremental and full-replay runs over the same chain
  /// are asserted verdict-equivalent in tests.
  Result<IncrementalAuditReport> AuditFullReplay(uint32_t num_threads);

  /// Highest sealed-epoch sequence number certified so far (0 = none).
  uint64_t CertifiedEpoch();

  struct CertificationStatus {
    bool enabled = false;         // compliance on and sealing wired
    uint64_t audit_epoch = 0;     // full-audit epoch the chain lives in
    uint64_t sealed_seq = 0;      // sealed epochs in the chain
    uint64_t sealed_offset = 0;   // L bytes covered by sealed epochs
    uint64_t certified_seq = 0;   // certified prefix of the chain
    uint64_t certified_offset = 0;
    uint64_t log_size = 0;        // current |L|
    uint64_t backlog_epochs = 0;  // sealed - certified
    uint64_t backlog_bytes = 0;   // log_size - certified_offset
    uint64_t last_incremental_us = 0;  // duration of the last run (0 = none)
    Sha256Digest chain_root{};    // last certified chain digest
  };
  Result<CertificationStatus> Certification();

  /// Builds a Merkle inclusion proof that version (`key`, `value`,
  /// `commit_time`) of `table` is committed under the last certified chain
  /// root. NotFound when nothing is certified yet or the version is newer
  /// than the certified prefix. Verify client-side with
  /// VerifyInclusionProof against an independently remembered root.
  Result<InclusionProof> ProveInclusion(uint32_t table, Slice key,
                                        Slice value, uint64_t commit_time);

  // --- statistics ---
  struct TableStats {
    std::string name;
    uint32_t tree_id = 0;
    size_t leaf_pages = 0;
    size_t internal_pages = 0;
    size_t versions = 0;
  };
  struct DbStats {
    uint64_t epoch = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t cache_evictions = 0;
    uint64_t disk_reads = 0;
    uint64_t disk_writes = 0;
    uint64_t wal_bytes = 0;
    uint64_t compliance_log_bytes = 0;
    uint64_t compliance_log_records = 0;
    uint64_t historical_pages = 0;
    uint64_t historical_tuples = 0;
    uint64_t worm_violations = 0;
    std::vector<TableStats> tables;
  };
  Result<DbStats> Stats();

  /// Process-wide metrics registry (counters, gauges, latency histograms
  /// with p50/p95/p99) as a JSON document. See docs/OBSERVABILITY.md for
  /// the metric catalog.
  std::string DumpMetricsJson() const;
  /// The same registry in Prometheus text exposition format.
  std::string DumpMetricsPrometheus() const;

  // --- introspection (tests & benchmarks) ---
  DiskManager* disk() { return disk_.get(); }
  /// The running telemetry endpoint, or null when disabled / bind failed.
  obs::TelemetryServer* telemetry() { return telemetry_.get(); }
  BufferCache* cache() { return cache_.get(); }
  LogManager* wal() { return wal_.get(); }
  WormStore* worm() { return worm_.get(); }
  ComplianceLogger* compliance_logger() { return logger_.get(); }
  TransactionManager* txns() { return txns_.get(); }
  /// The commit pipeline, or null when write_threads resolved to 1.
  CommitPipeline* write_pipeline() { return pipeline_.get(); }
  /// Writer-thread count after the COMPLYDB_WRITE_THREADS override.
  uint32_t write_threads() const { return write_threads_; }
  /// "async", "sync", or "off" — how compliance records reach WORM.
  const char* shipper_mode() const {
    if (!options_.compliance.enabled) return "off";
    return options_.compliance.async_shipping ? "async" : "sync";
  }
  /// "disjoint" (scheduler active), "turnstile" (pipeline without the
  /// scheduler), or "serial" (no pipeline).
  const char* scheduler_mode() const {
    if (pipeline_ == nullptr) return "serial";
    return pipeline_->scheduler() != nullptr ? "disjoint" : "turnstile";
  }
  HistoricalStore* historical() { return hist_.get(); }
  Btree* tree(uint32_t table) { return txns_->GetTree(table); }
  std::string db_path() const { return options_.dir + "/data.db"; }
  std::string wal_path() const { return options_.dir + "/txn.wal"; }
  const RecoveryReport& recovery_report() const { return recovery_report_; }
  bool recovered_from_crash() const { return recovered_from_crash_; }

 private:
  explicit CompliantDB(const DbOptions& options) : options_(options) {}

  Status Init();
  Status LoadCatalog();
  Status SaveCatalog();
  Status MaybeRegretTick();
  /// Replays a concurrent slot's staged ops through the engine (caller
  /// holds the open slot; runs serially in ticket order).
  Status ApplySlotBuffer(SlotWriteBuffer* buf);
  Status RotateTxTail();
  RetentionResolver MakeRetentionResolver();
  /// Lazily attaches the certification cursor to the current epoch
  /// (caller holds cert_mu_). Resets and re-attaches after a full audit
  /// bumps the epoch.
  Status EnsureCursorLocked();
  Result<AuditReport> AuditInternal(const AuditOptions& overrides);

  DbOptions options_;
  std::unique_ptr<Clock> owned_clock_;
  Clock* clock_ = nullptr;
  std::unique_ptr<WormStore> worm_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<LogManager> wal_;
  std::unique_ptr<BufferCache> cache_;
  std::unique_ptr<WalFlushHook> wal_hook_;
  std::unique_ptr<ComplianceLogger> logger_;
  std::unique_ptr<TransactionManager> txns_;
  std::unique_ptr<CommitPipeline> pipeline_;
  uint32_t write_threads_ = 1;
  uint64_t serial_slot_seq_ = 0;  // ReserveWriteSlot without a pipeline
  std::unique_ptr<HistoricalStore> hist_;
  std::unique_ptr<TimeSplitPolicy> split_policy_;
  std::unique_ptr<ExpiryPolicy> expiry_;
  std::unique_ptr<LitigationHolds> holds_;
  std::unique_ptr<Vacuumer> vacuumer_;
  std::unique_ptr<obs::TelemetryServer> telemetry_;

  struct TableInfo {
    uint32_t tree_id = 0;
    PageId root = kInvalidPage;
    std::string name;
    std::unique_ptr<Btree> tree;
  };
  struct IndexInfo {
    uint32_t index_tree = 0;
    IndexExtractor extractor;
  };

  std::map<std::string, uint32_t> table_ids_;
  std::map<uint32_t, TableInfo> tables_;
  std::map<uint32_t, std::vector<IndexInfo>> indexes_;  // base table -> idx
  uint32_t next_tree_id_ = 1;
  uint32_t expiry_tree_id_ = 0;
  uint32_t holds_tree_id_ = 0;

  // --- incremental certification state ---
  // Lock order: cert_mu_ -> sealer's internal mutex -> worm mutex. The
  // pipeline's seal hook takes only the sealer mutex, so it never crosses
  // cert_mu_ and readers/writers stay independent of certification runs.
  std::unique_ptr<EpochSealer> sealer_;
  std::mutex cert_mu_;
  std::unique_ptr<AuditCursor> cursor_;  // guarded by cert_mu_
  std::atomic<uint64_t> last_incremental_us_{0};

  uint64_t epoch_ = 0;
  uint64_t last_audit_time_ = 0;
  uint64_t last_regret_tick_ = 0;
  uint64_t txtail_seq_ = 0;
  RecoveryReport recovery_report_;
  bool recovered_from_crash_ = false;
  bool closed_ = false;
  std::atomic<int> open_snapshots_{0};
};

}  // namespace complydb

#endif  // COMPLYDB_DB_COMPLIANT_DB_H_

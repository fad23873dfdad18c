#include "db/compliant_db.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "btree/integrity.h"
#include "txn/slot_buffer.h"
#include "db/snapshot_reader.h"
#include "common/coding.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/telemetry_server.h"

namespace fs = std::filesystem;

namespace complydb {

namespace {
constexpr char kExpiryTableName[] = "__expiry";
constexpr char kHoldsTableName[] = "__holds";

std::string CleanMarkerPath(const std::string& dir) {
  return dir + "/CLEAN";
}

struct DbMetrics {
  obs::Counter* regret_ticks;
  obs::Histogram* regret_tick_us;
  obs::Histogram* commit_us;
  DbMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    regret_ticks = reg.GetCounter("db.regret_ticks");
    regret_tick_us = reg.GetHistogram("db.regret_tick_us");
    commit_us = reg.GetHistogram("db.commit_us");
  }
};
DbMetrics& Dm() {
  static DbMetrics m;
  return m;
}
}  // namespace

Result<CompliantDB*> CompliantDB::Open(const DbOptions& options) {
  auto db = std::unique_ptr<CompliantDB>(new CompliantDB(options));
  Status s = db->Init();
  if (!s.ok()) return s;
  return db.release();
}

CompliantDB::~CompliantDB() = default;

Status CompliantDB::Init() {
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) return Status::IOError("create dir: " + ec.message());

  if (options_.clock != nullptr) {
    clock_ = options_.clock;
  } else {
    owned_clock_ = std::make_unique<SystemClock>();
    clock_ = owned_clock_.get();
  }

  // Embedded telemetry endpoint (opt-in). Bind failures are reported but
  // never fail the open: losing /metrics must not take the database with
  // it, and the scrape job's non-200 makes the loss visible anyway.
  uint16_t telemetry_port = options_.telemetry_port;
  if (const char* env = std::getenv("COMPLYDB_TELEMETRY_PORT")) {
    char* end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v <= 65535) {
      telemetry_port = static_cast<uint16_t>(v);
    }
  }
  if (telemetry_port != 0) {
    auto server = obs::TelemetryServer::Start(telemetry_port);
    if (server.ok()) {
      telemetry_ = std::move(server.value());
    } else {
      std::fprintf(stderr, "complydb: telemetry disabled: %s\n",
                   server.status().ToString().c_str());
    }
  }

  auto worm = WormStore::Open(options_.dir + "/worm", clock_);
  if (!worm.ok()) return worm.status();
  worm_.reset(worm.value());
  worm_->set_flush_latency_micros(options_.worm_flush_latency_micros);

  auto disk = DiskManager::Open(db_path());
  if (!disk.ok()) return disk.status();
  disk_.reset(disk.value());
  disk_->set_latency_micros(options_.io_latency_micros);
  if (options_.io_read_latency_micros != 0) {
    disk_->set_read_latency_micros(options_.io_read_latency_micros);
  }

  auto wal = LogManager::Open(wal_path());
  if (!wal.ok()) return wal.status();
  wal_.reset(wal.value());

  size_t shards = options_.cache_shards;
  if (shards == 0) {
    // Auto-sharding: enough shards that concurrent snapshot readers'
    // misses overlap their (simulated) I/O, few enough that each shard
    // still holds a useful LRU (>= ~8 frames per shard).
    size_t limit = std::min<size_t>(
        16, std::max<size_t>(1, options_.cache_pages / 8));
    shards = 1;
    while (shards * 2 <= limit) shards *= 2;
  }
  cache_ = std::make_unique<BufferCache>(disk_.get(), options_.cache_pages,
                                         shards);

  bool fresh = disk_->PageCount() == 0;
  bool crashed = !fresh && !fs::exists(CleanMarkerPath(options_.dir));
  if (options_.read_only) {
    if (fresh) return Status::InvalidArgument("read-only open of empty db");
  } else {
    fs::remove(CleanMarkerPath(options_.dir), ec);
  }

  if (fresh) {
    // Meta page 0: the catalog. Written before any hook is attached.
    Page* meta = nullptr;
    Result<PageId> alloc = cache_->NewPage(&meta);
    if (!alloc.ok()) return alloc.status();
    if (alloc.value() != kMetaPage) return Status::Corruption("meta pgno");
    meta->Format(kMetaPage, PageType::kMeta, 0, 0);
    cache_->Unpin(kMetaPage, true);
    CDB_RETURN_IF_ERROR(SaveCatalog());
    CDB_RETURN_IF_ERROR(cache_->FlushAll());
  }

  // Async shipping can be forced on or off from the environment (CI runs
  // the whole suite both ways without rebuilding).
  if (const char* env = std::getenv("COMPLYDB_COMPLIANCE_ASYNC")) {
    options_.compliance.async_shipping = env[0] != '0' && env[0] != '\0';
  }
  if (options_.read_only) {
    // A read-only facade appends nothing, so it reports the sync policy,
    // and it must not repair the stamp index (that writes to WORM).
    options_.compliance.async_shipping = false;
    options_.compliance.repair_stamp_index = false;
  }

  // Multi-writer commit pipeline (DESIGN.md, "The epoch/sequencer commit
  // pipeline"). Resolved before the logger exists because a pipeline
  // forces the async flush policy. Both policies are safe under the
  // pipeline (the log's tail is internally synchronized), but the epoch
  // barrier is the pipeline's group commit: per-hook sync flushes would
  // add a WORM round trip per hook inside the turnstile, and the
  // benchmark's multi-writer configuration is pinned to "async".
  write_threads_ = options_.write_threads == 0 ? 1 : options_.write_threads;
  if (const char* env = std::getenv("COMPLYDB_WRITE_THREADS")) {
    char* end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      write_threads_ = static_cast<uint32_t>(v);
    }
  }
  if (options_.read_only) write_threads_ = 1;
  // CI (and operators) force the parallel audit path everywhere via env.
  if (const char* env = std::getenv("COMPLYDB_AUDIT_THREADS")) {
    char* end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0') {
      options_.audit_threads = static_cast<uint32_t>(v);
    }
  }
  if (write_threads_ > 1 && options_.compliance.enabled) {
    options_.compliance.async_shipping = true;
  }

  // Compliance epoch discovery from WORM (the trustworthy namespace).
  logger_ = std::make_unique<ComplianceLogger>(options_.compliance,
                                               worm_.get(), disk_.get(),
                                               clock_);
  std::unique_ptr<Snapshot> snapshot;
  std::vector<ShredRecord> shreds;  // L's SHREDDED records, from the attach
  if (options_.compliance.enabled) {
    uint64_t max_epoch = 0;
    bool found = false;
    for (const auto& name : worm_->ListPrefix("L_")) {
      uint64_t e = std::strtoull(name.c_str() + 2, nullptr, 10);
      max_epoch = std::max(max_epoch, e);
      found = true;
    }
    if (!found) {
      epoch_ = 0;
      CDB_RETURN_IF_ERROR(logger_->StartFreshEpoch(0));
    } else {
      epoch_ = max_epoch;
      if (worm_->Exists(SnapshotFileName(epoch_))) {
        auto snap = Snapshot::ReadVerified(worm_.get(), epoch_,
                                           options_.auditor_key);
        if (!snap.ok()) return snap.status();
        snapshot = std::make_unique<Snapshot>(snap.TakeValue());
        last_audit_time_ = snapshot->audit_time;
      }
      CDB_RETURN_IF_ERROR(
          logger_->AttachToEpoch(epoch_, snapshot.get(), &shreds));
    }
  }

  // Hook order: WAL rule first, then compliance (see WalFlushHook).
  wal_hook_ = std::make_unique<WalFlushHook>(wal_.get());
  if (!options_.read_only) {
    cache_->AddHook(wal_hook_.get());
    if (options_.compliance.enabled) cache_->AddHook(logger_.get());
  }

  txns_ = std::make_unique<TransactionManager>(
      wal_.get(), clock_,
      options_.compliance.enabled ? logger_.get() : nullptr);

  if (write_threads_ > 1) {
    CommitPipeline::BarrierFn barrier;
    if (options_.compliance.enabled) {
      // One durability barrier per epoch: flush the deferred WAL tail
      // mirror (one WORM round trip for the whole epoch's commits), then
      // wait the epoch's compliance records durable on WORM.
      // The local WAL fflush already happened per-commit at sequencing.
      ComplianceLogger* logger = logger_.get();
      LogManager* wal = wal_.get();
      barrier = [logger, wal](uint64_t offset) {
        CDB_RETURN_IF_ERROR(wal->FlushTailMirror());
        return logger->WaitCommitDurable(offset);
      };
      wal_->set_tail_deferred(true);
    }
    pipeline_ = std::make_unique<CommitPipeline>(std::move(barrier));
    // Disjoint-slot scheduling (DESIGN.md, "Disjoint-slot scheduling").
    // Forced off under hash_on_read: execute-phase reads would append
    // READ_HASH records at thread-dependent times, breaking L identity.
    bool scheduler_on = options_.slot_scheduler;
    if (const char* env = std::getenv("COMPLYDB_SLOT_SCHEDULER")) {
      scheduler_on = env[0] != '0' && env[0] != '\0';
    }
    if (scheduler_on && !options_.compliance.hash_on_read) {
      pipeline_->EnableScheduler();
    }
    txns_->SetPipeline(pipeline_.get());
  }

  // Epoch sealing (DESIGN.md, "Incremental certification"): the regret
  // tick seals L's durable prefix into the hash chain on WORM, making it
  // an audit unit. A pre-existing chain that fails verification disables
  // sealing for this run rather than blocking the open — the auditor owns
  // the tamper verdict, and a database that cannot open cannot be
  // audited online.
  if (options_.compliance.enabled && !options_.read_only) {
    sealer_ = std::make_unique<EpochSealer>(worm_.get());
    Status attach = sealer_->Attach(epoch_);
    if (!attach.ok()) {
      std::fprintf(stderr, "complydb: epoch sealing disabled: %s\n",
                   attach.ToString().c_str());
      sealer_.reset();
    }
  }

  hist_ = std::make_unique<HistoricalStore>(worm_.get());
  CDB_RETURN_IF_ERROR(hist_->LoadAll());
  // Historical files shredded this epoch (their WORM deletion waits for
  // the next audit) must not resurface in the temporal index.
  for (const ShredRecord& shred : shreds) {
    if (shred.hist_name.empty()) continue;
    Status s = hist_->DropFile(shred.hist_name);
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  if (options_.tsb_enabled) {
    split_policy_ =
        std::make_unique<TimeSplitPolicy>(options_.tsb_split_threshold);
  }

  // The catalog may be ahead on the WAL (a crash right after CreateTable):
  // redo meta-page images first, so LoadCatalog registers every tree that
  // full recovery will need for undo.
  if (crashed && !options_.read_only) {
    Page* meta = nullptr;
    CDB_RETURN_IF_ERROR(cache_->FetchPage(kMetaPage, &meta));
    PageGuard guard(cache_.get(), kMetaPage, meta);
    CDB_RETURN_IF_ERROR(wal_->Scan([&](const WalRecord& rec) -> Status {
      if (rec.type == WalRecordType::kPageImage && rec.pgno == kMetaPage &&
          (!meta->IsFormatted() || meta->lsn() < rec.lsn)) {
        std::memcpy(meta->data(), rec.page_image.data(), kPageSize);
        meta->set_lsn(rec.lsn);
        guard.MarkDirty();
      }
      return Status::OK();
    }));
  }
  CDB_RETURN_IF_ERROR(LoadCatalog());

  if (options_.read_only) {
    // Inspection mode: rebuild the committed-transaction table from the
    // WAL without applying anything.
    CDB_RETURN_IF_ERROR(wal_->Scan([&](const WalRecord& rec) -> Status {
      if (rec.txn_id != 0) txns_->BumpTick(rec.txn_id);
      if (rec.type == WalRecordType::kCommit) {
        txns_->RestoreCommittedTxn(rec.txn_id, rec.commit_time);
      }
      return Status::OK();
    }));
    recovered_from_crash_ = false;
  } else {
    // Crash recovery (a no-op analysis pass on clean opens, which also
    // rebuilds the committed-transaction table for temporal reads).
    RecoveryManager recovery(wal_.get(), cache_.get(), txns_.get(),
                             options_.compliance.enabled ? logger_.get()
                                                         : nullptr,
                             last_audit_time_);
    auto report = recovery.Run(crashed);
    if (!report.ok()) return report.status();
    recovery_report_ = report.value();
    recovered_from_crash_ = crashed;
  }
  // The WAL is truncated at each audit, so it cannot witness pre-audit
  // ticks; the signed audit time bounds them (no id/commit-time issued
  // before an audit exceeds the last commit that audit covered).
  txns_->BumpTick(last_audit_time_);

  if (options_.compliance.enabled && crashed && !options_.read_only) {
    // Finish any interrupted vacuuming (§VIII).
    std::map<uint32_t, Btree*> trees;
    for (auto& [id, info] : tables_) trees[id] = info.tree.get();
    Vacuumer rechecker(
        wal_.get(), logger_.get(),
        [this] {
          return std::max(clock_->NowMicros(),
                          txns_->last_commit_time() + 1);
        },
        nullptr);
    auto r = rechecker.Recheck(shreds, trees);
    if (!r.ok()) return r.status();
  }

  // The expiry relation is a regular audited table, created on first use.
  auto expiry_it = table_ids_.find(kExpiryTableName);
  if (expiry_it == table_ids_.end() && options_.read_only) {
    expiry_tree_id_ = 0;
  } else if (expiry_it == table_ids_.end()) {
    auto created = CreateTable(kExpiryTableName);
    if (!created.ok()) return created.status();
    expiry_tree_id_ = created.value();
  } else {
    expiry_tree_id_ = expiry_it->second;
  }
  expiry_ = std::make_unique<ExpiryPolicy>(tree(expiry_tree_id_));

  auto holds_it = table_ids_.find(kHoldsTableName);
  if (holds_it == table_ids_.end() && options_.read_only) {
    holds_tree_id_ = 0;
  } else if (holds_it == table_ids_.end()) {
    auto created = CreateTable(kHoldsTableName);
    if (!created.ok()) return created.status();
    holds_tree_id_ = created.value();
  } else {
    holds_tree_id_ = holds_it->second;
  }
  holds_ = std::make_unique<LitigationHolds>(tree(holds_tree_id_));

  vacuumer_ = std::make_unique<Vacuumer>(
      wal_.get(), options_.compliance.enabled ? logger_.get() : nullptr,
      [this] {
        return std::max(clock_->NowMicros(), txns_->last_commit_time() + 1);
      },
      expiry_.get(), holds_.get());

  if (options_.verify_on_open) {
    for (const auto& [id, info] : tables_) {
      auto check = CheckTreeIntegrity(cache_.get(), id, info.root);
      if (!check.ok()) return check.status();
      if (!check.value().ok()) {
        return Status::Tampered("tree '" + info.name +
                                "' fails integrity at open: " +
                                check.value().problems[0]);
      }
    }
  }

  last_regret_tick_ = clock_->NowMicros();
  if (options_.compliance.enabled && !options_.read_only) {
    // Tail names must not collide with tails from previous runs of this
    // epoch (they are only deleted at audit).
    for (const auto& name : worm_->ListPrefix("txtail_")) {
      if (name.size() >= 24) {
        uint64_t seq = std::strtoull(name.c_str() + 16, nullptr, 10);
        txtail_seq_ = std::max(txtail_seq_, seq + 1);
      }
    }
    CDB_RETURN_IF_ERROR(RotateTxTail());
    // Open is a full-flush point: attach-time page reads may have left
    // READ_HASH records in the log's tail, and external auditors read
    // L straight off the WORM store the moment Open returns.
    CDB_RETURN_IF_ERROR(logger_->FlushLog());
  }
  return Status::OK();
}

Status CompliantDB::Close() {
  if (closed_) return Status::OK();
  telemetry_.reset();  // stop serving before the engine winds down
  if (options_.read_only) {
    closed_ = true;  // nothing to flush; never fabricate a CLEAN marker
    return Status::OK();
  }
  CDB_RETURN_IF_ERROR(txns_->StampPending(0));
  CDB_RETURN_IF_ERROR(cache_->FlushAll());
  CDB_RETURN_IF_ERROR(wal_->FlushAll());
  CDB_RETURN_IF_ERROR(logger_->FlushLog());
  std::ofstream marker(CleanMarkerPath(options_.dir));
  if (!marker.is_open()) return Status::IOError("clean marker");
  marker << "clean\n";
  marker.close();
  closed_ = true;
  return Status::OK();
}

// --- catalog ---------------------------------------------------------

Status CompliantDB::LoadCatalog() {
  Page* meta = nullptr;
  CDB_RETURN_IF_ERROR(cache_->FetchPage(kMetaPage, &meta));
  PageGuard guard(cache_.get(), kMetaPage, meta);
  if (meta->type() != PageType::kMeta || meta->slot_count() == 0) {
    return Status::OK();  // empty catalog
  }
  Slice rec = meta->RecordAt(0);
  Decoder dec(Slice(rec.data() + 2, rec.size() - 2));  // skip len prefix
  uint32_t count = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&count));
  for (uint32_t i = 0; i < count; ++i) {
    TableInfo info;
    CDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&info.name));
    CDB_RETURN_IF_ERROR(dec.GetFixed32(&info.tree_id));
    CDB_RETURN_IF_ERROR(dec.GetFixed32(&info.root));
    BtreeEnv env;
    env.cache = cache_.get();
    env.wal = wal_.get();
    env.observer = options_.compliance.enabled ? logger_.get() : nullptr;
    env.split_policy = split_policy_.get();
    env.migration = options_.tsb_enabled ? hist_.get() : nullptr;
    info.tree = std::make_unique<Btree>(env, info.tree_id, info.root);
    txns_->RegisterTree(info.tree_id, info.tree.get());
    next_tree_id_ = std::max(next_tree_id_, info.tree_id + 1);
    table_ids_[info.name] = info.tree_id;
    tables_[info.tree_id] = std::move(info);
  }
  return Status::OK();
}

Status CompliantDB::SaveCatalog() {
  std::string body;
  PutFixed32(&body, static_cast<uint32_t>(tables_.size()));
  for (const auto& [id, info] : tables_) {
    PutLengthPrefixed(&body, info.name);
    PutFixed32(&body, info.tree_id);
    PutFixed32(&body, info.root);
  }
  std::string record;
  PutFixed16(&record, static_cast<uint16_t>(2 + body.size()));
  record += body;

  Page* meta = nullptr;
  CDB_RETURN_IF_ERROR(cache_->FetchPage(kMetaPage, &meta));
  PageGuard guard(cache_.get(), kMetaPage, meta);
  if (meta->slot_count() > 0) CDB_RETURN_IF_ERROR(meta->EraseRecord(0));
  CDB_RETURN_IF_ERROR(meta->InsertRecord(0, record));
  // The catalog must survive a crash: log a redo image.
  WalRecord wal_rec;
  wal_rec.type = WalRecordType::kPageImage;
  wal_rec.pgno = kMetaPage;
  wal_rec.page_image.assign(meta->data(), kPageSize);
  meta->set_lsn(wal_->Append(&wal_rec));
  guard.MarkDirty();
  return Status::OK();
}

Result<uint32_t> CompliantDB::CreateTable(const std::string& name) {
  if (options_.read_only) return Status::NotSupported("read-only open");
  if (table_ids_.count(name) > 0) {
    return Status::InvalidArgument("table exists: " + name);
  }
  uint32_t tree_id = next_tree_id_++;
  auto root = Btree::Create(cache_.get(), tree_id, wal_.get());
  if (!root.ok()) return root.status();

  if (options_.compliance.enabled) {
    CDB_RETURN_IF_ERROR(logger_->OnNewTree(tree_id, root.value(), name));
  }

  TableInfo info;
  info.tree_id = tree_id;
  info.root = root.value();
  info.name = name;
  BtreeEnv env;
  env.cache = cache_.get();
  env.wal = wal_.get();
  env.observer = options_.compliance.enabled ? logger_.get() : nullptr;
  env.split_policy = split_policy_.get();
  env.migration = options_.tsb_enabled ? hist_.get() : nullptr;
  info.tree = std::make_unique<Btree>(env, tree_id, root.value());
  txns_->RegisterTree(tree_id, info.tree.get());
  table_ids_[name] = tree_id;
  tables_[tree_id] = std::move(info);

  CDB_RETURN_IF_ERROR(SaveCatalog());
  CDB_RETURN_IF_ERROR(wal_->FlushAll());
  return tree_id;
}

Result<uint32_t> CompliantDB::GetTable(const std::string& name) const {
  auto it = table_ids_.find(name);
  if (it == table_ids_.end()) return Status::NotFound("no table: " + name);
  return it->second;
}

std::vector<std::string> CompliantDB::ListTables() const {
  std::vector<std::string> names;
  for (const auto& [name, id] : table_ids_) names.push_back(name);
  return names;
}

// --- secondary indexes -------------------------------------------------

namespace {
std::string IndexTableName(const std::string& base, const std::string& name) {
  return "__idx__" + base + "__" + name;
}
std::string IndexEntryKey(Slice secondary, Slice primary) {
  std::string key(secondary.data(), secondary.size());
  key.push_back('\0');
  key.append(primary.data(), primary.size());
  return key;
}
}  // namespace

Result<uint32_t> CompliantDB::CreateIndex(uint32_t table,
                                          const std::string& name,
                                          IndexExtractor extractor) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::InvalidArgument("unknown table");
  auto created = CreateTable(IndexTableName(it->second.name, name));
  if (!created.ok()) return created.status();
  indexes_[table].push_back(IndexInfo{created.value(), std::move(extractor)});
  return created.value();
}

Result<uint32_t> CompliantDB::AttachIndex(uint32_t table,
                                          const std::string& name,
                                          IndexExtractor extractor) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::InvalidArgument("unknown table");
  auto existing = GetTable(IndexTableName(it->second.name, name));
  if (!existing.ok()) return existing.status();
  for (const auto& info : indexes_[table]) {
    if (info.index_tree == existing.value()) return existing.value();
  }
  indexes_[table].push_back(
      IndexInfo{existing.value(), std::move(extractor)});
  return existing.value();
}

Status CompliantDB::ScanIndex(
    uint32_t index_id, Slice secondary,
    const std::function<Status(Slice primary_key)>& fn) {
  if (tree(index_id) == nullptr) {
    return Status::InvalidArgument("unknown index");
  }
  std::string begin(secondary.data(), secondary.size());
  begin.push_back('\0');
  std::string end(secondary.data(), secondary.size());
  end.push_back('\x01');
  // Through ScanCurrent so execute-phase index writes staged in the slot
  // buffer are merged into the scan.
  return ScanCurrent(index_id, begin, end, [&](const TupleData& entry) {
    Slice primary(entry.key.data() + secondary.size() + 1,
                  entry.key.size() - secondary.size() - 1);
    return fn(primary);
  });
}

// --- transactions ----------------------------------------------------

uint64_t CompliantDB::ReserveWriteSlot() {
  if (pipeline_ != nullptr) return pipeline_->ReserveTicket();
  return serial_slot_seq_++;
}

uint64_t CompliantDB::ReserveWriteSlot(const SlotFootprint& footprint) {
  if (pipeline_ == nullptr) return serial_slot_seq_++;
  if (pipeline_->scheduler() == nullptr) return pipeline_->ReserveTicket();
  if (footprint.partitions.empty()) {
    return pipeline_->ReserveTicket(SlotScheduler::Admission::kExclusive, 0);
  }
  if (footprint.partitions.size() > 1) {
    // Cross-partition slots keep exclusive admission: the conflict table
    // tracks one partition per ticket, and multi-partition footprints are
    // rare enough (remote TPC-C transactions) that serializing them is
    // cheaper than a full interval check.
    return pipeline_->ReserveTicket(SlotScheduler::Admission::kFallback, 0);
  }
  return pipeline_->ReserveTicket(SlotScheduler::Admission::kConcurrent,
                                  footprint.partitions[0]);
}

Status CompliantDB::RunWriteSlot(uint64_t ticket,
                                 const std::function<Status()>& body) {
  return RunWriteSlot(ticket, body, std::function<void()>());
}

Status CompliantDB::RunWriteSlot(uint64_t ticket,
                                 const std::function<Status()>& body,
                                 const std::function<void()>& epilogue) {
  if (pipeline_ == nullptr) {
    (void)ticket;  // serial engine: the body already runs in slot order
    Status s = body();
    if (epilogue) epilogue();
    return s;
  }
  SlotScheduler* sched = pipeline_->scheduler();
  if (sched != nullptr && sched->IsConcurrent(ticket)) {
    // Execute phase: once every earlier undone slot is footprint-disjoint,
    // run the body against a staging buffer — reads see committed state
    // plus the slot's own writes, and nothing touches the engine yet.
    SlotWriteBuffer buf;
    pipeline_->BeginExecute(ticket, &buf);
    Status body_status = body();
    pipeline_->EndExecute();
    // Apply phase: the turnstile serializes the replay in ticket order,
    // so every L append lands exactly where a serial run would put it.
    pipeline_->OpenSlot(ticket, /*implicit=*/false);
    Status apply = ApplySlotBuffer(&buf);
    if (epilogue) epilogue();
    Status epoch = pipeline_->CloseSlot();
    if (!body_status.ok()) return body_status;
    if (!apply.ok()) return apply;
    return epoch;
  }
  pipeline_->OpenSlot(ticket, /*implicit=*/false);
  Status s = body();
  if (epilogue) epilogue();
  Status epoch = pipeline_->CloseSlot();
  return s.ok() ? epoch : s;
}

Status CompliantDB::ApplySlotBuffer(SlotWriteBuffer* buf) {
  // Replays the execute phase's op log through the real engine inside the
  // open slot. Begin/Commit/Abort take the full facade path (stamping,
  // regret ticks, commit spans); Put/Delete go straight to the engine —
  // index maintenance already ran at execute time and recorded its index
  // writes as explicit ops.
  Transaction* txn = nullptr;
  Status s;
  for (const auto& op : buf->ops()) {
    switch (op.kind) {
      case SlotWriteBuffer::OpKind::kBegin: {
        auto begun = Begin();
        if (begun.ok()) {
          txn = begun.value();
        } else {
          s = begun.status();
        }
        break;
      }
      case SlotWriteBuffer::OpKind::kPut:
        s = txns_->Put(txn, op.tree_id, op.key, op.value);
        break;
      case SlotWriteBuffer::OpKind::kDelete:
        s = txns_->Delete(txn, op.tree_id, op.key);
        break;
      case SlotWriteBuffer::OpKind::kCommit:
        s = Commit(txn);
        txn = nullptr;
        break;
      case SlotWriteBuffer::OpKind::kAbort:
        s = Abort(txn);
        txn = nullptr;
        break;
    }
    if (!s.ok()) break;
  }
  if (txn != nullptr) {
    // A body that failed mid-transaction left it open in the buffer; the
    // engine must not stay wedged with an active transaction.
    Status abort = Abort(txn);
    if (s.ok()) s = abort;
  }
  return s;
}

Result<Transaction*> CompliantDB::Begin() {
  if (options_.read_only) return Status::NotSupported("read-only open");
  // Scheduler execute phase: the transaction is staged in the slot's
  // write buffer (TransactionManager routes there); no turnstile, no
  // implicit slot — the replay at apply time opens the real one.
  if (pipeline_ != nullptr && pipeline_->ExecBuffer() != nullptr) {
    return txns_->Begin();
  }
  // Pipeline mode: a bare Begin outside any explicit slot opens its own
  // implicit one — the turnstile wait happens here, and Commit/Abort
  // close the slot (so a standalone transaction keeps durable-on-return
  // semantics through the epoch barrier).
  bool opened = false;
  if (pipeline_ != nullptr && !pipeline_->InSlot()) {
    pipeline_->OpenSlot(pipeline_->ReserveTicket(), /*implicit=*/true);
    opened = true;
  }
  auto txn = txns_->Begin();
  if (!txn.ok() && opened) (void)pipeline_->CloseSlot();
  return txn;
}

Status CompliantDB::Put(Transaction* txn, uint32_t table, Slice key,
                        Slice value) {
  auto idx = indexes_.find(table);
  if (idx == indexes_.end() || idx->second.empty()) {
    return txns_->Put(txn, table, key, value);
  }
  // Maintain every index inside the same transaction: write the base row
  // once, then per index retire the stale entry and add the new one.
  std::string old_value;
  Status got = txns_->Get(txn, table, key, &old_value);
  if (!got.ok() && !got.IsNotFound()) return got;
  CDB_RETURN_IF_ERROR(txns_->Put(txn, table, key, value));
  for (const auto& info : idx->second) {
    auto new_secondary = info.extractor(value);
    if (!new_secondary.ok()) return new_secondary.status();
    if (new_secondary.value().find('\0') != std::string::npos) {
      return Status::InvalidArgument("indexed key contains NUL");
    }
    if (got.ok()) {
      auto old_secondary = info.extractor(old_value);
      if (old_secondary.ok()) {
        if (old_secondary.value() == new_secondary.value()) {
          continue;  // the live entry already points here
        }
        CDB_RETURN_IF_ERROR(
            txns_->Delete(txn, info.index_tree,
                          IndexEntryKey(old_secondary.value(), key)));
      }
    }
    CDB_RETURN_IF_ERROR(txns_->Put(
        txn, info.index_tree, IndexEntryKey(new_secondary.value(), key),
        ""));
  }
  return Status::OK();
}

Status CompliantDB::Delete(Transaction* txn, uint32_t table, Slice key) {
  auto idx = indexes_.find(table);
  if (idx != indexes_.end()) {
    std::string old_value;
    Status got = txns_->Get(txn, table, key, &old_value);
    if (!got.ok()) return got;
    for (const auto& info : idx->second) {
      auto old_secondary = info.extractor(old_value);
      if (old_secondary.ok()) {
        CDB_RETURN_IF_ERROR(
            txns_->Delete(txn, info.index_tree,
                          IndexEntryKey(old_secondary.value(), key)));
      }
    }
  }
  return txns_->Delete(txn, table, key);
}

Status CompliantDB::Get(uint32_t table, Slice key, std::string* value) {
  return txns_->Get(nullptr, table, key, value);
}

Status CompliantDB::Commit(Transaction* txn) {
  // A deferred (execute-phase) transaction commits into its slot buffer;
  // the metrics and spans below fire at replay, when the commit is real.
  if (txn != nullptr && txn->slot_buffer() != nullptr) {
    return txn->slot_buffer()->Commit(txn);
  }
  // End-to-end commit latency as the client sees it: WAL flush, the
  // compliance barrier, background stamping, and any regret tick that
  // fires on this call — the tail async shipping exists to shorten.
  obs::ScopedLatencyTimer timer(Dm().commit_us);
  // Covers the same window as the timer and decomposes it: the compliance
  // log and WORM layers attribute their intervals to this thread's slot, and
  // the close emits the commit span plus its foreground/queued/drain/
  // worm_flush segments (docs/OBSERVABILITY.md, "Spans").
  obs::ScopedCommitSpan span(txn != nullptr ? txn->id() : 0);
  Status s = txns_->Commit(txn);
  if (s.ok()) {
    span.set_commit_time(txns_->last_commit_time());
    // The background timestamper keeps pace with commits (the regret tick
    // is its hard deadline; this is its steady-state progress). Small
    // per-commit slices instead of periodic bursts: total stamping work is
    // unchanged, but no single commit absorbs a 32-transaction backlog —
    // the bursts used to be the commit tail right below the regret ticks.
    if (txns_->pending_stamp_count() >= 4) s = txns_->StampPending(2);
    if (s.ok()) s = MaybeRegretTick();
    // Commit boundaries are the drain points for the dirty-threshold
    // checkpoint: they occur at the same logical position in every
    // execution schedule (serial or pipelined-apply), so the flush batch
    // lands at an identical offset in L regardless of thread count.
    if (s.ok()) s = cache_->CheckpointIfNeeded();
  }
  // An implicit slot closes with its commit: maintenance above stayed
  // inside the turnstile; only the epoch durability wait remains. Runs on
  // the error path too, or the turnstile would wedge.
  if (pipeline_ != nullptr && pipeline_->InImplicitSlot()) {
    Status epoch = pipeline_->CloseSlot();
    if (s.ok()) s = epoch;
  }
  return s;
}

Status CompliantDB::Abort(Transaction* txn) {
  if (txn != nullptr && txn->slot_buffer() != nullptr) {
    return txn->slot_buffer()->Abort(txn);
  }
  Status s = txns_->Abort(txn);
  if (s.ok()) s = MaybeRegretTick();
  if (s.ok()) s = cache_->CheckpointIfNeeded();
  if (pipeline_ != nullptr && pipeline_->InImplicitSlot()) {
    Status epoch = pipeline_->CloseSlot();
    if (s.ok()) s = epoch;
  }
  return s;
}

// --- temporal --------------------------------------------------------

Status CompliantDB::GetAsOf(uint32_t table, Slice key, uint64_t time,
                            std::string* value) {
  std::vector<TupleData> versions;
  CDB_RETURN_IF_ERROR(GetHistory(table, key, &versions));
  const TupleData* best = nullptr;
  uint64_t best_time = 0;
  for (const auto& v : versions) {
    uint64_t commit;
    if (v.stamped) {
      commit = v.start;
    } else {
      auto r = txns_->ResolveCommitTime(v.start);
      if (!r.ok()) continue;
      commit = r.value();
    }
    if (commit <= time && (best == nullptr || commit >= best_time)) {
      best = &v;
      best_time = commit;
    }
  }
  if (best == nullptr || best->eol) {
    return Status::NotFound("no version as of time");
  }
  *value = best->value;
  return Status::OK();
}

Status CompliantDB::GetHistory(uint32_t table, Slice key,
                               std::vector<TupleData>* out) {
  Btree* t = tree(table);
  if (t == nullptr) return Status::InvalidArgument("unknown table");
  out->clear();
  std::vector<TupleData> migrated = hist_->GetVersions(table, key);
  std::vector<TupleData> live;
  CDB_RETURN_IF_ERROR(t->GetVersions(key, &live));
  out->reserve(migrated.size() + live.size());
  for (auto& v : migrated) out->push_back(std::move(v));
  for (auto& v : live) out->push_back(std::move(v));
  std::stable_sort(out->begin(), out->end(),
                   [](const TupleData& a, const TupleData& b) {
                     return a.start < b.start;
                   });
  // A crash between the WORM write of a historical page and its MIGRATE
  // record can leave a version both in the orphan page and the live tree;
  // versions are unique by start time, so dedup here.
  out->erase(std::unique(out->begin(), out->end(),
                         [](const TupleData& a, const TupleData& b) {
                           return a.start == b.start;
                         }),
             out->end());
  return Status::OK();
}

Status CompliantDB::ScanCurrent(
    uint32_t table, Slice begin, Slice end,
    const std::function<Status(const TupleData&)>& fn) {
  Btree* t = tree(table);
  if (t == nullptr) return Status::InvalidArgument("unknown table");
  SlotWriteBuffer* buf =
      pipeline_ != nullptr ? pipeline_->ExecBuffer() : nullptr;
  if (buf == nullptr) return t->ScanRangeCurrent(begin, end, fn);
  // Scheduler execute phase: merge the slot's staged writes into the
  // committed scan in key order, so a body sees its own (buffered)
  // effects exactly as it would inside a real slot. A Busy callback
  // stops the merged scan the same way it stops the raw one.
  std::map<std::string, std::optional<std::string>> overlay;
  buf->CollectRange(table, begin, end, &overlay);
  if (overlay.empty()) return t->ScanRangeCurrent(begin, end, fn);
  auto it = overlay.begin();
  bool stopped = false;
  auto emit = [&](const TupleData& entry) -> Status {
    Status cb = fn(entry);
    if (cb.IsBusy()) stopped = true;
    return cb;
  };
  Status s = t->ScanRangeCurrent(
      begin, end, [&](const TupleData& entry) -> Status {
        // Slot-inserted keys that sort before this committed key.
        while (it != overlay.end() && it->first < entry.key) {
          if (it->second.has_value()) {
            TupleData synth;
            synth.key = it->first;
            synth.value = *it->second;
            Status cb = emit(synth);
            if (!cb.ok()) return cb;  // Busy stops the tree scan too
          }
          ++it;
        }
        if (it != overlay.end() && it->first == entry.key) {
          const std::optional<std::string> over = it->second;
          ++it;
          if (!over.has_value()) return Status::OK();  // deleted in slot
          TupleData shadowed = entry;
          shadowed.value = *over;
          return emit(shadowed);
        }
        return emit(entry);
      });
  if (!s.ok() || stopped) return s;
  // Slot-inserted keys past the last committed key in range.
  for (; it != overlay.end(); ++it) {
    if (!it->second.has_value()) continue;
    TupleData synth;
    synth.key = it->first;
    synth.value = *it->second;
    Status cb = fn(synth);
    if (cb.IsBusy()) return Status::OK();
    if (!cb.ok()) return cb;
  }
  return Status::OK();
}

// --- snapshot reads --------------------------------------------------

Result<SnapshotReader*> CompliantDB::BeginSnapshot() {
  return new SnapshotReader(this, txns_.get(), hist_.get(),
                            txns_->last_commit_time(), &open_snapshots_);
}

// --- retention & shredding -------------------------------------------

Status CompliantDB::SetRetention(uint32_t table, uint64_t retention_micros) {
  auto txn = Begin();
  if (!txn.ok()) return txn.status();
  Status s = Put(txn.value(), expiry_tree_id_, ExpiryPolicy::KeyFor(table),
                 ExpiryPolicy::EncodeRetention(retention_micros));
  if (!s.ok()) {
    (void)Abort(txn.value());
    return s;
  }
  return Commit(txn.value());
}

Result<VacuumReport> CompliantDB::Vacuum(uint32_t table) {
  if (options_.read_only) return Status::NotSupported("read-only open");
  Btree* t = tree(table);
  if (t == nullptr) return Status::InvalidArgument("unknown table");
  auto live = vacuumer_->Run(t, last_audit_time_);
  if (!live.ok()) return live.status();
  VacuumReport total = live.value();
  if (options_.tsb_enabled) {
    auto hist = vacuumer_->RunHistorical(t, hist_.get(), last_audit_time_);
    if (!hist.ok()) return hist.status();
    total.candidates += hist.value().candidates;
    total.shredded += hist.value().shredded;
    total.held += hist.value().held;
  }
  return total;
}

// --- litigation holds (§IX) --------------------------------------------

Status CompliantDB::PlaceHold(uint32_t table, Slice key_prefix) {
  auto txn = Begin();
  if (!txn.ok()) return txn.status();
  Status s = Put(txn.value(), holds_tree_id_,
                 LitigationHolds::KeyFor(table, key_prefix), "subpoena");
  if (!s.ok()) {
    (void)Abort(txn.value());
    return s;
  }
  CDB_RETURN_IF_ERROR(Commit(txn.value()));
  // Holds must be stamped promptly so hold checks resolve by commit time.
  // Stamping mutates tree pages, so in pipeline mode it needs its own
  // slot (Commit closed the implicit one above).
  return RunWriteSlot(ReserveWriteSlot(),
                      [this] { return txns_->StampPending(0); });
}

Status CompliantDB::ReleaseHold(uint32_t table, Slice key_prefix) {
  auto txn = Begin();
  if (!txn.ok()) return txn.status();
  Status s = Delete(txn.value(), holds_tree_id_,
                    LitigationHolds::KeyFor(table, key_prefix));
  if (!s.ok()) {
    (void)Abort(txn.value());
    return s;
  }
  CDB_RETURN_IF_ERROR(Commit(txn.value()));
  return RunWriteSlot(ReserveWriteSlot(),
                      [this] { return txns_->StampPending(0); });
}

Result<bool> CompliantDB::IsHeld(uint32_t table, Slice key) {
  if (holds_->tree() == nullptr) return false;
  return holds_->IsHeldNow(table, key);
}

// --- time & maintenance ----------------------------------------------

Status CompliantDB::AdvanceClock(uint64_t micros) {
  auto* sim = dynamic_cast<SimulatedClock*>(clock_);
  if (sim == nullptr) {
    return Status::NotSupported("AdvanceClock requires a SimulatedClock");
  }
  sim->AdvanceMicros(micros);
  return MaybeRegretTick();
}

Status CompliantDB::MaybeRegretTick() {
  uint64_t now = clock_->NowMicros();
  uint64_t regret = options_.compliance.regret_interval_micros;
  if (now - last_regret_tick_ < regret) return Status::OK();
  last_regret_tick_ = now;
  Dm().regret_ticks->Inc();
  obs::ScopedLatencyTimer timer(Dm().regret_tick_us);
  obs::ScopedSpan span(obs::SpanKind::kRegretTick, epoch_);

  // Lazy stamping catches up, then the mark/sweep dirty-page forcing
  // guarantees every committed tuple's NEW_TUPLE reaches WORM within the
  // regret window (§IV-A).
  uint64_t writes_before = disk_->writes();
  CDB_RETURN_IF_ERROR(txns_->StampPending(0));
  CDB_RETURN_IF_ERROR(cache_->FlushMarkedAndRemark());
  CDB_RETURN_IF_ERROR(wal_->FlushAll());
  if (options_.compliance.enabled) {
    CDB_RETURN_IF_ERROR(logger_->Tick(now));
    CDB_RETURN_IF_ERROR(RotateTxTail());
    // The regret tick is the one seal point: the chain keeps pace with the
    // regret window. It runs inside the writer's slot, so the sealed
    // offsets are the same at any writer count.
    if (sealer_ != nullptr) CDB_RETURN_IF_ERROR(SealEpochNow());
  }
  span.set_arg(disk_->writes() - writes_before);
  return Status::OK();
}

Status CompliantDB::RotateTxTail() {
  return wal_->StartTail(worm_.get(), TxTailFileName(epoch_, txtail_seq_++),
                         0);
}

Status CompliantDB::FlushAll() {
  CDB_RETURN_IF_ERROR(txns_->StampPending(0));
  CDB_RETURN_IF_ERROR(cache_->FlushAll());
  CDB_RETURN_IF_ERROR(wal_->FlushAll());
  CDB_RETURN_IF_ERROR(wal_->FlushTailMirror());
  // Drain the compliance ring last: quiescing (Audit) must leave nothing
  // in flight.
  return logger_->FlushLog();
}

// --- statistics ----------------------------------------------------------

Result<CompliantDB::DbStats> CompliantDB::Stats() {
  DbStats stats;
  stats.epoch = epoch_;
  stats.cache_hits = cache_->hits();
  stats.cache_misses = cache_->misses();
  stats.cache_evictions = cache_->evictions();
  stats.disk_reads = disk_->reads();
  stats.disk_writes = disk_->writes();
  stats.wal_bytes = wal_->durable_lsn() - wal_->base_lsn();
  if (options_.compliance.enabled && logger_->log() != nullptr) {
    stats.compliance_log_bytes = logger_->log()->size();
    stats.compliance_log_records = logger_->log()->record_count();
  }
  stats.historical_pages = hist_->page_count();
  stats.historical_tuples = hist_->tuple_count();
  stats.worm_violations = worm_->violation_count();
  for (const auto& [id, info] : tables_) {
    TableStats ts;
    ts.name = info.name;
    ts.tree_id = id;
    auto pages = info.tree->CountPages();
    if (pages.ok()) {
      ts.leaf_pages = pages.value().leaf_pages;
      ts.internal_pages = pages.value().internal_pages;
    }
    CDB_RETURN_IF_ERROR(info.tree->ScanAll([&](PageId, const TupleData&) {
      ++ts.versions;
      return Status::OK();
    }));
    stats.tables.push_back(std::move(ts));
  }
  return stats;
}

std::string CompliantDB::DumpMetricsJson() const {
  return obs::MetricsRegistry::Global().ToJson();
}

std::string CompliantDB::DumpMetricsPrometheus() const {
  return obs::MetricsRegistry::Global().ToPrometheusText();
}

// --- audit -------------------------------------------------------------

RetentionResolver CompliantDB::MakeRetentionResolver() {
  ExpiryPolicy* expiry = expiry_.get();
  return [expiry](uint32_t tree_id, uint64_t at_time) {
    return expiry->At(tree_id, at_time);
  };
}

Result<AuditReport> CompliantDB::Audit() {
  return Audit(options_.audit_threads);
}

Result<AuditReport> CompliantDB::Audit(uint32_t num_threads) {
  AuditOptions overrides;
  overrides.num_threads = num_threads;
  return AuditInternal(overrides);
}

Result<AuditReport> CompliantDB::Audit(const AuditOptions& overrides) {
  return AuditInternal(overrides);
}

Result<AuditReport> CompliantDB::AuditInternal(const AuditOptions& overrides) {
  if (!options_.compliance.enabled) {
    return Status::NotSupported("compliance logging is disabled");
  }
  if (options_.read_only) {
    return Status::NotSupported(
        "read-only open: use the standalone cdb_audit tool");
  }
  auto quiescent = [this]() -> Status {
    const int snapshots = open_snapshots_.load(std::memory_order_acquire);
    uint64_t writers = txns_->HasActiveTxn() ? 1 : 0;
    if (pipeline_ != nullptr) {
      writers = std::max(writers, pipeline_->in_flight());
    }
    if (snapshots > 0 || writers > 0) {
      return Status::Busy("audit requires a quiescent database (" +
                          std::to_string(snapshots) + " snapshots open, " +
                          std::to_string(writers) + " writers in flight)");
    }
    return Status::OK();
  };
  Status quiet = quiescent();
  if (!quiet.ok() && overrides.wait_for_quiesce) {
    // Poll on wall time, not the database clock: simulated clocks only
    // advance on demand, and the snapshots we wait on are wall-clock
    // events (another thread releasing its handle).
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(overrides.quiesce_deadline_micros);
    while (!quiet.ok() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      quiet = quiescent();
    }
  }
  if (!quiet.ok()) return quiet;
  // Quiesce: lazy updates reach disk, everything flushed.
  CDB_RETURN_IF_ERROR(FlushAll());

  AuditOptions opts;
  opts.auditor_key = options_.auditor_key;
  opts.verify_read_hashes =
      overrides.verify_read_hashes && options_.compliance.hash_on_read;
  opts.identity_hash_check = overrides.identity_hash_check;
  opts.sort_merge_check = overrides.sort_merge_check;
  opts.gap_slack = overrides.gap_slack;
  opts.regret_interval_micros = options_.compliance.regret_interval_micros;
  opts.wal_path = wal_path();
  opts.retention_resolver = MakeRetentionResolver();
  LitigationHolds* holds = holds_.get();
  opts.hold_resolver = [holds](uint32_t tree_id, const std::string& key,
                               uint64_t at_time) {
    return holds->IsHeld(tree_id, key, at_time);
  };
  opts.num_threads = overrides.num_threads;

  // The audit finishes the live certification cursor: only the
  // uncertified delta of L is replayed. It spends the cursor whatever the
  // verdict, so the next certification run attaches afresh.
  std::unique_lock<std::mutex> cert_lock(cert_mu_);
  AuditCursor* live = EnsureCursorLocked().ok() ? cursor_.get() : nullptr;
  Auditor auditor(opts, worm_.get(), disk_.get());
  auto report = auditor.Audit(epoch_, /*write_snapshot=*/true, live);
  cursor_.reset();
  cert_lock.unlock();
  if (!report.ok()) return report.status();

  if (report.value().ok()) {
    last_audit_time_ = txns_->last_commit_time();
    // Whole-file WORM deletion of fully-shredded historical pages
    // (§VIII): "then the tuple will truly cease to exist."
    for (const auto& name : report.value().shredded_hist_files) {
      if (!worm_->Exists(name)) continue;
      CDB_RETURN_IF_ERROR(worm_->ReleaseRetention(name));
      CDB_RETURN_IF_ERROR(worm_->Delete(name));
    }
    CDB_RETURN_IF_ERROR(auditor.ReleaseOldFiles(epoch_));
    // The audit is a durable checkpoint: everything it verified is on
    // disk, so pre-audit WAL records can never be needed for redo again.
    CDB_RETURN_IF_ERROR(wal_->Truncate());
    ++epoch_;
    CDB_RETURN_IF_ERROR(logger_->StartFreshEpoch(epoch_));
    txtail_seq_ = 0;
    CDB_RETURN_IF_ERROR(RotateTxTail());
    // The chain restarts with the fresh epoch: the full audit just
    // re-established trust from first principles, so the old chain
    // (released above) has nothing left to certify.
    std::lock_guard<std::mutex> lock(cert_mu_);
    last_incremental_us_.store(0, std::memory_order_relaxed);
    if (sealer_ != nullptr) {
      CDB_RETURN_IF_ERROR(sealer_->Attach(epoch_));
    }
  }
  return report;
}

// --- incremental certification ----------------------------------------

namespace {
obs::Gauge* BacklogGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("audit.epoch.backlog");
  return g;
}
}  // namespace

Status CompliantDB::SealEpochNow() {
  if (!options_.compliance.enabled || options_.read_only) {
    return Status::NotSupported("epoch sealing requires live compliance");
  }
  if (sealer_ == nullptr) {
    return Status::NotSupported("epoch sealing is disabled");
  }
  const uint64_t size = logger_->LogSize();
  if (size == 0) return Status::OK();
  // Seal only durable bytes: a sealed range that a crash could shorten
  // would read back as tampering.
  CDB_RETURN_IF_ERROR(logger_->WaitCommitDurable(size));
  return sealer_->SealThrough(size);
}

Status CompliantDB::EnsureCursorLocked() {
  if (cursor_ != nullptr) return Status::OK();
  AuditCursor::Options copts;
  copts.auditor_key = options_.auditor_key;
  copts.verify_read_hashes = options_.compliance.hash_on_read;
  auto cursor = std::make_unique<AuditCursor>(copts, worm_.get());
  CDB_RETURN_IF_ERROR(cursor->Attach(epoch_));
  cursor_ = std::move(cursor);
  return Status::OK();
}

Result<IncrementalAuditReport> CompliantDB::AuditIncremental() {
  return AuditIncremental(options_.audit_threads);
}

Result<IncrementalAuditReport> CompliantDB::AuditIncremental(
    uint32_t num_threads) {
  if (!options_.compliance.enabled) {
    return Status::NotSupported("compliance logging is disabled");
  }
  if (options_.read_only) {
    return Status::NotSupported(
        "read-only open: use the standalone cdb_audit tool");
  }
  if (sealer_ == nullptr) {
    return Status::NotSupported("epoch sealing is disabled");
  }
  // No quiescence: sealing the tail and certifying the delta both run
  // against immutable L prefixes while readers and writers continue.
  CDB_RETURN_IF_ERROR(SealEpochNow());

  std::lock_guard<std::mutex> lock(cert_mu_);
  CDB_RETURN_IF_ERROR(EnsureCursorLocked());
  auto chain = ReadEpochChain(worm_.get(), epoch_);
  if (!chain.ok()) {
    if (!chain.status().IsTampered() && !chain.status().IsCorruption()) {
      return chain.status();
    }
    // A chain that no longer verifies is a finding, not an error.
    IncrementalAuditReport rep;
    rep.problems.push_back(chain.status().ToString());
    rep.all_problems = cursor_->problems();
    rep.all_problems.push_back(chain.status().ToString());
    rep.certified_seq = cursor_->certified_seq();
    rep.certified_offset = cursor_->certified_offset();
    rep.chain_root = cursor_->certified_root();
    return rep;
  }
  auto rep = [&]() -> Result<IncrementalAuditReport> {
    obs::ScopedSpan span(obs::SpanKind::kAuditIncremental, epoch_,
                         chain.value().size() - cursor_->certified_seq());
    return cursor_->CertifyThrough(chain.value(), num_threads);
  }();
  if (!rep.ok()) return rep.status();
  if (rep.value().ok()) {
    CDB_RETURN_IF_ERROR(cursor_->PersistCertification());
  }
  last_incremental_us_.store(
      static_cast<uint64_t>(rep.value().seconds * 1e6),
      std::memory_order_relaxed);
  BacklogGauge()->Set(static_cast<int64_t>(sealer_->sealed_seq() -
                                           cursor_->certified_seq()));
  return rep;
}

Result<IncrementalAuditReport> CompliantDB::AuditFullReplay(
    uint32_t num_threads) {
  if (!options_.compliance.enabled) {
    return Status::NotSupported("compliance logging is disabled");
  }
  if (options_.read_only) {
    return Status::NotSupported(
        "read-only open: use the standalone cdb_audit tool");
  }
  if (sealer_ == nullptr) {
    return Status::NotSupported("epoch sealing is disabled");
  }
  CDB_RETURN_IF_ERROR(SealEpochNow());
  AuditCursor::Options copts;
  copts.auditor_key = options_.auditor_key;
  copts.verify_read_hashes = options_.compliance.hash_on_read;
  AuditCursor cursor(copts, worm_.get());
  CDB_RETURN_IF_ERROR(cursor.AttachFresh(epoch_));
  auto chain = ReadEpochChain(worm_.get(), epoch_);
  if (!chain.ok()) {
    if (!chain.status().IsTampered() && !chain.status().IsCorruption()) {
      return chain.status();
    }
    IncrementalAuditReport rep;
    rep.problems.push_back(chain.status().ToString());
    rep.all_problems = rep.problems;
    return rep;
  }
  return cursor.CertifyThrough(chain.value(), num_threads);
}

uint64_t CompliantDB::CertifiedEpoch() {
  std::lock_guard<std::mutex> lock(cert_mu_);
  if (cursor_ == nullptr && !EnsureCursorLocked().ok()) return 0;
  return cursor_->certified_seq();
}

Result<CompliantDB::CertificationStatus> CompliantDB::Certification() {
  CertificationStatus cs;
  cs.enabled = options_.compliance.enabled && !options_.read_only &&
               sealer_ != nullptr;
  cs.audit_epoch = epoch_;
  if (!cs.enabled) return cs;
  cs.log_size = logger_->LogSize();
  cs.sealed_seq = sealer_->sealed_seq();
  cs.sealed_offset = sealer_->sealed_offset();
  std::lock_guard<std::mutex> lock(cert_mu_);
  CDB_RETURN_IF_ERROR(EnsureCursorLocked());
  cs.certified_seq = cursor_->certified_seq();
  cs.certified_offset = cursor_->certified_offset();
  cs.backlog_epochs = cs.sealed_seq - cs.certified_seq;
  cs.backlog_bytes =
      cs.log_size > cs.certified_offset ? cs.log_size - cs.certified_offset
                                        : 0;
  cs.last_incremental_us = last_incremental_us_.load(std::memory_order_relaxed);
  cs.chain_root = cursor_->certified_root();
  return cs;
}

Result<InclusionProof> CompliantDB::ProveInclusion(uint32_t table, Slice key,
                                                   Slice value,
                                                   uint64_t commit_time) {
  if (!options_.compliance.enabled) {
    return Status::NotSupported("compliance logging is disabled");
  }
  std::lock_guard<std::mutex> lock(cert_mu_);
  CDB_RETURN_IF_ERROR(EnsureCursorLocked());
  return cursor_->ProveInclusion(table, key, value, commit_time);
}

}  // namespace complydb

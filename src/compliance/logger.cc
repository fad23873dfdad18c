#include "compliance/logger.h"

#include "btree/tuple.h"
#include "obs/metrics.h"

namespace complydb {

namespace {
struct ComplianceMetrics {
  obs::Counter* records;
  obs::Counter* heartbeats;
  obs::Counter* witnesses;
  obs::Counter* shred_intents;
  obs::Histogram* write_stall_us;
  obs::Histogram* barrier_stall_us;
  ComplianceMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    records = reg.GetCounter("compliance.records");
    heartbeats = reg.GetCounter("compliance.heartbeats");
    witnesses = reg.GetCounter("compliance.witnesses");
    shred_intents = reg.GetCounter("shred.intents");
    write_stall_us = reg.GetHistogram("compliance.write_stall_us");
    barrier_stall_us = reg.GetHistogram("compliance.barrier_stall_us");
  }
};
ComplianceMetrics& Cm() {
  static ComplianceMetrics m;
  return m;
}
}  // namespace

Status ComplianceLogger::MaybeSyncFlush() {
  if (log_ == nullptr) return Status::OK();
  if (options_.async_shipping) return Status::OK();
  return log_->Flush();
}

Status ComplianceLogger::FlushLog() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled || log_ == nullptr) return Status::OK();
  return log_->Flush();
}

Status ComplianceLogger::StartFreshEpoch(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return Status::OK();
  log_ = std::make_unique<ComplianceLog>(worm_, epoch);
  CDB_RETURN_IF_ERROR(log_->Create());
  baseline_.clear();
  index_baseline_.clear();
  unsynced_.clear();
  evict_queue_.clear();
  page_high_water_.clear();
  stamps_on_log_.clear();
  aborts_on_log_.clear();
  uint64_t now = clock_->NowMicros();
  last_stamp_activity_ = now;
  last_witness_time_ = now;
  witness_seq_ = 0;
  return Status::OK();
}

Status ComplianceLogger::AttachToEpoch(uint64_t epoch,
                                       const Snapshot* snapshot,
                                       bool repair_stamp_index,
                                       std::vector<ShredRecord>* shreds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return Status::OK();
  // Rebuild the diff baseline as replay(snapshot, L): this is the page
  // content the log already accounts for, which after crash recovery can
  // be ahead of the on-disk images (logged splits whose pages never
  // flushed) — diffing against disk would emit unjustified UNDOs.
  // Rebuilding (not verifying) consults no transaction outcomes, so the
  // log's one open scan both replays L and summarizes it.
  LogSummary summary;
  PageReplayer replayer(PageReplayer::Options{}, nullptr);
  if (snapshot != nullptr) {
    for (const auto& page : snapshot->pages) {
      replayer.SeedPage(page.tree_id, page.pgno, page.records);
    }
    for (const auto& page : snapshot->index_pages) {
      replayer.SeedIndexPage(page.tree_id, page.pgno, page.records);
    }
  }
  log_ = std::make_unique<ComplianceLog>(worm_, epoch, repair_stamp_index);
  CDB_RETURN_IF_ERROR(
      log_->OpenExisting([&](const CRecord& rec, uint64_t offset) {
        SummarizeRecord(rec, offset, &summary);
        return replayer.Apply(rec, offset);
      }));

  baseline_.clear();
  index_baseline_.clear();
  unsynced_.clear();
  evict_queue_.clear();
  page_high_water_.clear();
  for (const auto& [key, state] : replayer.pages()) {
    baseline_[key.second] = state;
    NoteCached(key.second, /*is_index=*/false, /*disk_synced=*/false);
  }
  for (const auto& [key, state] : replayer.index_pages()) {
    index_baseline_[key.second] = state;
    NoteCached(key.second, /*is_index=*/true, /*disk_synced=*/false);
  }
  stamps_on_log_ = std::move(summary.stamps);
  aborts_on_log_ = std::move(summary.aborts);
  if (shreds != nullptr) *shreds = std::move(summary.shreds);
  uint64_t now = clock_->NowMicros();
  last_stamp_activity_ = now;
  last_witness_time_ = now;
  witness_seq_ = worm_->ListPrefix("witness_").size();
  return Status::OK();
}

ComplianceLogger::PageState ComplianceLogger::StateFromImage(
    const Page& image) {
  PageState state;
  for (uint16_t i = 0; i < image.slot_count(); ++i) {
    Slice rec = image.RecordAt(i);
    TupleData t;
    if (DecodeTuple(rec, &t).ok()) {
      state[t.order_no] = std::string(rec.data(), rec.size());
    }
  }
  return state;
}

Result<ComplianceLogger::PageState> ComplianceLogger::BaselineFor(
    PageId pgno) {
  if (options_.cache_page_images) {
    auto it = baseline_.find(pgno);
    if (it != baseline_.end()) return it->second;
  }
  // Fallback: fetch the old image from the storage server — the extra I/O
  // the paper's page cache exists to avoid (§IV-A).
  if (pgno >= disk_->PageCount()) return PageState{};
  Page old;
  CDB_RETURN_IF_ERROR(disk_->ReadPage(pgno, &old));
  if (!old.IsFormatted() || old.type() != PageType::kBtreeLeaf) {
    return PageState{};
  }
  return StateFromImage(old);
}

ComplianceLogger::IndexState ComplianceLogger::IndexStateFromImage(
    const Page& image) {
  IndexState state;
  for (uint16_t i = 0; i < image.slot_count(); ++i) {
    Slice rec = image.RecordAt(i);
    auto key = PageReplayer::IndexEntrySortKey(rec);
    if (key.ok()) state[key.value()] = std::string(rec.data(), rec.size());
  }
  return state;
}

Result<ComplianceLogger::IndexState> ComplianceLogger::IndexBaselineFor(
    PageId pgno) {
  if (options_.cache_page_images) {
    auto it = index_baseline_.find(pgno);
    if (it != index_baseline_.end()) return it->second;
  }
  if (pgno >= disk_->PageCount()) return IndexState{};
  Page old;
  CDB_RETURN_IF_ERROR(disk_->ReadPage(pgno, &old));
  if (!old.IsFormatted() || old.type() != PageType::kBtreeInternal) {
    return IndexState{};
  }
  return IndexStateFromImage(old);
}

Status ComplianceLogger::EmitIndexDiff(uint32_t tree_id, PageId pgno,
                                       const IndexState& old_state,
                                       const IndexState& new_state) {
  for (const auto& [sort_key, entry] : new_state) {
    auto it = old_state.find(sort_key);
    if (it != old_state.end() && it->second == entry) continue;
    if (it != old_state.end()) {
      CRecord gone;
      gone.type = CRecordType::kIndexRemove;
      gone.tree_id = tree_id;
      gone.pgno = pgno;
      gone.tuple = it->second;
      CDB_RETURN_IF_ERROR(Append(gone));
    }
    CRecord rec;
    rec.type = CRecordType::kIndexAdd;
    rec.tree_id = tree_id;
    rec.pgno = pgno;
    rec.tuple = entry;
    rec.timestamp = clock_->NowMicros();
    CDB_RETURN_IF_ERROR(Append(rec));
  }
  for (const auto& [sort_key, entry] : old_state) {
    if (new_state.count(sort_key) > 0) continue;
    CRecord rec;
    rec.type = CRecordType::kIndexRemove;
    rec.tree_id = tree_id;
    rec.pgno = pgno;
    rec.tuple = entry;
    rec.timestamp = clock_->NowMicros();
    CDB_RETURN_IF_ERROR(Append(rec));
  }
  return Status::OK();
}

void ComplianceLogger::NoteCached(PageId pgno, bool is_index,
                                  bool disk_synced) {
  if (options_.max_cached_pages == 0) return;  // unbounded: no bookkeeping
  if (disk_synced) {
    unsynced_.erase(pgno);
    evict_queue_.emplace_back(pgno, is_index);
  } else {
    unsynced_.insert(pgno);
  }
  size_t scanned = 0;
  size_t limit = evict_queue_.size();
  while (baseline_.size() + index_baseline_.size() >
             options_.max_cached_pages &&
         scanned++ < limit && !evict_queue_.empty()) {
    auto [victim, victim_is_index] = evict_queue_.front();
    evict_queue_.pop_front();
    if (victim == pgno || unsynced_.count(victim) > 0) {
      evict_queue_.emplace_back(victim, victim_is_index);
      continue;
    }
    if (victim_is_index) {
      index_baseline_.erase(victim);
    } else {
      baseline_.erase(victim);
    }
  }
}

// Records are appended unflushed. In sync mode every public hook flushes
// before it returns, so the "on WORM before the operation proceeds"
// contract holds at one syscall per hook instead of one per record. In
// async mode the flush moves to the two barriers (OnPageWriteBarrier and
// the commit/tick/shred full flush); the per-page high-water mark
// recorded here is what the pwrite barrier waits on.
Status ComplianceLogger::Append(const CRecord& rec) {
  Cm().records->Inc();
  CDB_RETURN_IF_ERROR(log_->AppendUnflushed(rec));
  if (options_.async_shipping) {
    uint64_t end = log_->size();
    if (rec.pgno != kInvalidPage) page_high_water_[rec.pgno] = end;
    if (rec.new_pgno != kInvalidPage) page_high_water_[rec.new_pgno] = end;
    if (rec.third_pgno != kInvalidPage) page_high_water_[rec.third_pgno] = end;
  }
  return Status::OK();
}

Status ComplianceLogger::EmitDiff(uint32_t tree_id, PageId pgno,
                                  const PageState& old_state,
                                  const PageState& new_state) {
  for (const auto& [order_no, rec_bytes] : new_state) {
    auto old_it = old_state.find(order_no);
    if (old_it == old_state.end()) {
      CRecord rec;
      rec.type = CRecordType::kNewTuple;
      rec.tree_id = tree_id;
      rec.pgno = pgno;
      rec.tuple = rec_bytes;
      rec.timestamp = clock_->NowMicros();
      CDB_RETURN_IF_ERROR(Append(rec));
      ++stats_.new_tuples;
      continue;
    }
    if (old_it->second == rec_bytes) continue;

    TupleData before, after;
    Status sb = DecodeTuple(old_it->second, &before);
    Status sa = DecodeTuple(rec_bytes, &after);
    bool is_stamp = sb.ok() && sa.ok() && !before.stamped && after.stamped &&
                    before.key == after.key && before.value == after.value &&
                    before.eol == after.eol;
    if (is_stamp) {
      CRecord rec;
      rec.type = CRecordType::kStampPage;
      rec.tree_id = tree_id;
      rec.pgno = pgno;
      rec.order_no = order_no;
      rec.txn_id = before.start;
      rec.commit_time = after.start;
      CDB_RETURN_IF_ERROR(Append(rec));
      ++stats_.stamps;
    } else {
      // An in-place content change is never a legitimate operation; log it
      // faithfully as remove+insert — the audit will flag the UNDO.
      CRecord undo;
      undo.type = CRecordType::kUndo;
      undo.tree_id = tree_id;
      undo.pgno = pgno;
      undo.tuple = old_it->second;
      CDB_RETURN_IF_ERROR(Append(undo));
      ++stats_.undos;
      CRecord fresh;
      fresh.type = CRecordType::kNewTuple;
      fresh.tree_id = tree_id;
      fresh.pgno = pgno;
      fresh.tuple = rec_bytes;
      CDB_RETURN_IF_ERROR(Append(fresh));
      ++stats_.new_tuples;
    }
  }
  for (const auto& [order_no, rec_bytes] : old_state) {
    if (new_state.count(order_no) > 0) continue;
    CRecord rec;
    rec.type = CRecordType::kUndo;
    rec.tree_id = tree_id;
    rec.pgno = pgno;
    rec.tuple = rec_bytes;
    rec.timestamp = clock_->NowMicros();
    CDB_RETURN_IF_ERROR(Append(rec));
    ++stats_.undos;
  }
  return Status::OK();
}

Status ComplianceLogger::OnPageRead(PageId pgno, const Page& image) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return Status::OK();
  if (!image.IsFormatted()) return Status::OK();
  if (image.type() == PageType::kBtreeInternal) {
    IndexState state = IndexStateFromImage(image);
    if (options_.hash_on_read && !in_recovery_) {
      CRecord rec;
      rec.type = CRecordType::kReadHashIndex;
      rec.tree_id = image.tree_id();
      rec.pgno = pgno;
      Sha256Digest hs = PageReplayer::HashIndexState(state);
      rec.hash.assign(reinterpret_cast<const char*>(hs.data()), hs.size());
      rec.timestamp = clock_->NowMicros();
      CDB_RETURN_IF_ERROR(Append(rec));
      ++stats_.read_hashes;
    }
    if (options_.cache_page_images && index_baseline_.count(pgno) == 0) {
      index_baseline_[pgno] = std::move(state);
      NoteCached(pgno, /*is_index=*/true, /*disk_synced=*/true);
    }
    return MaybeSyncFlush();
  }
  if (image.type() != PageType::kBtreeLeaf) {
    return Status::OK();
  }
  PageState state = StateFromImage(image);
  // Reads during crash recovery are internal: redo may not have brought
  // the page forward yet, and no transaction consumes the bytes. Only
  // post-recovery (user) reads are hash-logged (§V).
  if (options_.hash_on_read && !in_recovery_) {
    CRecord rec;
    rec.type = CRecordType::kReadHash;
    rec.tree_id = image.tree_id();
    rec.pgno = pgno;
    Sha256Digest hs = PageReplayer::HashPageState(state);
    rec.hash.assign(reinterpret_cast<const char*>(hs.data()), hs.size());
    rec.timestamp = clock_->NowMicros();
    CDB_RETURN_IF_ERROR(Append(rec));
    ++stats_.read_hashes;
  }
  // Seed the baseline only if this page is unknown: after a crash the
  // L-derived baseline can be *ahead* of the on-disk image (a logged split
  // whose pages never flushed), and must not be clobbered by stale disk
  // content — recovery redo brings the page forward before its next write.
  if (options_.cache_page_images && baseline_.count(pgno) == 0) {
    baseline_[pgno] = std::move(state);
    NoteCached(pgno, /*is_index=*/false, /*disk_synced=*/true);
  }
  // Async: read-hash records wait in the tail; they are durable by the next
  // commit/tick barrier, within the regret-window guarantee the auditor
  // checks.
  return MaybeSyncFlush();
}

Status ComplianceLogger::OnPageWrite(PageId pgno, const Page& image) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return Status::OK();
  if (!image.IsFormatted()) return Status::OK();
  // The pwrite may not proceed until every record of its diff is durable
  // on WORM — this histogram is the time transactions spend stalled on
  // that rule.
  obs::ScopedLatencyTimer stall(Cm().write_stall_us);
  if (image.type() == PageType::kBtreeInternal) {
    Result<IndexState> old_state = IndexBaselineFor(pgno);
    if (!old_state.ok()) return old_state.status();
    IndexState new_state = IndexStateFromImage(image);
    CDB_RETURN_IF_ERROR(
        EmitIndexDiff(image.tree_id(), pgno, old_state.value(), new_state));
    if (options_.cache_page_images) {
      index_baseline_[pgno] = std::move(new_state);
      NoteCached(pgno, /*is_index=*/true, /*disk_synced=*/true);
    }
    return MaybeSyncFlush();
  }
  if (image.type() != PageType::kBtreeLeaf) {
    return Status::OK();
  }
  Result<PageState> old_state = BaselineFor(pgno);
  if (!old_state.ok()) return old_state.status();
  PageState new_state = StateFromImage(image);
  CDB_RETURN_IF_ERROR(
      EmitDiff(image.tree_id(), pgno, old_state.value(), new_state));
  if (options_.cache_page_images) {
    baseline_[pgno] = std::move(new_state);
    NoteCached(pgno, /*is_index=*/false, /*disk_synced=*/true);
  }
  // Async: the durability stall happens in OnPageWriteBarrier, after
  // every hook has appended its records for the whole write-out batch.
  return MaybeSyncFlush();
}

// Barrier (1) of the pipeline: the pwrite of `pgno` may not reach disk
// until every compliance record describing the page is durable on WORM.
// In sync mode OnPageWrite already flushed, so this is a no-op.
Status ComplianceLogger::OnPageWriteBarrier(PageId pgno) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled || log_ == nullptr) return Status::OK();
  if (!options_.async_shipping) return Status::OK();
  auto it = page_high_water_.find(pgno);
  if (it == page_high_water_.end()) return Status::OK();
  uint64_t target = it->second;
  page_high_water_.erase(it);
  obs::ScopedLatencyTimer stall(Cm().barrier_stall_us);
  return log_->FlushThrough(target);
}

Status ComplianceLogger::OnPageSplit(uint32_t tree_id, uint8_t level,
                                     PageId old_pgno, PageId new_pgno,
                                     const Page& pre_old, const Page& post_old,
                                     const Page& post_new) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return Status::OK();
  if (level > 0) return Status::OK();  // index pages: verified at audit

  // Flush not-yet-logged tuples of the pre-split page first, so the split
  // record's union check balances.
  Result<PageState> base = BaselineFor(old_pgno);
  if (!base.ok()) return base.status();
  PageState pre_state = StateFromImage(pre_old);
  CDB_RETURN_IF_ERROR(EmitDiff(tree_id, old_pgno, base.value(), pre_state));

  CRecord rec;
  rec.type = CRecordType::kPageSplit;
  rec.tree_id = tree_id;
  rec.pgno = old_pgno;
  rec.new_pgno = new_pgno;
  rec.entries_a = post_old.AllRecords();
  rec.entries_b = post_new.AllRecords();
  CDB_RETURN_IF_ERROR(Append(rec));
  ++stats_.splits;

  if (options_.cache_page_images) {
    baseline_[old_pgno] = StateFromImage(post_old);
    NoteCached(old_pgno, /*is_index=*/false, /*disk_synced=*/false);
    baseline_[new_pgno] = StateFromImage(post_new);
    NoteCached(new_pgno, /*is_index=*/false, /*disk_synced=*/false);
  } else {
    baseline_.erase(old_pgno);
    baseline_.erase(new_pgno);
  }
  // Async: the split record's high-water mark covers both pages, so
  // neither post-split image can reach disk before the record is durable.
  return MaybeSyncFlush();
}

Status ComplianceLogger::OnRootGrow(uint32_t tree_id, PageId root_pgno,
                                    PageId left_pgno, PageId right_pgno,
                                    const Page& pre_root,
                                    const Page& post_root,
                                    const Page& post_left,
                                    const Page& post_right) {
  std::lock_guard<std::mutex> lock(mu_);
  (void)post_root;
  if (!options_.enabled) return Status::OK();
  if (pre_root.type() != PageType::kBtreeLeaf) return Status::OK();

  Result<PageState> base = BaselineFor(root_pgno);
  if (!base.ok()) return base.status();
  PageState pre_state = StateFromImage(pre_root);
  CDB_RETURN_IF_ERROR(EmitDiff(tree_id, root_pgno, base.value(), pre_state));

  CRecord rec;
  rec.type = CRecordType::kRootGrow;
  rec.tree_id = tree_id;
  rec.pgno = root_pgno;
  rec.new_pgno = left_pgno;
  rec.third_pgno = right_pgno;
  rec.entries_a = post_left.AllRecords();
  rec.entries_b = post_right.AllRecords();
  CDB_RETURN_IF_ERROR(Append(rec));
  ++stats_.splits;

  baseline_.erase(root_pgno);
  index_baseline_.erase(root_pgno);
  unsynced_.erase(root_pgno);
  if (options_.cache_page_images) {
    baseline_[left_pgno] = StateFromImage(post_left);
    NoteCached(left_pgno, /*is_index=*/false, /*disk_synced=*/false);
    baseline_[right_pgno] = StateFromImage(post_right);
    NoteCached(right_pgno, /*is_index=*/false, /*disk_synced=*/false);
  }
  return MaybeSyncFlush();
}

Status ComplianceLogger::OnMigrate(uint32_t tree_id, PageId live_pgno,
                                   const Page& pre_live, const Page& post_live,
                                   const std::string& hist_name,
                                   const Page& hist_image) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return Status::OK();

  Result<PageState> base = BaselineFor(live_pgno);
  if (!base.ok()) return base.status();
  PageState pre_state = StateFromImage(pre_live);
  CDB_RETURN_IF_ERROR(EmitDiff(tree_id, live_pgno, base.value(), pre_state));

  CRecord rec;
  rec.type = CRecordType::kMigrate;
  rec.tree_id = tree_id;
  rec.pgno = live_pgno;
  rec.name = hist_name;
  rec.entries_a = hist_image.AllRecords();
  CDB_RETURN_IF_ERROR(Append(rec));
  ++stats_.migrations;

  if (options_.cache_page_images) {
    baseline_[live_pgno] = StateFromImage(post_live);
    NoteCached(live_pgno, /*is_index=*/false, /*disk_synced=*/false);
  } else {
    baseline_.erase(live_pgno);
  }
  // Full flush even in async mode: the MIGRATE record references a
  // historical file that already exists on WORM, and an orphaned file
  // without its record would look like tampering. Migrations are rare
  // (one per time split), so this costs nothing on the hot path.
  return log_->Flush();
}

Status ComplianceLogger::OnCommit(TxnId txn_id, uint64_t commit_time) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return Status::OK();
  auto it = stamps_on_log_.find(txn_id);
  if (it != stamps_on_log_.end() && it->second == commit_time) {
    return Status::OK();  // already announced (recovery re-walks the WAL)
  }
  stamps_on_log_[txn_id] = commit_time;
  CRecord rec;
  rec.type = CRecordType::kStampTrans;
  rec.txn_id = txn_id;
  rec.commit_time = commit_time;
  rec.timestamp = clock_->NowMicros();
  CDB_RETURN_IF_ERROR(Append(rec));
  last_stamp_activity_ = clock_->NowMicros();
  // Barrier (2): the commit may not return until its STAMP_TRANS — and,
  // FIFO, everything before it — is durable on WORM. In async mode this
  // is the group-commit rendezvous: every record appended since the last
  // drain shares its single fflush.
  return log_->Flush();
}

Result<uint64_t> ComplianceLogger::OnCommitQueued(TxnId txn_id,
                                                  uint64_t commit_time) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return static_cast<uint64_t>(0);
  auto it = stamps_on_log_.find(txn_id);
  if (it != stamps_on_log_.end() && it->second == commit_time) {
    return static_cast<uint64_t>(0);  // already announced, already durable
  }
  stamps_on_log_[txn_id] = commit_time;
  CRecord rec;
  rec.type = CRecordType::kStampTrans;
  rec.txn_id = txn_id;
  rec.commit_time = commit_time;
  rec.timestamp = clock_->NowMicros();
  CDB_RETURN_IF_ERROR(Append(rec));
  last_stamp_activity_ = clock_->NowMicros();
  // No barrier here: the pipeline's epoch wait calls WaitCommitDurable
  // with (at least) this offset before the commit is acknowledged.
  return log_->size();
}

Status ComplianceLogger::WaitCommitDurable(uint64_t offset) {
  if (!options_.enabled || log_ == nullptr || offset == 0) {
    return Status::OK();
  }
  return log_->FlushThrough(offset);
}

Status ComplianceLogger::OnAbort(TxnId txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return Status::OK();
  if (!aborts_on_log_.insert(txn_id).second) {
    return Status::OK();  // already announced
  }
  CRecord rec;
  rec.type = CRecordType::kAbort;
  rec.txn_id = txn_id;
  rec.timestamp = clock_->NowMicros();
  CDB_RETURN_IF_ERROR(Append(rec));
  return log_->Flush();
}

Status ComplianceLogger::OnStartRecovery() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return Status::OK();
  CRecord rec;
  rec.type = CRecordType::kStartRecovery;
  rec.timestamp = clock_->NowMicros();
  in_recovery_ = true;
  CDB_RETURN_IF_ERROR(Append(rec));
  return log_->Flush();
}

Status ComplianceLogger::OnRecoveryComplete() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return Status::OK();
  in_recovery_ = false;
  // Recovery completion shows liveness again.
  last_stamp_activity_ = clock_->NowMicros();
  return Status::OK();
}

Status ComplianceLogger::OnNewTree(uint32_t tree_id, PageId root,
                                   const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return Status::OK();
  CRecord rec;
  rec.type = CRecordType::kNewTree;
  rec.tree_id = tree_id;
  rec.pgno = root;
  rec.key = name;
  rec.timestamp = clock_->NowMicros();
  CDB_RETURN_IF_ERROR(Append(rec));
  baseline_[root] = PageState{};
  NoteCached(root, /*is_index=*/false, /*disk_synced=*/false);
  return log_->Flush();
}

Status ComplianceLogger::OnShredIntent(uint32_t tree_id, Slice key,
                                       uint64_t start, PageId pgno,
                                       Slice content_hash, uint64_t timestamp,
                                       const std::string& hist_name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return Status::OK();
  CRecord rec;
  rec.type = CRecordType::kShredded;
  rec.tree_id = tree_id;
  rec.key = key.ToString();
  rec.start = start;
  rec.pgno = pgno;
  rec.name = hist_name;
  rec.hash = content_hash.ToString();
  rec.timestamp = timestamp;
  CDB_RETURN_IF_ERROR(Append(rec));
  Cm().shred_intents->Inc();
  return log_->Flush();
}

Status ComplianceLogger::Tick(uint64_t now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.enabled) return Status::OK();
  if (now - last_stamp_activity_ >= options_.regret_interval_micros) {
    CRecord rec;
    rec.type = CRecordType::kHeartbeat;
    rec.timestamp = now;
    CDB_RETURN_IF_ERROR(Append(rec));
    ++stats_.heartbeats;
    Cm().heartbeats->Inc();
    last_stamp_activity_ = now;
  }
  if (now - last_witness_time_ >= options_.regret_interval_micros) {
    std::string name = WitnessFileName(epoch(), witness_seq_++);
    CDB_RETURN_IF_ERROR(worm_->Create(name, 0));
    ++stats_.witness_files;
    Cm().witnesses->Inc();
    last_witness_time_ = now;
  }
  return log_->Flush();
}

}  // namespace complydb

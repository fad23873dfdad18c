#include "txn/transaction_manager.h"

#include <algorithm>
#include <mutex>

#include "obs/metrics.h"
#include "obs/span.h"
#include "txn/epoch_pipeline.h"
#include "txn/slot_buffer.h"

namespace complydb {

namespace {
struct TxnMetrics {
  obs::Counter* begins;
  obs::Counter* commits;
  obs::Counter* aborts;
  obs::Counter* stamped_versions;
  obs::Histogram* commit_us;
  obs::Histogram* commit_observer_us;
  TxnMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    begins = reg.GetCounter("txn.begins");
    commits = reg.GetCounter("txn.commits");
    aborts = reg.GetCounter("txn.aborts");
    stamped_versions = reg.GetCounter("txn.stamped_versions");
    commit_us = reg.GetHistogram("txn.commit_us");
    commit_observer_us = reg.GetHistogram("txn.commit_observer_us");
  }
};
TxnMetrics& Tm() {
  static TxnMetrics m;
  return m;
}
}  // namespace

void TransactionManager::RegisterTree(uint32_t tree_id, Btree* tree) {
  std::unique_lock<std::shared_mutex> lock(trees_mu_);
  trees_[tree_id] = tree;
}

Btree* TransactionManager::GetTree(uint32_t tree_id) const {
  std::shared_lock<std::shared_mutex> lock(trees_mu_);
  auto it = trees_.find(tree_id);
  return it == trees_.end() ? nullptr : it->second;
}

uint64_t TransactionManager::NextTick() {
  uint64_t now = clock_->NowMicros();
  last_tick_ = std::max(last_tick_ + 1, now);
  return last_tick_;
}

Result<Transaction*> TransactionManager::Begin() {
  // Scheduler execute phase: defer the whole transaction into the slot's
  // staging buffer. Ticks, WAL records, and metrics happen at replay.
  if (pipeline_ != nullptr) {
    if (SlotWriteBuffer* buf = pipeline_->ExecBuffer()) {
      return buf->BeginDeferred();
    }
  }
  if (active_ != nullptr) {
    return Status::Busy("a transaction is already active (serial engine)");
  }
  active_ = std::make_unique<Transaction>();
  active_->id_ = NextTick();
  active_->wal_.txn_id = active_->id_;
  active_->wal_.log = wal_;
  if (wal_ != nullptr) {
    WalRecord rec;
    rec.type = WalRecordType::kBegin;
    active_->wal_.Emit(&rec);
  }
  Tm().begins->Inc();
  return active_.get();
}

Status TransactionManager::Put(Transaction* txn, uint32_t tree_id, Slice key,
                               Slice value) {
  if (txn == nullptr || txn->state_ != Transaction::State::kActive) {
    return Status::InvalidArgument("txn not active");
  }
  Btree* tree = GetTree(tree_id);
  if (tree == nullptr) return Status::InvalidArgument("unknown tree");
  if (txn->slot_buffer_ != nullptr) {
    return txn->slot_buffer_->Put(txn, tree_id, key, value);
  }
  if (pipeline_ != nullptr) pipeline_->AcquirePartitionLatch(tree_id);

  // A second write to the same key in one transaction would physically
  // replace the intermediate version, producing a compliance-log UNDO that
  // is justified by neither an ABORT nor a SHREDDED record — exactly the
  // pattern the auditor must treat as tampering. We therefore reject it;
  // callers coalesce multi-writes (the TPC-C transactions do).
  for (const auto& w : txn->writes_) {
    if (w.tree_id == tree_id && w.key == key.view()) {
      return Status::InvalidArgument(
          "key already written in this transaction; coalesce writes");
    }
  }

  TupleData t;
  t.key = key.ToString();
  t.value = value.ToString();
  t.start = txn->id_;
  CDB_RETURN_IF_ERROR(tree->InsertVersion(&txn->wal_, t, nullptr, nullptr));
  txn->writes_.push_back(TxnWrite{tree_id, t.key});
  txn->undo_.push_back(UndoAction{UndoAction::kRemoveInserted, tree_id, t.key,
                                  txn->id_, std::string()});
  return Status::OK();
}

Status TransactionManager::Delete(Transaction* txn, uint32_t tree_id,
                                  Slice key) {
  if (txn == nullptr || txn->state_ != Transaction::State::kActive) {
    return Status::InvalidArgument("txn not active");
  }
  Btree* tree = GetTree(tree_id);
  if (tree == nullptr) return Status::InvalidArgument("unknown tree");
  if (txn->slot_buffer_ != nullptr) {
    // Liveness check against the overlay first, then the engine (the
    // same NotFound contract as the direct path below).
    switch (txn->slot_buffer_->Lookup(tree_id, key, nullptr)) {
      case SlotWriteBuffer::Overlay::kDeleted:
        return Status::NotFound("no live version to delete");
      case SlotWriteBuffer::Overlay::kMiss: {
        TupleData latest;
        CDB_RETURN_IF_ERROR(tree->GetLatest(key, &latest));
        break;
      }
      case SlotWriteBuffer::Overlay::kPresent:
        break;
    }
    return txn->slot_buffer_->Delete(txn, tree_id, key);
  }
  if (pipeline_ != nullptr) pipeline_->AcquirePartitionLatch(tree_id);

  TupleData latest;
  Status s = tree->GetLatest(key, &latest);
  if (!s.ok()) return s;  // NotFound: nothing live to delete

  TupleData t;
  t.key = key.ToString();
  t.start = txn->id_;
  t.eol = true;
  CDB_RETURN_IF_ERROR(tree->InsertVersion(&txn->wal_, t, nullptr, nullptr));
  txn->writes_.push_back(TxnWrite{tree_id, t.key});
  txn->undo_.push_back(UndoAction{UndoAction::kRemoveInserted, tree_id, t.key,
                                  txn->id_, std::string()});
  return Status::OK();
}

Status TransactionManager::Get(Transaction* txn, uint32_t tree_id, Slice key,
                               std::string* value) {
  (void)txn;  // serial engine: the latest version is the visible one
  Btree* tree = GetTree(tree_id);
  if (tree == nullptr) return Status::InvalidArgument("unknown tree");
  // Execute-phase reads see the slot's own staged writes first; misses
  // fall through to committed engine state (disjoint admission guarantees
  // no concurrent slot writes the partitions this slot reads).
  if (pipeline_ != nullptr) {
    if (SlotWriteBuffer* buf = pipeline_->ExecBuffer()) {
      switch (buf->Lookup(tree_id, key, value)) {
        case SlotWriteBuffer::Overlay::kPresent:
          return Status::OK();
        case SlotWriteBuffer::Overlay::kDeleted:
          return Status::NotFound("deleted in this slot");
        case SlotWriteBuffer::Overlay::kMiss:
          break;
      }
    }
  }
  TupleData t;
  CDB_RETURN_IF_ERROR(tree->GetLatest(key, &t));
  *value = t.value;
  return Status::OK();
}

Status TransactionManager::Commit(Transaction* txn) {
  if (txn == nullptr || txn != active_.get() ||
      txn->state_ != Transaction::State::kActive) {
    return Status::InvalidArgument("txn not active");
  }
  // Covers the commit point: WAL flush, the compliance STAMP_TRANS append,
  // and its WORM flush.
  obs::ScopedLatencyTimer timer(Tm().commit_us);
  uint64_t commit_time = NextTick();

  if (wal_ != nullptr) {
    WalRecord rec;
    rec.type = WalRecordType::kCommit;
    rec.commit_time = commit_time;
    txn->wal_.Emit(&rec);
    // The commit point: the commit record is durable.
    CDB_RETURN_IF_ERROR(wal_->FlushAll());
  }
  txn->state_ = Transaction::State::kCommitted;
  txn->commit_time_ = commit_time;
  {
    std::unique_lock<std::shared_mutex> times_lock(times_mu_);
    committed_times_[txn->id_] = commit_time;
  }
  // Published after the committed-times entry: a snapshot pinned at this
  // commit time can always resolve every start id it may encounter.
  last_commit_time_.store(commit_time, std::memory_order_release);

  // Only now may the compliance logger learn of the commit (§IV-B). With
  // async shipping this call is the group-commit ticket: it returns when
  // this commit's STAMP_TRANS (and everything appended before it) is
  // durable, typically one amortized fflush for many records.
  if (observer_ != nullptr) {
    obs::ScopedLatencyTimer ticket(Tm().commit_observer_us);
    // The whole group-commit ticket as one span; the compliance log splits
    // it into queued / drain / worm_flush segments underneath.
    obs::ScopedSpan ticket_span(obs::SpanKind::kCommitTicket, txn->id_,
                                commit_time);
    if (pipeline_ != nullptr && pipeline_->InSlot()) {
      // Pipeline mode: sequence the STAMP_TRANS now (the turnstile fixes
      // its position in L) but defer the WORM round trip to the slot's
      // epoch barrier, which overlaps with the next slots' engine work.
      auto offset = observer_->OnCommitQueued(txn->id_, commit_time);
      if (!offset.ok()) return offset.status();
      pipeline_->NoteCommitOffset(offset.value());
    } else {
      CDB_RETURN_IF_ERROR(observer_->OnCommit(txn->id_, commit_time));
    }
  }

  if (!txn->writes_.empty()) {
    pending_stamps_.push_back(
        PendingStamp{txn->id_, commit_time, std::move(txn->writes_)});
  }
  if (wal_ != nullptr) {
    WalRecord end;
    end.type = WalRecordType::kEnd;
    txn->wal_.Emit(&end);
  }
  Tm().commits->Inc();
  active_.reset();
  return Status::OK();
}

Status TransactionManager::Abort(Transaction* txn) {
  if (txn == nullptr || txn != active_.get() ||
      txn->state_ != Transaction::State::kActive) {
    return Status::InvalidArgument("txn not active");
  }
  if (wal_ != nullptr) {
    WalRecord rec;
    rec.type = WalRecordType::kAbort;
    txn->wal_.Emit(&rec);
  }

  // Undo in reverse order, logging compensation records.
  for (size_t i = txn->undo_.size(); i-- > 0;) {
    const UndoAction& action = txn->undo_[i];
    Btree* tree = GetTree(action.tree_id);
    if (tree == nullptr) return Status::Corruption("tree vanished during undo");
    if (action.kind == UndoAction::kRemoveInserted) {
      Status s = tree->RemoveVersion(&txn->wal_, action.key, action.start,
                                     /*as_clr=*/true, 0);
      if (!s.ok() && !s.IsNotFound()) return s;
    } else {
      CDB_RETURN_IF_ERROR(tree->ReinsertRecord(&txn->wal_, action.record, 0));
    }
  }

  if (wal_ != nullptr) {
    WalRecord end;
    end.type = WalRecordType::kEnd;
    txn->wal_.Emit(&end);
    CDB_RETURN_IF_ERROR(wal_->FlushAll());
  }
  txn->state_ = Transaction::State::kAborted;

  if (observer_ != nullptr) {
    CDB_RETURN_IF_ERROR(observer_->OnAbort(txn->id_));
  }
  Tm().aborts->Inc();
  active_.reset();
  return Status::OK();
}

Status TransactionManager::StampPending(size_t max_txns) {
  size_t limit = max_txns == 0 ? pending_stamps_.size() : max_txns;
  TxnWalContext sys;
  sys.txn_id = 0;
  sys.log = wal_;
  while (limit-- > 0 && !pending_stamps_.empty()) {
    PendingStamp pending = std::move(pending_stamps_.front());
    pending_stamps_.pop_front();
    for (const auto& w : pending.writes) {
      Btree* tree = GetTree(w.tree_id);
      if (tree == nullptr) return Status::Corruption("tree vanished");
      Status s = tree->StampVersion(&sys, w.key, pending.txn_id,
                                    pending.commit_time);
      if (!s.ok() && !s.IsNotFound()) return s;
      Tm().stamped_versions->Inc();
    }
  }
  return Status::OK();
}

Result<uint64_t> TransactionManager::ResolveCommitTime(uint64_t start) const {
  std::shared_lock<std::shared_mutex> lock(times_mu_);
  auto it = committed_times_.find(start);
  if (it != committed_times_.end()) return it->second;
  return Status::NotFound("start is not a committed txn id");
}

void TransactionManager::RestoreCommittedTxn(TxnId id, uint64_t commit_time) {
  {
    std::unique_lock<std::shared_mutex> lock(times_mu_);
    committed_times_[id] = commit_time;
  }
  last_tick_ = std::max(last_tick_, std::max(id, commit_time));
  uint64_t prev = last_commit_time_.load(std::memory_order_relaxed);
  while (commit_time > prev &&
         !last_commit_time_.compare_exchange_weak(prev, commit_time,
                                                  std::memory_order_release)) {
  }
}

}  // namespace complydb

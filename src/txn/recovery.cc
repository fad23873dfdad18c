#include "txn/recovery.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "btree/btree.h"
#include "btree/tuple.h"

namespace complydb {

namespace {

// Insert a raw leaf record at its sorted position (redo path). Keeps the
// page's order-number counter ahead of every stored order number.
Status RedoLeafInsert(Page* page, Slice record) {
  Slice key;
  uint64_t start = 0;
  CDB_RETURN_IF_ERROR(DecodeTupleKey(record, &key, &start));
  uint16_t pos = LeafLowerBound(*page, key, start);
  if (pos < page->slot_count()) {
    Slice k;
    uint64_t s;
    if (DecodeTupleKey(page->RecordAt(pos), &k, &s).ok() &&
        CompareVersion(k, s, key, start) == 0) {
      return Status::OK();  // already present
    }
  }
  CDB_RETURN_IF_ERROR(page->InsertRecord(pos, record));
  TupleData t;
  CDB_RETURN_IF_ERROR(DecodeTuple(record, &t));
  if (t.order_no >= page->next_order_number()) {
    page->set_next_order_number(static_cast<uint16_t>(t.order_no + 1));
  }
  return Status::OK();
}

Status RedoLeafRemove(Page* page, Slice record) {
  Slice key;
  uint64_t start = 0;
  CDB_RETURN_IF_ERROR(DecodeTupleKey(record, &key, &start));
  uint16_t pos = LeafLowerBound(*page, key, start);
  if (pos < page->slot_count()) {
    Slice k;
    uint64_t s;
    if (DecodeTupleKey(page->RecordAt(pos), &k, &s).ok() &&
        CompareVersion(k, s, key, start) == 0) {
      return page->EraseRecord(pos);
    }
  }
  return Status::OK();  // already gone
}

Status RedoStamp(Page* page, const WalRecord& rec) {
  // rec.tuple holds the key; rec.undo_next the pre-stamp txn id.
  Slice key(rec.tuple);
  uint16_t pos = LeafLowerBound(*page, key, rec.undo_next);
  if (pos >= page->slot_count()) return Status::OK();
  TupleData t;
  CDB_RETURN_IF_ERROR(DecodeTuple(page->RecordAt(pos), &t));
  if (t.key != rec.tuple || t.start != rec.undo_next || t.stamped) {
    return Status::OK();
  }
  t.start = rec.commit_time;
  t.stamped = true;
  return page->ReplaceRecord(pos, EncodeTuple(t));
}

Status RedoIndexInsert(Page* page, Slice record) {
  Slice key;
  uint64_t start = 0;
  PageId child = kInvalidPage;
  CDB_RETURN_IF_ERROR(DecodeIndexEntryKey(record, &key, &start, &child));
  // Same position as Btree::InsertSeparator: right after the child the
  // probe routes to, with entry 0 as -infinity.
  uint16_t idx = InternalFindChild(*page, key, start);
  uint16_t pos =
      page->slot_count() == 0 ? 0 : static_cast<uint16_t>(idx + 1);
  if (page->slot_count() > 0) {
    // Skip if this exact separator already exists.
    Slice ki;
    uint64_t si;
    PageId ci;
    if (DecodeIndexEntryKey(page->RecordAt(idx), &ki, &si, &ci).ok() &&
        CompareVersion(ki, si, key, start) == 0 && ci == child) {
      return Status::OK();
    }
  }
  return page->InsertRecord(pos, record);
}

}  // namespace

Status RecoveryManager::ApplyRedo(const WalRecord& rec, size_t* applied) {
  Page* page = nullptr;
  CDB_RETURN_IF_ERROR(cache_->FetchPage(rec.pgno, &page));
  PageGuard guard(cache_, rec.pgno, page);
  if (page->IsFormatted() && page->lsn() >= rec.lsn && rec.lsn != 0) {
    return Status::OK();  // already reflected on the page
  }
  switch (rec.type) {
    case WalRecordType::kPageImage:
      std::memcpy(page->data(), rec.page_image.data(), kPageSize);
      break;
    case WalRecordType::kTupleInsert:
    case WalRecordType::kClrInsert:
      CDB_RETURN_IF_ERROR(RedoLeafInsert(page, rec.tuple));
      break;
    case WalRecordType::kTupleRemove:
    case WalRecordType::kClrRemove:
      CDB_RETURN_IF_ERROR(RedoLeafRemove(page, rec.tuple));
      break;
    case WalRecordType::kTupleStamp:
      CDB_RETURN_IF_ERROR(RedoStamp(page, rec));
      break;
    case WalRecordType::kIndexInsert:
      CDB_RETURN_IF_ERROR(RedoIndexInsert(page, rec.tuple));
      break;
    default:
      return Status::OK();
  }
  page->set_lsn(rec.lsn);
  guard.MarkDirty();
  ++*applied;
  return Status::OK();
}

Result<RecoveryReport> RecoveryManager::Run(bool crashed) {
  RecoveryReport report;

  if (crashed && observer_ != nullptr) {
    CDB_RETURN_IF_ERROR(observer_->OnStartRecovery());
  }

  // --- Analysis: one pass collects everything (no checkpoints needed at
  // this scale; a checkpointed variant would start from the last one).
  struct TxnInfo {
    bool committed = false;
    bool ended = false;
    uint64_t commit_time = 0;
  };
  std::map<TxnId, TxnInfo> txns;
  std::vector<WalRecord> records;
  CDB_RETURN_IF_ERROR(wal_->Scan([&](const WalRecord& rec) {
    records.push_back(rec);
    if (rec.txn_id != 0) {
      txns_->BumpTick(rec.txn_id);
      TxnInfo& info = txns[rec.txn_id];
      if (rec.type == WalRecordType::kCommit) {
        info.committed = true;
        info.commit_time = rec.commit_time;
        txns_->BumpTick(rec.commit_time);
      } else if (rec.type == WalRecordType::kEnd) {
        info.ended = true;
      }
    }
    return Status::OK();
  }));
  report.records_scanned = records.size();

  // --- Redo: page-state records in LSN order, guarded by page LSNs.
  for (const WalRecord& rec : records) {
    switch (rec.type) {
      case WalRecordType::kPageImage:
      case WalRecordType::kTupleInsert:
      case WalRecordType::kTupleRemove:
      case WalRecordType::kClrInsert:
      case WalRecordType::kClrRemove:
      case WalRecordType::kTupleStamp:
      case WalRecordType::kIndexInsert:
        CDB_RETURN_IF_ERROR(ApplyRedo(rec, &report.redo_applied));
        break;
      default:
        break;
    }
  }

  // --- Undo: losers are transactions that neither committed nor finished
  // aborting. Their tuple effects are reversed through the B+-tree (the
  // structure is sound after redo), logging compensation records.
  for (auto& [txn_id, info] : txns) {
    if (info.committed || info.ended) continue;
    TxnWalContext ctx;
    ctx.txn_id = txn_id;
    ctx.log = wal_;
    for (size_t i = records.size(); i-- > 0;) {
      const WalRecord& rec = records[i];
      if (rec.txn_id != txn_id) continue;
      Btree* tree = txns_->GetTree(rec.tree_id);
      if (rec.type == WalRecordType::kTupleInsert) {
        if (tree == nullptr) return Status::Corruption("unknown tree in undo");
        Slice key;
        uint64_t start = 0;
        CDB_RETURN_IF_ERROR(DecodeTupleKey(rec.tuple, &key, &start));
        Status s = tree->RemoveVersion(&ctx, key, start, /*as_clr=*/true, 0);
        if (!s.ok() && !s.IsNotFound()) return s;
      } else if (rec.type == WalRecordType::kTupleRemove) {
        if (tree == nullptr) return Status::Corruption("unknown tree in undo");
        CDB_RETURN_IF_ERROR(tree->ReinsertRecord(&ctx, rec.tuple, 0));
      }
    }
    WalRecord abort_rec;
    abort_rec.type = WalRecordType::kAbort;
    ctx.Emit(&abort_rec);
    WalRecord end_rec;
    end_rec.type = WalRecordType::kEnd;
    ctx.Emit(&end_rec);
    ++report.losers_undone;
    if (crashed && observer_ != nullptr) {
      CDB_RETURN_IF_ERROR(observer_->OnAbort(txn_id));
    }
  }
  CDB_RETURN_IF_ERROR(wal_->FlushAll());

  // --- Committed transactions: rebuild the commit-time table, re-announce
  // to the compliance log (identical duplicates are audit-tolerated), and
  // finish lazy stamping so no committed tuple stays unstamped.
  TxnWalContext sys;
  sys.txn_id = 0;
  sys.log = wal_;
  for (const auto& [txn_id, info] : txns) {
    if (!info.committed) continue;
    ++report.committed_found;
    txns_->RestoreCommittedTxn(txn_id, info.commit_time);
    if (crashed && observer_ != nullptr &&
        info.commit_time > announce_after_) {
      CDB_RETURN_IF_ERROR(observer_->OnCommit(txn_id, info.commit_time));
    }
  }
  for (const WalRecord& rec : records) {
    if (rec.type != WalRecordType::kTupleInsert) continue;
    auto it = txns.find(rec.txn_id);
    if (it == txns.end() || !it->second.committed) continue;
    Btree* tree = txns_->GetTree(rec.tree_id);
    if (tree == nullptr) continue;
    Slice key;
    uint64_t start = 0;
    CDB_RETURN_IF_ERROR(DecodeTupleKey(rec.tuple, &key, &start));
    if (start != rec.txn_id) continue;  // already stamped when logged
    Status s = tree->StampVersion(&sys, key, rec.txn_id,
                                  it->second.commit_time);
    if (s.ok()) {
      ++report.restamped;
    } else if (!s.IsNotFound()) {
      return s;
    }
  }
  CDB_RETURN_IF_ERROR(wal_->FlushAll());

  if (crashed && observer_ != nullptr) {
    CDB_RETURN_IF_ERROR(observer_->OnRecoveryComplete());
  }
  return report;
}

}  // namespace complydb

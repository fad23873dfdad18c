#include "txn/slot_buffer.h"

namespace complydb {

Result<Transaction*> SlotWriteBuffer::BeginDeferred() {
  if (active_ != nullptr) {
    return Status::Busy("a transaction is already active (serial engine)");
  }
  auto txn = std::unique_ptr<Transaction>(new Transaction());
  txn->slot_buffer_ = this;
  active_ = txn.get();
  txns_.push_back(std::move(txn));
  ops_.push_back(Op{OpKind::kBegin, 0, {}, {}});
  return active_;
}

Status SlotWriteBuffer::Put(Transaction* txn, uint32_t tree_id, Slice key,
                            Slice value) {
  if (txn == nullptr || txn != active_ ||
      txn->state_ != Transaction::State::kActive) {
    return Status::InvalidArgument("txn not active");
  }
  OverlayKey ok{tree_id, key.ToString()};
  if (pending_.count(ok) != 0) {
    return Status::InvalidArgument(
        "key already written in this transaction; coalesce writes");
  }
  pending_[ok] = value.ToString();
  ops_.push_back(Op{OpKind::kPut, tree_id, key.ToString(), value.ToString()});
  return Status::OK();
}

Status SlotWriteBuffer::Delete(Transaction* txn, uint32_t tree_id, Slice key) {
  if (txn == nullptr || txn != active_ ||
      txn->state_ != Transaction::State::kActive) {
    return Status::InvalidArgument("txn not active");
  }
  OverlayKey ok{tree_id, key.ToString()};
  if (pending_.count(ok) != 0) {
    return Status::InvalidArgument(
        "key already written in this transaction; coalesce writes");
  }
  pending_[ok] = std::nullopt;
  ops_.push_back(Op{OpKind::kDelete, tree_id, key.ToString(), {}});
  return Status::OK();
}

Status SlotWriteBuffer::Commit(Transaction* txn) {
  if (txn == nullptr || txn != active_ ||
      txn->state_ != Transaction::State::kActive) {
    return Status::InvalidArgument("txn not active");
  }
  for (auto& [key, value] : pending_) {
    committed_[key] = std::move(value);
  }
  pending_.clear();
  txn->state_ = Transaction::State::kCommitted;
  active_ = nullptr;
  ops_.push_back(Op{OpKind::kCommit, 0, {}, {}});
  return Status::OK();
}

Status SlotWriteBuffer::Abort(Transaction* txn) {
  if (txn == nullptr || txn != active_ ||
      txn->state_ != Transaction::State::kActive) {
    return Status::InvalidArgument("txn not active");
  }
  pending_.clear();
  txn->state_ = Transaction::State::kAborted;
  active_ = nullptr;
  ops_.push_back(Op{OpKind::kAbort, 0, {}, {}});
  return Status::OK();
}

SlotWriteBuffer::Overlay SlotWriteBuffer::Lookup(uint32_t tree_id, Slice key,
                                                 std::string* value) const {
  OverlayKey ok{tree_id, key.ToString()};
  auto resolve = [&](const std::optional<std::string>& entry) {
    if (!entry.has_value()) return Overlay::kDeleted;
    if (value != nullptr) *value = *entry;
    return Overlay::kPresent;
  };
  auto pit = pending_.find(ok);
  if (pit != pending_.end()) return resolve(pit->second);
  auto cit = committed_.find(ok);
  if (cit != committed_.end()) return resolve(cit->second);
  return Overlay::kMiss;
}

void SlotWriteBuffer::CollectRange(
    uint32_t tree_id, Slice begin, Slice end,
    std::map<std::string, std::optional<std::string>>* out) const {
  auto collect = [&](const std::map<OverlayKey, std::optional<std::string>>&
                         layer) {
    auto it = layer.lower_bound(OverlayKey{tree_id, begin.ToString()});
    const std::string end_key = end.ToString();
    for (; it != layer.end(); ++it) {
      if (it->first.first != tree_id) break;
      if (!end_key.empty() && it->first.second >= end_key) break;
      (*out)[it->first.second] = it->second;
    }
  };
  collect(committed_);
  collect(pending_);  // pending shadows committed
}

}  // namespace complydb

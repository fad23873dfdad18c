#include "compliance/page_replay.h"

#include <algorithm>
#include <cstring>

#include "btree/tuple.h"
#include "common/coding.h"
#include "compliance/snapshot.h"
#include "crypto/seq_hash.h"

namespace complydb {

void SummarizeRecord(const CRecord& rec, uint64_t offset, LogSummary* out) {
  switch (rec.type) {
    case CRecordType::kStampTrans: {
      auto it = out->stamps.find(rec.txn_id);
      if (it != out->stamps.end()) {
        // Identical duplicates happen legitimately after crash recovery;
        // *different* commit times for one txn indicate tampering.
        if (it->second != rec.commit_time) {
          out->problems.push_back("two different STAMP_TRANS for txn " +
                                  std::to_string(rec.txn_id));
        }
      } else {
        out->stamps[rec.txn_id] = rec.commit_time;
      }
      if (out->aborts.count(rec.txn_id) > 0) {
        out->problems.push_back("txn " + std::to_string(rec.txn_id) +
                                " has both STAMP_TRANS and ABORT");
      }
      out->last_commit_time = std::max(out->last_commit_time, rec.commit_time);
      out->commits.push_back({offset, rec.txn_id, rec.commit_time});
      break;
    }
    case CRecordType::kAbort: {
      out->aborts.insert(rec.txn_id);
      if (out->stamps.count(rec.txn_id) > 0) {
        out->problems.push_back("txn " + std::to_string(rec.txn_id) +
                                " has both STAMP_TRANS and ABORT");
      }
      break;
    }
    case CRecordType::kShredded: {
      ShredRecord shred;
      shred.tree_id = rec.tree_id;
      shred.key = rec.key;
      shred.start = rec.start;
      shred.pgno = rec.pgno;
      shred.timestamp = rec.timestamp;
      shred.content_hash = rec.hash;
      shred.hist_name = rec.name;
      out->shreds.push_back(std::move(shred));
      break;
    }
    case CRecordType::kNewTree:
      out->new_trees[rec.tree_id] = {rec.key, rec.pgno};
      break;
    default:
      break;
  }
}

namespace {

// Sentinel offset for problems emitted outside the log scan (Finalize):
// sorts after every real offset so the merged order matches serial.
constexpr uint64_t kNoOffset = ~0ull;

}  // namespace

void PageReplayer::Problem(const std::string& what) {
  if (opts_.verify) {
    problems_.push_back(what);
    problem_offsets_.push_back(current_offset_);
  }
}

bool PageReplayer::Owns(uint32_t tree_id, PageId pgno) const {
  if (opts_.shard_count <= 1) return true;
  // Fixed avalanche mix (splitmix64 finalizer) — the assignment must be
  // identical across runs and thread counts for determinism.
  uint64_t x = (static_cast<uint64_t>(tree_id) << 32) ^ pgno;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x % opts_.shard_count == opts_.shard_index;
}

void PageReplayer::SeedPage(uint32_t tree_id, PageId pgno,
                            const std::vector<std::string>& records) {
  if (!Owns(tree_id, pgno)) return;
  PageState& state = pages_[{tree_id, pgno}];
  state.clear();
  for (const auto& r : records) {
    TupleData t;
    if (DecodeTuple(r, &t).ok()) state[t.order_no] = r;
  }
}

void PageReplayer::SeedIndexPage(uint32_t tree_id, PageId pgno,
                                 const std::vector<std::string>& entries) {
  if (!Owns(tree_id, pgno)) return;
  IndexState& state = index_pages_[{tree_id, pgno}];
  state.clear();
  for (const auto& e : entries) {
    auto key = IndexEntrySortKey(e);
    if (key.ok()) state[key.value()] = e;
  }
}

Result<std::string> PageReplayer::IndexEntrySortKey(Slice entry) {
  Slice key;
  uint64_t start = 0;
  PageId child = kInvalidPage;
  CDB_RETURN_IF_ERROR(DecodeIndexEntryKey(entry, &key, &start, &child));
  std::string sort_key(key.data(), key.size());
  PutBigEndian64(&sort_key, start);
  return sort_key;
}

Sha256Digest PageReplayer::HashIndexState(const IndexState& state) {
  std::vector<Slice> elems;
  elems.reserve(state.size());
  for (const auto& [sort_key, entry] : state) elems.emplace_back(entry);
  return SeqHash::Compute(elems);
}

void PageReplayer::AbsorbWindowShard(PageReplayer&& other,
                                     const std::vector<PageKey>& touched_pages,
                                     const std::vector<PageKey>& touched_index) {
  for (const auto& key : touched_pages) {
    if (!other.Owns(key.first, key.second)) continue;
    auto it = other.pages_.find(key);
    if (it != other.pages_.end()) {
      pages_[key] = std::move(it->second);
    } else {
      pages_.erase(key);
    }
  }
  for (const auto& key : touched_index) {
    if (!other.Owns(key.first, key.second)) continue;
    auto it = other.index_pages_.find(key);
    if (it != other.index_pages_.end()) {
      index_pages_[key] = std::move(it->second);
    } else {
      index_pages_.erase(key);
    }
  }
  tree_roots_.insert(other.tree_roots_.begin(), other.tree_roots_.end());
  for (auto& m : other.migrations_) migrations_.push_back(std::move(m));
  for (size_t i = 0; i < other.problems_.size(); ++i) {
    problems_.push_back(std::move(other.problems_[i]));
    problem_offsets_.push_back(other.problem_offsets_[i]);
  }
  for (auto& p : other.pending_move_checks_) {
    pending_move_checks_.push_back(std::move(p));
  }
  for (auto& p : other.pending_identities_) {
    pending_identities_.push_back(std::move(p));
  }
  read_hashes_checked_ += other.read_hashes_checked_;
  identity_delta_.Merge(other.identity_delta_);
  migrated_delta_.Merge(other.migrated_delta_);
}

void PageReplayer::ChangeIdentity(uint32_t tree_id, const std::string& tuple,
                                  IdentityChange change) {
  auto id = TupleIdentity(tree_id, tuple, summary_->stamps);
  if (id.status().IsNotFound()) {
    pending_identities_.push_back({tree_id, tuple, change});
    return;
  }
  if (!id.ok()) return;
  if (change == IdentityChange::kAdd) {
    identity_delta_.Add(id.value());
  } else {
    identity_delta_.Remove(id.value());
    if (change == IdentityChange::kMigrate) migrated_delta_.Add(id.value());
  }
}

void PageReplayer::ResolvePendingIdentities() {
  std::vector<PendingIdentity> waiting;
  for (auto& p : pending_identities_) {
    TupleData t;
    if (DecodeTuple(p.tuple, &t).ok() && summary_->stamps.count(t.start)) {
      ChangeIdentity(p.tree_id, p.tuple, p.change);
    } else {
      waiting.push_back(std::move(p));
    }
  }
  pending_identities_ = std::move(waiting);
}

void PageReplayer::ResolvePendingMoves() {
  if (summary_ == nullptr) return;
  ResolvePendingIdentities();
  if (pending_move_checks_.empty()) return;
  std::set<std::string> present;
  for (const auto& [key, state] : pages_) {
    for (const auto& [order_no, rec] : state) {
      auto id = TupleIdentity(key.first, rec, summary_->stamps);
      if (id.ok()) present.insert(id.value());
    }
  }
  pending_move_checks_.erase(
      std::remove_if(pending_move_checks_.begin(), pending_move_checks_.end(),
                     [&present](const std::pair<std::string, uint64_t>& p) {
                       return present.count(p.first) != 0;
                     }),
      pending_move_checks_.end());
}

void PageReplayer::FinishMerge() {
  std::stable_sort(
      migrations_.begin(), migrations_.end(),
      [](const MigrationRecord& a, const MigrationRecord& b) {
        return a.offset < b.offset;
      });
  std::stable_sort(pending_move_checks_.begin(), pending_move_checks_.end(),
                   [](const auto& a, const auto& b) {
                     return a.second < b.second;
                   });
  // Re-order problems by offset. At most one shard emits for any given
  // offset (multi-page records report through the old page's owner), so a
  // stable sort on the offset tags reproduces the serial emission order.
  std::vector<size_t> idx(problems_.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [this](size_t a, size_t b) {
    return problem_offsets_[a] < problem_offsets_[b];
  });
  std::vector<std::string> sorted_problems;
  std::vector<uint64_t> sorted_offsets;
  sorted_problems.reserve(idx.size());
  sorted_offsets.reserve(idx.size());
  for (size_t i : idx) {
    sorted_problems.push_back(std::move(problems_[i]));
    sorted_offsets.push_back(problem_offsets_[i]);
  }
  problems_ = std::move(sorted_problems);
  problem_offsets_ = std::move(sorted_offsets);
}

Status PageReplayer::Finalize() {
  current_offset_ = kNoOffset;
  if (!opts_.verify || summary_ == nullptr) return Status::OK();
  // Whatever is still unstamped never committed: never part of Df.
  ResolvePendingIdentities();
  pending_identities_.clear();
  if (pending_move_checks_.empty()) return Status::OK();
  std::set<std::string> present;
  for (const auto& [key, state] : pages_) {
    for (const auto& [order_no, rec] : state) {
      auto id = TupleIdentity(key.first, rec, summary_->stamps);
      if (id.ok()) present.insert(id.value());
    }
  }
  for (const auto& [identity, offset] : pending_move_checks_) {
    if (present.count(identity) == 0) {
      Problem("offset " + std::to_string(offset) +
              ": UNDO of stamped tuple without SHREDDED justification, and "
              "the tuple is gone from the final state");
    }
  }
  return Status::OK();
}

Sha256Digest PageReplayer::HashPageState(const PageState& state) {
  std::vector<Slice> elems;
  elems.reserve(state.size());
  for (const auto& [order_no, rec] : state) elems.emplace_back(rec);
  return SeqHash::Compute(elems);
}

Status PageReplayer::Apply(const CRecord& rec, uint64_t offset) {
  current_offset_ = offset;
  auto list_to_state = [](const std::vector<std::string>& entries,
                          PageState* state) {
    state->clear();
    for (const auto& r : entries) {
      TupleData t;
      if (DecodeTuple(r, &t).ok()) (*state)[t.order_no] = r;
    }
  };

  switch (rec.type) {
    case CRecordType::kNewTree: {
      tree_roots_[rec.tree_id] = rec.pgno;
      // The root leaf starts empty.
      if (Owns(rec.tree_id, rec.pgno)) pages_[{rec.tree_id, rec.pgno}];
      break;
    }
    case CRecordType::kNewTuple: {
      if (!Owns(rec.tree_id, rec.pgno)) break;
      TupleData t;
      Status s = DecodeTuple(rec.tuple, &t);
      if (!s.ok()) {
        Problem("offset " + std::to_string(offset) +
                ": undecodable NEW_TUPLE");
        break;
      }
      PageState& state = pages_[{rec.tree_id, rec.pgno}];
      auto it = state.find(t.order_no);
      if (it != state.end()) {
        if (it->second != rec.tuple) {
          TupleData prev;
          std::string detail;
          if (DecodeTuple(it->second, &prev).ok()) {
            detail = " (held: key '" + prev.key + "' start " +
                     std::to_string(prev.start) +
                     (prev.stamped ? " stamped" : " unstamped") +
                     "; incoming: key '" + t.key + "' start " +
                     std::to_string(t.start) +
                     (t.stamped ? " stamped" : " unstamped") + ")";
          }
          Problem("offset " + std::to_string(offset) +
                  ": conflicting NEW_TUPLE for page " +
                  std::to_string(rec.pgno) + " order " +
                  std::to_string(t.order_no) + detail);
        }
        // Identical duplicate (recovery replays): counted once.
        break;
      }
      state[t.order_no] = rec.tuple;
      if (opts_.verify && summary_ != nullptr) {
        ChangeIdentity(rec.tree_id, rec.tuple, IdentityChange::kAdd);
      }
      break;
    }
    case CRecordType::kUndo: {
      if (!Owns(rec.tree_id, rec.pgno)) break;
      TupleData t;
      Status s = DecodeTuple(rec.tuple, &t);
      if (!s.ok()) {
        Problem("offset " + std::to_string(offset) + ": undecodable UNDO");
        break;
      }
      PageState& state = pages_[{rec.tree_id, rec.pgno}];
      auto it = state.find(t.order_no);
      if (it == state.end()) {
        // Duplicate UNDO after crash recovery is benign (§V).
        break;
      }
      if (opts_.verify && it->second != rec.tuple) {
        Problem("offset " + std::to_string(offset) +
                ": UNDO bytes disagree with replayed tuple (page " +
                std::to_string(rec.pgno) + ")");
      }
      if (opts_.verify && summary_ != nullptr) {
        ChangeIdentity(rec.tree_id, rec.tuple, IdentityChange::kRemove);
        // Justification (§VIII): an unstamped tuple may vanish only if
        // its transaction aborted; a stamped tuple only if a SHREDDED
        // record announced its vacuuming — or, after crash recovery, if
        // the tuple merely moved pages (checked against the final state
        // in Finalize()).
        if (!t.stamped) {
          if (summary_->aborts.count(t.start) == 0) {
            Problem("offset " + std::to_string(offset) +
                    ": UNDO of uncommitted tuple without ABORT (key '" +
                    t.key + "')");
          }
        } else {
          bool shredded = false;
          for (const auto& shred : summary_->shreds) {
            if (shred.tree_id == rec.tree_id && shred.key == t.key &&
                shred.start == t.start) {
              shredded = true;
              break;
            }
          }
          if (!shredded) {
            auto id = TupleIdentity(rec.tree_id, rec.tuple, summary_->stamps);
            if (id.ok()) {
              pending_move_checks_.emplace_back(id.value(), offset);
            } else {
              Problem("offset " + std::to_string(offset) +
                      ": UNDO of stamped tuple with unresolvable identity");
            }
          }
        }
      }
      state.erase(it);
      break;
    }
    case CRecordType::kStampPage: {
      if (!Owns(rec.tree_id, rec.pgno)) break;
      PageState& state = pages_[{rec.tree_id, rec.pgno}];
      auto it = state.find(rec.order_no);
      if (it == state.end()) {
        Problem("offset " + std::to_string(offset) +
                ": STAMP_PAGE for unknown tuple");
        break;
      }
      TupleData t;
      if (!DecodeTuple(it->second, &t).ok()) break;
      if (opts_.verify && t.stamped) {
        Problem("offset " + std::to_string(offset) +
                ": STAMP_PAGE of already-stamped tuple");
      }
      if (opts_.verify && t.start != rec.txn_id) {
        Problem("offset " + std::to_string(offset) +
                ": STAMP_PAGE txn id mismatch");
      }
      if (opts_.verify && summary_ != nullptr) {
        auto st = summary_->stamps.find(rec.txn_id);
        if (st == summary_->stamps.end() || st->second != rec.commit_time) {
          Problem("offset " + std::to_string(offset) +
                  ": STAMP_PAGE not backed by STAMP_TRANS");
        }
      }
      t.start = rec.commit_time;
      t.stamped = true;
      it->second = EncodeTuple(t);
      break;
    }
    case CRecordType::kPageSplit: {
      // Touches two pages; each owner applies its half. The union
      // cross-check needs the pre-image, which only the old page's owner
      // holds, so that shard alone emits the problem.
      PageKey old_key{rec.tree_id, rec.pgno};
      const bool owns_old = Owns(rec.tree_id, rec.pgno);
      const bool owns_new = Owns(rec.tree_id, rec.new_pgno);
      if (!owns_old && !owns_new) break;
      if (owns_old && opts_.verify) {
        // Union of the two post-split pages must equal the old page.
        PageState expect = pages_[old_key];
        PageState combined;
        for (const auto& r : rec.entries_a) {
          TupleData t;
          if (DecodeTuple(r, &t).ok()) combined[t.order_no] = r;
        }
        for (const auto& r : rec.entries_b) {
          TupleData t;
          if (DecodeTuple(r, &t).ok()) combined[t.order_no] = r;
        }
        if (combined != expect) {
          Problem("offset " + std::to_string(offset) +
                  ": PAGE_SPLIT union mismatch for page " +
                  std::to_string(rec.pgno));
        }
      }
      if (owns_old) list_to_state(rec.entries_a, &pages_[old_key]);
      if (owns_new) {
        list_to_state(rec.entries_b, &pages_[{rec.tree_id, rec.new_pgno}]);
      }
      break;
    }
    case CRecordType::kRootGrow: {
      // Touches three pages (old root + two new leaves); same piecewise
      // ownership split as PAGE_SPLIT.
      PageKey root_key{rec.tree_id, rec.pgno};
      const bool owns_root = Owns(rec.tree_id, rec.pgno);
      if (owns_root && opts_.verify) {
        PageState expect = pages_[root_key];
        PageState combined;
        for (const auto& r : rec.entries_a) {
          TupleData t;
          if (DecodeTuple(r, &t).ok()) combined[t.order_no] = r;
        }
        for (const auto& r : rec.entries_b) {
          TupleData t;
          if (DecodeTuple(r, &t).ok()) combined[t.order_no] = r;
        }
        if (combined != expect) {
          Problem("offset " + std::to_string(offset) +
                  ": ROOT_GROW union mismatch for tree " +
                  std::to_string(rec.tree_id));
        }
      }
      if (owns_root) pages_.erase(root_key);  // now an internal node
      if (Owns(rec.tree_id, rec.new_pgno)) {
        list_to_state(rec.entries_a, &pages_[{rec.tree_id, rec.new_pgno}]);
      }
      if (Owns(rec.tree_id, rec.third_pgno)) {
        list_to_state(rec.entries_b, &pages_[{rec.tree_id, rec.third_pgno}]);
      }
      break;
    }
    case CRecordType::kMigrate: {
      if (!Owns(rec.tree_id, rec.pgno)) break;
      PageState& state = pages_[{rec.tree_id, rec.pgno}];
      for (const auto& r : rec.entries_a) {
        TupleData t;
        if (!DecodeTuple(r, &t).ok()) continue;
        auto it = state.find(t.order_no);
        if (it == state.end() || it->second != r) {
          Problem("offset " + std::to_string(offset) +
                  ": MIGRATE of tuple not on live page " +
                  std::to_string(rec.pgno));
          continue;
        }
        if (opts_.verify && summary_ != nullptr) {
          ChangeIdentity(rec.tree_id, r, IdentityChange::kMigrate);
        }
        state.erase(it);
      }
      MigrationRecord m;
      m.tree_id = rec.tree_id;
      m.live_pgno = rec.pgno;
      m.hist_name = rec.name;
      m.entries = rec.entries_a;
      m.offset = offset;
      migrations_.push_back(std::move(m));
      break;
    }
    case CRecordType::kIndexAdd: {
      if (!Owns(rec.tree_id, rec.pgno)) break;
      auto key = IndexEntrySortKey(rec.tuple);
      if (!key.ok()) {
        Problem("offset " + std::to_string(offset) +
                ": undecodable INDEX_ADD entry");
        break;
      }
      IndexState& state = index_pages_[{rec.tree_id, rec.pgno}];
      auto it = state.find(key.value());
      if (it != state.end()) {
        if (it->second != rec.tuple) {
          Problem("offset " + std::to_string(offset) +
                  ": conflicting INDEX_ADD for page " +
                  std::to_string(rec.pgno));
        }
        break;  // identical duplicate (recovery replay)
      }
      state[key.value()] = rec.tuple;
      break;
    }
    case CRecordType::kIndexRemove: {
      if (!Owns(rec.tree_id, rec.pgno)) break;
      auto key = IndexEntrySortKey(rec.tuple);
      if (!key.ok()) {
        Problem("offset " + std::to_string(offset) +
                ": undecodable INDEX_REMOVE entry");
        break;
      }
      IndexState& state = index_pages_[{rec.tree_id, rec.pgno}];
      state.erase(key.value());  // duplicates benign
      break;
    }
    case CRecordType::kReadHashIndex: {
      if (!opts_.verify_read_hashes) break;
      if (!Owns(rec.tree_id, rec.pgno)) break;
      ++read_hashes_checked_;
      const IndexState& state = index_pages_[{rec.tree_id, rec.pgno}];
      Sha256Digest expect = HashIndexState(state);
      if (rec.hash.size() != expect.size() ||
          std::memcmp(rec.hash.data(), expect.data(), expect.size()) != 0) {
        Problem("offset " + std::to_string(offset) +
                ": READ hash mismatch on index page " +
                std::to_string(rec.pgno) +
                " — a query descended through tampered index content at "
                "time " + std::to_string(rec.timestamp));
      }
      break;
    }
    case CRecordType::kReadHash: {
      if (!opts_.verify_read_hashes) break;
      if (!Owns(rec.tree_id, rec.pgno)) break;
      ++read_hashes_checked_;
      const PageState& state = pages_[{rec.tree_id, rec.pgno}];
      Sha256Digest expect = HashPageState(state);
      if (rec.hash.size() != expect.size() ||
          std::memcmp(rec.hash.data(), expect.data(), expect.size()) != 0) {
        Problem("offset " + std::to_string(offset) +
                ": READ hash mismatch on page " + std::to_string(rec.pgno) +
                " — a transaction read tampered content at time " +
                std::to_string(rec.timestamp));
      }
      break;
    }
    default:
      break;
  }
  return Status::OK();
}

}  // namespace complydb

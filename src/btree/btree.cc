#include "btree/btree.h"

#include <algorithm>

#include "common/coding.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace complydb {

namespace {

struct BtreeMetrics {
  obs::Counter* key_splits;
  obs::Counter* root_grows;
  obs::Counter* time_splits;
  obs::Counter* version_hops;
  BtreeMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    key_splits = reg.GetCounter("btree.key_splits");
    root_grows = reg.GetCounter("btree.root_grows");
    time_splits = reg.GetCounter("btree.time_splits");
    version_hops = reg.GetCounter("btree.version_hops");
  }
};
BtreeMetrics& Bm() {
  static BtreeMetrics m;
  return m;
}

// Insert loops retry after structure modifications; a bound turns a logic
// bug into an error instead of a hang.
constexpr int kMaxRetries = 32;

Status DecodeSlotKey(const Page& page, uint16_t slot, Slice* key,
                     uint64_t* start) {
  if (page.type() == PageType::kBtreeLeaf) {
    return DecodeTupleKey(page.RecordAt(slot), key, start);
  }
  PageId child;
  return DecodeIndexEntryKey(page.RecordAt(slot), key, start, &child);
}

// Split slot for a leaf: the key boundary nearest the median, so one key's
// version thread stays co-resident; mid-key split only when a single key
// fills the page.
uint16_t LeafSplitSlot(const Page& leaf) {
  uint16_t count = leaf.slot_count();
  uint16_t target = count / 2;
  uint16_t best = 0;
  int best_dist = 1 << 20;
  for (uint16_t i = 1; i < count; ++i) {
    Slice ka, kb;
    uint64_t sa, sb;
    if (!DecodeSlotKey(leaf, static_cast<uint16_t>(i - 1), &ka, &sa).ok()) break;
    if (!DecodeSlotKey(leaf, i, &kb, &sb).ok()) break;
    if (ka != kb) {
      int dist = std::abs(static_cast<int>(i) - static_cast<int>(target));
      if (dist < best_dist) {
        best_dist = dist;
        best = i;
      }
    }
  }
  return best != 0 ? best : target;
}

}  // namespace

uint16_t LeafLowerBound(const Page& leaf, Slice key, uint64_t start) {
  uint16_t lo = 0;
  uint16_t hi = leaf.slot_count();
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    Slice mk;
    uint64_t ms = 0;
    if (!DecodeTupleKey(leaf.RecordAt(mid), &mk, &ms).ok()) return lo;
    if (CompareVersion(mk, ms, key, start) < 0) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint16_t InternalFindChild(const Page& node, Slice key, uint64_t start) {
  uint16_t lo = 0;
  uint16_t hi = node.slot_count();
  // First entry with separator > probe; answer is the one before it.
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    Slice mk;
    uint64_t ms = 0;
    PageId child;
    if (!DecodeIndexEntryKey(node.RecordAt(mid), &mk, &ms, &child).ok()) {
      return lo;
    }
    if (CompareVersion(mk, ms, key, start) <= 0) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo > 0 ? static_cast<uint16_t>(lo - 1) : 0;
}

Result<PageId> Btree::Create(BufferCache* cache, uint32_t tree_id,
                             LogManager* wal) {
  Page* page = nullptr;
  Result<PageId> alloc = cache->NewPage(&page);
  if (!alloc.ok()) return alloc.status();
  page->Format(alloc.value(), PageType::kBtreeLeaf, tree_id, 0);
  if (wal != nullptr) {
    WalRecord rec;
    rec.type = WalRecordType::kPageImage;
    rec.pgno = alloc.value();
    rec.tree_id = tree_id;
    rec.page_image.assign(page->data(), kPageSize);
    page->set_lsn(wal->Append(&rec));
  }
  cache->Unpin(alloc.value(), /*dirty=*/true);
  return alloc.value();
}

Status Btree::EmitPageImage(const Page& page, Page* mutable_page) {
  if (env_.wal == nullptr) return Status::OK();
  WalRecord rec;
  rec.type = WalRecordType::kPageImage;
  rec.txn_id = 0;
  rec.pgno = page.pgno();
  rec.tree_id = tree_id_;
  rec.page_image.assign(page.data(), kPageSize);
  Lsn lsn = env_.wal->Append(&rec);
  mutable_page->set_lsn(lsn);
  return Status::OK();
}

// Read descent with latch crabbing: the child's shared latch is acquired
// while the parent's is still held, so a concurrent split of the child
// cannot slip between reading the separator and reaching the page it
// names. Readers only ever latch top-down (and left-to-right across
// siblings); the writer never blocks on a reader-visible latch while
// holding one readers can reach — together that makes the latch graph
// acyclic.
Status Btree::DescendToLeaf(Slice key, uint64_t start,
                            std::vector<PageId>* path) const {
  path->clear();
  PageId pgno = root_;
  Page* page = nullptr;
  CDB_RETURN_IF_ERROR(
      env_.cache->FetchPage(pgno, &page, PageLatchMode::kShared));
  path->push_back(pgno);
  for (int depth = 0; depth < 64; ++depth) {
    if (page->type() == PageType::kBtreeLeaf) {
      env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
      return Status::OK();
    }
    if (page->type() != PageType::kBtreeInternal || page->slot_count() == 0) {
      env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
      return Status::Corruption("descent hit malformed page");
    }
    uint16_t idx = InternalFindChild(*page, key, start);
    Slice k;
    uint64_t s;
    PageId child;
    Status st = DecodeIndexEntryKey(page->RecordAt(idx), &k, &s, &child);
    if (!st.ok()) {
      env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
      return st;
    }
    Page* child_page = nullptr;
    Status fetch =
        env_.cache->FetchPage(child, &child_page, PageLatchMode::kShared);
    env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
    CDB_RETURN_IF_ERROR(fetch);
    pgno = child;
    page = child_page;
    path->push_back(pgno);
  }
  env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
  return Status::Corruption("tree too deep (cycle?)");
}

Status Btree::InsertVersion(TxnWalContext* txn, const TupleData& tuple,
                            PageId* pgno_out, uint16_t* order_no_out) {
  std::string probe = EncodeTuple(tuple);
  if (probe.size() > kMaxTupleRecord) {
    return Status::InvalidArgument("tuple record exceeds max size");
  }

  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    std::vector<PageId> path;
    CDB_RETURN_IF_ERROR(DescendToLeaf(tuple.key, tuple.start, &path));
    PageId leaf_pgno = path.back();
    Page* leaf = nullptr;
    CDB_RETURN_IF_ERROR(
        env_.cache->FetchPage(leaf_pgno, &leaf, PageLatchMode::kExclusive));

    uint16_t pos = LeafLowerBound(*leaf, tuple.key, tuple.start);
    if (pos < leaf->slot_count()) {
      Slice k;
      uint64_t s;
      Status st = DecodeTupleKey(leaf->RecordAt(pos), &k, &s);
      if (st.ok() && CompareVersion(k, s, tuple.key, tuple.start) == 0) {
        env_.cache->Unpin(leaf_pgno, false, PageLatchMode::kExclusive);
        return Status::InvalidArgument("duplicate (key, start) version");
      }
    }

    if (leaf->FreeSpace() < probe.size()) {
      env_.cache->Unpin(leaf_pgno, false, PageLatchMode::kExclusive);
      CDB_RETURN_IF_ERROR(HandleLeafOverflow(path));
      continue;
    }

    TupleData placed = tuple;
    placed.order_no = leaf->TakeOrderNumber();
    std::string rec = EncodeTuple(placed);
    Status st = leaf->InsertRecord(pos, rec);
    if (!st.ok()) {
      env_.cache->Unpin(leaf_pgno, false, PageLatchMode::kExclusive);
      return st;
    }
    if (txn != nullptr && txn->log != nullptr) {
      WalRecord wal;
      wal.type = WalRecordType::kTupleInsert;
      wal.pgno = leaf_pgno;
      wal.tree_id = tree_id_;
      wal.tuple = rec;
      leaf->set_lsn(txn->Emit(&wal));
    }
    env_.cache->Unpin(leaf_pgno, true, PageLatchMode::kExclusive);
    if (pgno_out != nullptr) *pgno_out = leaf_pgno;
    if (order_no_out != nullptr) *order_no_out = placed.order_no;
    return Status::OK();
  }
  return Status::Corruption("insert did not converge after splits");
}

Status Btree::HandleLeafOverflow(const std::vector<PageId>& path) {
  PageId leaf_pgno = path.back();
  SplitKind kind = SplitKind::kKeySplit;
  if (env_.split_policy != nullptr && env_.migration != nullptr) {
    Page* leaf = nullptr;
    CDB_RETURN_IF_ERROR(
        env_.cache->FetchPage(leaf_pgno, &leaf, PageLatchMode::kShared));
    kind = env_.split_policy->Decide(*leaf);
    env_.cache->Unpin(leaf_pgno, false, PageLatchMode::kShared);
  }
  if (kind == SplitKind::kTimeSplit) {
    size_t freed = 0;
    CDB_RETURN_IF_ERROR(TimeSplitLeaf(leaf_pgno, &freed));
    if (freed > 0) return Status::OK();
    // Nothing migratable: fall back to a key split.
  }
  if (path.size() == 1) return RootGrow();
  return KeySplit(path, path.size() - 1);
}

Status Btree::KeySplit(const std::vector<PageId>& path, size_t depth) {
  PageId x_pgno = path[depth];
  Page* x = nullptr;
  CDB_RETURN_IF_ERROR(
      env_.cache->FetchPage(x_pgno, &x, PageLatchMode::kExclusive));
  PageGuard x_guard(env_.cache, x_pgno, x, PageLatchMode::kExclusive);
  Page pre = *x;

  uint16_t count = x->slot_count();
  if (count < 2) return Status::Corruption("cannot split page with <2 slots");
  uint16_t s = LeafSplitSlot(*x);
  if (s == 0 || s >= count) s = count / 2;
  if (s == 0) s = 1;

  Page* n = nullptr;
  Result<PageId> alloc = env_.cache->NewPage(&n, PageLatchMode::kExclusive);
  if (!alloc.ok()) return alloc.status();
  PageId n_pgno = alloc.value();
  PageGuard n_guard(env_.cache, n_pgno, n, PageLatchMode::kExclusive);
  n->Format(n_pgno, x->type(), tree_id_, x->level());

  std::vector<std::string> records = x->AllRecords();
  for (uint16_t i = s; i < count; ++i) {
    CDB_RETURN_IF_ERROR(n->AppendRecord(records[i]));
  }
  for (uint16_t i = count; i-- > s;) {
    CDB_RETURN_IF_ERROR(x->EraseRecord(i));
  }
  if (x->type() == PageType::kBtreeLeaf) {
    n->set_next_order_number(x->next_order_number());
    n->set_right_sibling(x->right_sibling());
    x->set_right_sibling(n_pgno);
  }

  CDB_RETURN_IF_ERROR(EmitPageImage(*x, x));
  CDB_RETURN_IF_ERROR(EmitPageImage(*n, n));
  // The SMO must be WAL-durable before it is announced on L, so that a
  // crash can never leave L describing a split the recovered database
  // does not have (the reverse — WAL has it, L does not — reconciles via
  // ordinary NEW_TUPLE/UNDO diffs at the next page writes).
  if (env_.wal != nullptr && env_.observer != nullptr) {
    CDB_RETURN_IF_ERROR(env_.wal->FlushAll());
  }
  if (env_.observer != nullptr) {
    CDB_RETURN_IF_ERROR(env_.observer->OnPageSplit(
        tree_id_, x->level(), x_pgno, n_pgno, pre, *x, *n));
  }

  Slice sep_key;
  uint64_t sep_start = 0;
  CDB_RETURN_IF_ERROR(DecodeSlotKey(*n, 0, &sep_key, &sep_start));
  IndexEntry sep;
  sep.key = sep_key.ToString();
  sep.start = sep_start;
  sep.child = n_pgno;
  uint8_t parent_level = static_cast<uint8_t>(x->level() + 1);

  x_guard.MarkDirty();
  n_guard.MarkDirty();
  x_guard.Release();
  n_guard.Release();
  Bm().key_splits->Inc();

  return InsertSeparator(parent_level, sep);
}

// Separators are routed by a fresh descent from the root to
// `target_level`, so intervening splits/grows cannot leave us holding a
// stale parent.
Status Btree::InsertSeparator(size_t target_level, const IndexEntry& sep) {
  std::string rec = EncodeIndexEntry(sep);
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    // Descend from the root to the internal node at target_level. The
    // descent reads under shared latches; the target is then re-fetched
    // exclusive (only this writer mutates structure, so nothing can
    // change in the unlatched window between the two fetches).
    PageId pgno = root_;
    Page* page = nullptr;
    CDB_RETURN_IF_ERROR(
        env_.cache->FetchPage(pgno, &page, PageLatchMode::kShared));
    while (page->level() > target_level) {
      uint16_t idx = InternalFindChild(*page, sep.key, sep.start);
      Slice k;
      uint64_t s;
      PageId child;
      Status st = DecodeIndexEntryKey(page->RecordAt(idx), &k, &s, &child);
      env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
      CDB_RETURN_IF_ERROR(st);
      pgno = child;
      CDB_RETURN_IF_ERROR(
          env_.cache->FetchPage(pgno, &page, PageLatchMode::kShared));
    }
    if (page->level() != target_level ||
        page->type() != PageType::kBtreeInternal) {
      env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
      return Status::Corruption("separator descent reached wrong level");
    }
    env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
    CDB_RETURN_IF_ERROR(
        env_.cache->FetchPage(pgno, &page, PageLatchMode::kExclusive));

    if (page->FreeSpace() >= rec.size()) {
      // Insert position: after the last entry <= sep.
      uint16_t idx = InternalFindChild(*page, sep.key, sep.start);
      uint16_t pos = page->slot_count() == 0 ? 0 : static_cast<uint16_t>(idx + 1);
      // Probe may sort before the first entry.
      if (page->slot_count() > 0) {
        Slice k0;
        uint64_t s0;
        PageId c0;
        CDB_RETURN_IF_ERROR(
            DecodeIndexEntryKey(page->RecordAt(0), &k0, &s0, &c0));
        if (CompareVersion(sep.key, sep.start, k0, s0) < 0) pos = 0;
      }
      Status st = page->InsertRecord(pos, rec);
      if (!st.ok()) {
        env_.cache->Unpin(pgno, false, PageLatchMode::kExclusive);
        return st;
      }
      if (env_.wal != nullptr) {
        WalRecord wal;
        wal.type = WalRecordType::kIndexInsert;
        wal.txn_id = 0;
        wal.pgno = pgno;
        wal.tree_id = tree_id_;
        wal.tuple = rec;
        page->set_lsn(env_.wal->Append(&wal));
      }
      env_.cache->Unpin(pgno, true, PageLatchMode::kExclusive);
      return Status::OK();
    }

    // Overflowing internal node: grow the root or split and retry.
    env_.cache->Unpin(pgno, false, PageLatchMode::kExclusive);
    if (pgno == root_) {
      CDB_RETURN_IF_ERROR(RootGrow());
      continue;
    }
    CDB_RETURN_IF_ERROR(SplitInternal(pgno));
  }
  return Status::Corruption("separator insert did not converge");
}

Status Btree::SplitInternal(PageId pgno) {
  std::vector<PageId> path = {pgno};
  return KeySplit(path, 0);
}

Status Btree::RootGrow() {
  Page* r = nullptr;
  CDB_RETURN_IF_ERROR(
      env_.cache->FetchPage(root_, &r, PageLatchMode::kExclusive));
  PageGuard r_guard(env_.cache, root_, r, PageLatchMode::kExclusive);
  Page pre = *r;

  uint16_t count = r->slot_count();
  if (count < 2) return Status::Corruption("root grow with <2 slots");
  uint16_t s = r->type() == PageType::kBtreeLeaf ? LeafSplitSlot(*r)
                                                 : static_cast<uint16_t>(count / 2);
  if (s == 0 || s >= count) s = count / 2;
  if (s == 0) s = 1;

  Page* a = nullptr;
  Page* b = nullptr;
  Result<PageId> alloc_a = env_.cache->NewPage(&a, PageLatchMode::kExclusive);
  if (!alloc_a.ok()) return alloc_a.status();
  PageId a_pgno = alloc_a.value();
  PageGuard a_guard(env_.cache, a_pgno, a, PageLatchMode::kExclusive);
  Result<PageId> alloc_b = env_.cache->NewPage(&b, PageLatchMode::kExclusive);
  if (!alloc_b.ok()) return alloc_b.status();
  PageId b_pgno = alloc_b.value();
  PageGuard b_guard(env_.cache, b_pgno, b, PageLatchMode::kExclusive);

  a->Format(a_pgno, r->type(), tree_id_, r->level());
  b->Format(b_pgno, r->type(), tree_id_, r->level());

  std::vector<std::string> records = r->AllRecords();
  for (uint16_t i = 0; i < s; ++i) CDB_RETURN_IF_ERROR(a->AppendRecord(records[i]));
  for (uint16_t i = s; i < count; ++i) CDB_RETURN_IF_ERROR(b->AppendRecord(records[i]));

  if (r->type() == PageType::kBtreeLeaf) {
    a->set_next_order_number(r->next_order_number());
    b->set_next_order_number(r->next_order_number());
    a->set_right_sibling(b_pgno);
    b->set_right_sibling(r->right_sibling());
  }

  // Root becomes an internal node one level up with two child entries.
  uint8_t new_level = static_cast<uint8_t>(r->level() + 1);
  Slice min_a_key, min_b_key;
  uint64_t min_a_start = 0, min_b_start = 0;
  CDB_RETURN_IF_ERROR(DecodeSlotKey(*a, 0, &min_a_key, &min_a_start));
  CDB_RETURN_IF_ERROR(DecodeSlotKey(*b, 0, &min_b_key, &min_b_start));

  IndexEntry ea{min_a_key.ToString(), min_a_start, a_pgno};
  IndexEntry eb{min_b_key.ToString(), min_b_start, b_pgno};

  r->Format(root_, PageType::kBtreeInternal, tree_id_, new_level);
  CDB_RETURN_IF_ERROR(r->AppendRecord(EncodeIndexEntry(ea)));
  CDB_RETURN_IF_ERROR(r->AppendRecord(EncodeIndexEntry(eb)));

  CDB_RETURN_IF_ERROR(EmitPageImage(*a, a));
  CDB_RETURN_IF_ERROR(EmitPageImage(*b, b));
  CDB_RETURN_IF_ERROR(EmitPageImage(*r, r));
  if (env_.wal != nullptr && env_.observer != nullptr) {
    CDB_RETURN_IF_ERROR(env_.wal->FlushAll());  // see KeySplit
  }
  if (env_.observer != nullptr) {
    CDB_RETURN_IF_ERROR(env_.observer->OnRootGrow(tree_id_, root_, a_pgno,
                                                  b_pgno, pre, *r, *a, *b));
  }
  r_guard.MarkDirty();
  a_guard.MarkDirty();
  b_guard.MarkDirty();
  Bm().root_grows->Inc();
  return Status::OK();
}

Status Btree::TimeSplitLeaf(PageId leaf_pgno, size_t* freed) {
  *freed = 0;
  if (env_.migration == nullptr) return Status::OK();
  Page* x = nullptr;
  CDB_RETURN_IF_ERROR(
      env_.cache->FetchPage(leaf_pgno, &x, PageLatchMode::kExclusive));
  PageGuard x_guard(env_.cache, leaf_pgno, x, PageLatchMode::kExclusive);
  Page pre = *x;

  uint16_t count = x->slot_count();
  std::vector<TupleData> tuples(count);
  for (uint16_t i = 0; i < count; ++i) {
    CDB_RETURN_IF_ERROR(DecodeTuple(x->RecordAt(i), &tuples[i]));
  }
  // A version is migratable if a *committed* (stamped) successor version
  // of the same key sits right after it on this page.
  std::vector<uint16_t> victims;
  for (uint16_t i = 0; i + 1 < count; ++i) {
    if (tuples[i].key == tuples[i + 1].key && tuples[i].stamped &&
        tuples[i + 1].stamped) {
      victims.push_back(i);
    }
  }
  if (victims.empty()) return Status::OK();

  // Everything below pays WORM + WAL + observer I/O for the migration;
  // the span shows it as one block on the migrating thread's track.
  obs::ScopedSpan migrate_span(obs::SpanKind::kTsbMigrate, tree_id_,
                               leaf_pgno);

  Page hist;
  hist.Format(leaf_pgno, PageType::kBtreeLeaf, tree_id_, 0);
  for (uint16_t v : victims) {
    CDB_RETURN_IF_ERROR(hist.AppendRecord(x->RecordAt(v)));
  }
  hist.set_next_order_number(x->next_order_number());

  Result<std::string> name = env_.migration->WriteHistoricalPage(tree_id_, hist);
  if (!name.ok()) return name.status();

  size_t before = x->FreeSpace();
  for (size_t i = victims.size(); i-- > 0;) {
    CDB_RETURN_IF_ERROR(x->EraseRecord(victims[i]));
  }
  *freed = x->FreeSpace() - before;

  CDB_RETURN_IF_ERROR(EmitPageImage(*x, x));
  if (env_.wal != nullptr && env_.observer != nullptr) {
    CDB_RETURN_IF_ERROR(env_.wal->FlushAll());  // see KeySplit
  }
  if (env_.observer != nullptr) {
    CDB_RETURN_IF_ERROR(env_.observer->OnMigrate(tree_id_, leaf_pgno, pre, *x,
                                                 name.value(), hist));
  }
  ++migrated_pages_;
  Bm().time_splits->Inc();
  obs::MetricsRegistry::Global().GetCounter("tsb.migrated_tuples")
      ->Inc(victims.size());
  x_guard.MarkDirty();
  return Status::OK();
}

Status Btree::RemoveVersion(TxnWalContext* txn, Slice key, uint64_t start,
                            bool as_clr, Lsn undo_next) {
  std::vector<PageId> path;
  CDB_RETURN_IF_ERROR(DescendToLeaf(key, start, &path));
  PageId leaf_pgno = path.back();
  Page* leaf = nullptr;
  CDB_RETURN_IF_ERROR(
      env_.cache->FetchPage(leaf_pgno, &leaf, PageLatchMode::kExclusive));

  uint16_t pos = LeafLowerBound(*leaf, key, start);
  Slice k;
  uint64_t s = 0;
  if (pos >= leaf->slot_count() ||
      !DecodeTupleKey(leaf->RecordAt(pos), &k, &s).ok() ||
      CompareVersion(k, s, key, start) != 0) {
    env_.cache->Unpin(leaf_pgno, false, PageLatchMode::kExclusive);
    return Status::NotFound("version to remove not found");
  }
  std::string removed(leaf->RecordAt(pos).data(), leaf->RecordAt(pos).size());
  Status st = leaf->EraseRecord(pos);
  if (!st.ok()) {
    env_.cache->Unpin(leaf_pgno, false, PageLatchMode::kExclusive);
    return st;
  }
  if (txn != nullptr && txn->log != nullptr) {
    WalRecord wal;
    wal.type = as_clr ? WalRecordType::kClrRemove : WalRecordType::kTupleRemove;
    wal.pgno = leaf_pgno;
    wal.tree_id = tree_id_;
    wal.tuple = removed;
    wal.undo_next = undo_next;
    leaf->set_lsn(txn->Emit(&wal));
  }
  env_.cache->Unpin(leaf_pgno, true, PageLatchMode::kExclusive);
  return Status::OK();
}

Status Btree::ReinsertRecord(TxnWalContext* txn, Slice record, Lsn undo_next) {
  Slice key;
  uint64_t start = 0;
  CDB_RETURN_IF_ERROR(DecodeTupleKey(record, &key, &start));
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    std::vector<PageId> path;
    CDB_RETURN_IF_ERROR(DescendToLeaf(key, start, &path));
    PageId leaf_pgno = path.back();
    Page* leaf = nullptr;
    CDB_RETURN_IF_ERROR(
        env_.cache->FetchPage(leaf_pgno, &leaf, PageLatchMode::kExclusive));

    uint16_t pos = LeafLowerBound(*leaf, key, start);
    if (pos < leaf->slot_count()) {
      Slice k;
      uint64_t s;
      Status st = DecodeTupleKey(leaf->RecordAt(pos), &k, &s);
      if (st.ok() && CompareVersion(k, s, key, start) == 0) {
        env_.cache->Unpin(leaf_pgno, false, PageLatchMode::kExclusive);
        return Status::OK();  // already re-inserted (idempotent undo)
      }
    }
    if (leaf->FreeSpace() < record.size()) {
      env_.cache->Unpin(leaf_pgno, false, PageLatchMode::kExclusive);
      CDB_RETURN_IF_ERROR(HandleLeafOverflow(path));
      continue;
    }
    Status st = leaf->InsertRecord(pos, record);
    if (!st.ok()) {
      env_.cache->Unpin(leaf_pgno, false, PageLatchMode::kExclusive);
      return st;
    }
    if (txn != nullptr && txn->log != nullptr) {
      WalRecord wal;
      wal.type = WalRecordType::kClrInsert;
      wal.pgno = leaf_pgno;
      wal.tree_id = tree_id_;
      wal.tuple = record.ToString();
      wal.undo_next = undo_next;
      leaf->set_lsn(txn->Emit(&wal));
    }
    env_.cache->Unpin(leaf_pgno, true, PageLatchMode::kExclusive);
    return Status::OK();
  }
  return Status::Corruption("reinsert did not converge");
}

Status Btree::StampVersion(TxnWalContext* txn, Slice key, uint64_t txn_start,
                           uint64_t commit_time) {
  std::vector<PageId> path;
  CDB_RETURN_IF_ERROR(DescendToLeaf(key, txn_start, &path));
  PageId leaf_pgno = path.back();
  Page* leaf = nullptr;
  CDB_RETURN_IF_ERROR(
      env_.cache->FetchPage(leaf_pgno, &leaf, PageLatchMode::kExclusive));

  uint16_t pos = LeafLowerBound(*leaf, key, txn_start);
  TupleData t;
  if (pos >= leaf->slot_count() ||
      !DecodeTuple(leaf->RecordAt(pos), &t).ok() || t.key != key.ToString() ||
      t.start != txn_start) {
    env_.cache->Unpin(leaf_pgno, false, PageLatchMode::kExclusive);
    return Status::NotFound("version to stamp not found");
  }
  if (t.stamped) {
    env_.cache->Unpin(leaf_pgno, false, PageLatchMode::kExclusive);
    return Status::OK();  // idempotent (recovery re-stamps)
  }
  uint16_t order_no = t.order_no;
  t.start = commit_time;
  t.stamped = true;
  Status st = leaf->ReplaceRecord(pos, EncodeTuple(t));
  if (!st.ok()) {
    env_.cache->Unpin(leaf_pgno, false, PageLatchMode::kExclusive);
    return st;
  }
  if (txn != nullptr && txn->log != nullptr) {
    WalRecord wal;
    wal.type = WalRecordType::kTupleStamp;
    wal.pgno = leaf_pgno;
    wal.tree_id = tree_id_;
    wal.order_no = order_no;
    wal.commit_time = commit_time;
    wal.tuple = key.ToString();  // key bytes; start in undo_next field
    wal.undo_next = txn_start;
    leaf->set_lsn(txn->Emit(&wal));
  }
  env_.cache->Unpin(leaf_pgno, true, PageLatchMode::kExclusive);
  return Status::OK();
}

Status Btree::GetLatest(Slice key, TupleData* out) {
  std::vector<TupleData> versions;
  CDB_RETURN_IF_ERROR(GetVersions(key, &versions));
  if (versions.empty()) return Status::NotFound("no such key");
  const TupleData& last = versions.back();
  if (last.eol) return Status::NotFound("key deleted");
  *out = last;
  return Status::OK();
}

Status Btree::GetVersions(Slice key, std::vector<TupleData>* out) {
  out->clear();
  // Between DescendToLeaf dropping its latches and the refetch below, a
  // concurrent RootGrow can reformat the root — the only page whose type
  // ever changes — into an internal node; re-descend when that happens.
  // Sibling pointers never lead back to the root, so only the first leaf
  // needs the check.
  PageId pgno = kInvalidPage;
  Page* first = nullptr;
  for (;;) {
    std::vector<PageId> path;
    CDB_RETURN_IF_ERROR(DescendToLeaf(key, 0, &path));
    pgno = path.back();
    CDB_RETURN_IF_ERROR(
        env_.cache->FetchPage(pgno, &first, PageLatchMode::kShared));
    if (first->type() == PageType::kBtreeLeaf) break;
    env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
  }
  // Versions of a key can spill across leaves; follow siblings until a
  // larger key is seen (keys are globally sorted across the leaf chain).
  bool saw_larger_key = false;
  while (pgno != kInvalidPage && !saw_larger_key) {
    Page* leaf = first;
    if (leaf == nullptr) {
      CDB_RETURN_IF_ERROR(
          env_.cache->FetchPage(pgno, &leaf, PageLatchMode::kShared));
    }
    first = nullptr;
    uint16_t count = leaf->slot_count();
    std::vector<std::string> records;
    for (uint16_t i = LeafLowerBound(*leaf, key, 0); i < count; ++i) {
      Slice k;
      uint64_t s;
      Status st = DecodeTupleKey(leaf->RecordAt(i), &k, &s);
      if (!st.ok()) {
        env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
        return st;
      }
      if (k != key) {
        saw_larger_key = true;
        break;
      }
      records.emplace_back(leaf->RecordAt(i).data(), leaf->RecordAt(i).size());
    }
    PageId next = leaf->right_sibling();
    env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
    for (const auto& r : records) {
      TupleData t;
      CDB_RETURN_IF_ERROR(DecodeTuple(r, &t));
      out->push_back(std::move(t));
    }
    // Each extra leaf crossed to assemble one key's version thread is a
    // "hop" — the cost time-splitting exists to keep low.
    if (!saw_larger_key && next != kInvalidPage) Bm().version_hops->Inc();
    pgno = next;
  }
  return Status::OK();
}

Status Btree::ScanAll(
    const std::function<Status(PageId, const TupleData&)>& fn) {
  // Find the leftmost leaf, restarting if a concurrent RootGrow turns the
  // root into an internal node between the descent and the first fetch of
  // the sibling walk (see GetVersions).
  PageId pgno = kInvalidPage;
  Page* first = nullptr;
  for (;;) {
    pgno = root_;
    for (int depth = 0; depth < 64; ++depth) {
      Page* page = nullptr;
      CDB_RETURN_IF_ERROR(
          env_.cache->FetchPage(pgno, &page, PageLatchMode::kShared));
      if (page->type() == PageType::kBtreeLeaf) {
        env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
        break;
      }
      if (page->slot_count() == 0) {
        env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
        return Status::Corruption("empty internal page");
      }
      Slice k;
      uint64_t s;
      PageId child;
      Status st = DecodeIndexEntryKey(page->RecordAt(0), &k, &s, &child);
      env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
      CDB_RETURN_IF_ERROR(st);
      pgno = child;
    }
    CDB_RETURN_IF_ERROR(
        env_.cache->FetchPage(pgno, &first, PageLatchMode::kShared));
    if (first->type() == PageType::kBtreeLeaf) break;
    env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
  }
  // Walk the sibling chain.
  while (pgno != kInvalidPage) {
    Page* leaf = first;
    if (leaf == nullptr) {
      CDB_RETURN_IF_ERROR(
          env_.cache->FetchPage(pgno, &leaf, PageLatchMode::kShared));
    }
    first = nullptr;
    std::vector<std::string> records = leaf->AllRecords();
    PageId next = leaf->right_sibling();
    PageId this_pgno = pgno;
    env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
    for (const auto& r : records) {
      TupleData t;
      CDB_RETURN_IF_ERROR(DecodeTuple(r, &t));
      CDB_RETURN_IF_ERROR(fn(this_pgno, t));
    }
    pgno = next;
  }
  return Status::OK();
}

Status Btree::ScanVersionsInRange(
    Slice begin, Slice end,
    const std::function<Status(const TupleData&)>& fn) {
  // Same RootGrow race as GetVersions: re-descend if the page the descent
  // landed on was reformatted into an internal node in the meantime.
  PageId pgno = kInvalidPage;
  Page* first = nullptr;
  for (;;) {
    std::vector<PageId> path;
    CDB_RETURN_IF_ERROR(DescendToLeaf(begin, 0, &path));
    pgno = path.back();
    CDB_RETURN_IF_ERROR(
        env_.cache->FetchPage(pgno, &first, PageLatchMode::kShared));
    if (first->type() == PageType::kBtreeLeaf) break;
    env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
  }
  std::string end_key = end.ToString();
  bool stopped = false;
  while (pgno != kInvalidPage && !stopped) {
    Page* leaf = first;
    if (leaf == nullptr) {
      CDB_RETURN_IF_ERROR(
          env_.cache->FetchPage(pgno, &leaf, PageLatchMode::kShared));
    }
    first = nullptr;
    std::vector<std::string> records;
    uint16_t count = leaf->slot_count();
    for (uint16_t i = begin.empty() ? 0 : LeafLowerBound(*leaf, begin, 0);
         i < count; ++i) {
      Slice rec = leaf->RecordAt(i);
      records.emplace_back(rec.data(), rec.size());
    }
    PageId next = leaf->right_sibling();
    env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
    for (const auto& r : records) {
      TupleData t;
      CDB_RETURN_IF_ERROR(DecodeTuple(r, &t));
      if (!end_key.empty() && t.key >= end_key) {
        stopped = true;
        break;
      }
      Status s = fn(t);
      if (s.IsBusy()) {  // early-stop sentinel
        stopped = true;
        break;
      }
      CDB_RETURN_IF_ERROR(s);
    }
    pgno = next;
  }
  return Status::OK();
}

Status Btree::ScanCurrent(
    const std::function<Status(const TupleData&)>& fn) {
  return ScanRangeCurrent(Slice(), Slice(), fn);
}

Status Btree::ScanRangeCurrent(
    Slice begin, Slice end,
    const std::function<Status(const TupleData&)>& fn) {
  bool has_prev = false;
  bool stop_requested = false;
  TupleData prev;
  auto flush_group = [&]() -> Status {
    if (has_prev && !prev.eol) {
      Status s = fn(prev);
      if (s.IsBusy()) {
        stop_requested = true;
        return Status::OK();
      }
      return s;
    }
    return Status::OK();
  };

  CDB_RETURN_IF_ERROR(
      ScanVersionsInRange(begin, end, [&](const TupleData& t) -> Status {
        if (has_prev && t.key != prev.key) {
          CDB_RETURN_IF_ERROR(flush_group());
          if (stop_requested) return Status::Busy("stop");
        }
        prev = t;
        has_prev = true;
        return Status::OK();
      }));
  if (stop_requested) return Status::OK();
  return flush_group();
}

Result<Btree::PageStats> Btree::CountPages() {
  PageStats stats;
  // BFS from the root over internal entries.
  std::vector<PageId> frontier = {root_};
  while (!frontier.empty()) {
    PageId pgno = frontier.back();
    frontier.pop_back();
    Page* page = nullptr;
    CDB_RETURN_IF_ERROR(
        env_.cache->FetchPage(pgno, &page, PageLatchMode::kShared));
    if (page->type() == PageType::kBtreeLeaf) {
      ++stats.leaf_pages;
    } else {
      ++stats.internal_pages;
      for (uint16_t i = 0; i < page->slot_count(); ++i) {
        Slice k;
        uint64_t s;
        PageId child;
        Status st = DecodeIndexEntryKey(page->RecordAt(i), &k, &s, &child);
        if (!st.ok()) {
          env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
          return st;
        }
        frontier.push_back(child);
      }
    }
    env_.cache->Unpin(pgno, false, PageLatchMode::kShared);
  }
  return stats;
}

}  // namespace complydb

#include "audit/audit_cursor.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>

#include "btree/tuple.h"
#include "common/coding.h"
#include "common/thread_pool.h"
#include "compliance/compliance_log.h"
#include "compliance/records.h"
#include "compliance/snapshot.h"
#include "crypto/hmac.h"
#include "obs/metrics.h"

namespace complydb {

namespace {

struct CursorMetrics {
  obs::Counter* runs;
  obs::Counter* records;
  obs::Counter* bytes;
  obs::Counter* problems;
  obs::Counter* proofs;
  obs::Histogram* run_us;
  obs::Gauge* certified_seq;
  CursorMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    runs = reg.GetCounter("audit.incremental.runs");
    records = reg.GetCounter("audit.incremental.records");
    bytes = reg.GetCounter("audit.incremental.bytes");
    problems = reg.GetCounter("audit.incremental.problems");
    proofs = reg.GetCounter("audit.proofs_built");
    run_us = reg.GetHistogram("audit.incremental.us");
    certified_seq = reg.GetGauge("audit.epoch.certified_seq");
  }
};

CursorMetrics& Xm() {
  static CursorMetrics m;
  return m;
}

using PageKey = PageReplayer::PageKey;

/// Every (tree, pgno) a record can create, rewrite, or erase in a
/// replayer. Window shards are seeded with exactly these keys, and the
/// window fold-back overwrites/erases exactly these keys, so the merged
/// state is identical to a serial replay of the window.
void CollectTouched(const CRecord& rec, std::set<PageKey>* pages,
                    std::set<PageKey>* index) {
  switch (rec.type) {
    case CRecordType::kNewTree:
    case CRecordType::kNewTuple:
    case CRecordType::kUndo:
    case CRecordType::kStampPage:
    case CRecordType::kMigrate:
    case CRecordType::kReadHash:
      pages->insert({rec.tree_id, rec.pgno});
      break;
    case CRecordType::kPageSplit:
      pages->insert({rec.tree_id, rec.pgno});
      pages->insert({rec.tree_id, rec.new_pgno});
      break;
    case CRecordType::kRootGrow:
      pages->insert({rec.tree_id, rec.pgno});
      pages->insert({rec.tree_id, rec.new_pgno});
      pages->insert({rec.tree_id, rec.third_pgno});
      break;
    case CRecordType::kIndexAdd:
    case CRecordType::kIndexRemove:
    case CRecordType::kReadHashIndex:
      index->insert({rec.tree_id, rec.pgno});
      break;
    default:
      break;
  }
}

std::vector<std::string> StateRecords(const PageReplayer::PageState& state) {
  std::vector<std::string> records;
  records.reserve(state.size());
  for (const auto& [order_no, rec] : state) records.push_back(rec);
  return records;
}

std::vector<std::string> StateEntries(const PageReplayer::IndexState& state) {
  std::vector<std::string> entries;
  entries.reserve(state.size());
  for (const auto& [sort_key, entry] : state) entries.push_back(entry);
  return entries;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Reads sealed window `se` of L into `blob` and checks its bytes against
// the header: framing, record count, Merkle root. Returns the finding, or
// "" when the bytes match; a failed Status only for I/O trouble.
Result<std::string> CheckSealedWindow(const WormStore* worm, uint64_t epoch,
                                      const SealedEpoch& se,
                                      std::string* blob) {
  const uint64_t len = se.end_offset - se.begin_offset;
  Status rs = worm->ReadAt(LogFileName(epoch), se.begin_offset, len, blob);
  if (rs.IsTampered() || (rs.ok() && blob->size() != len)) {
    return std::string("L is shorter than the sealed range");
  }
  if (!rs.ok()) return rs;
  std::vector<Sha256Digest> leaves;
  Status fs = EpochLeafHashes(*blob, &leaves);
  if (!fs.ok()) return fs.ToString();
  if (leaves.size() != se.record_count) {
    return std::string("record count disagrees with the sealed header");
  }
  if (!DigestEqual(MerkleRoot(leaves), se.merkle_root)) {
    return std::string("L range does not match its sealed merkle root");
  }
  return std::string();
}

Status VerifyLeaf(const InclusionProof& proof, const InclusionProof::Leaf& leaf,
                  CRecord* rec, const char* what) {
  if (leaf.epoch_seq == 0 || leaf.epoch_seq > proof.chain.size()) {
    return Status::Tampered(std::string(what) +
                            " proof: epoch seq outside the chain");
  }
  const SealedEpoch& se = proof.chain[leaf.epoch_seq - 1];
  if (leaf.leaf_index >= se.record_count) {
    return Status::Tampered(std::string(what) +
                            " proof: leaf index outside the sealed epoch");
  }
  Sha256Digest root;
  CDB_RETURN_IF_ERROR(MerkleRootFromPath(MerkleLeafHash(leaf.record),
                                         leaf.leaf_index, se.record_count,
                                         leaf.path, &root));
  if (!DigestEqual(root, se.merkle_root)) {
    return Status::Tampered(std::string(what) +
                            " proof: merkle path does not reach the sealed "
                            "epoch root");
  }
  size_t consumed = 0;
  Status s = CRecord::Decode(Slice(leaf.record), rec, &consumed);
  if (!s.ok() || consumed != leaf.record.size()) {
    return Status::Tampered(std::string(what) +
                            " proof: leaf bytes are not one framed record");
  }
  return Status::OK();
}

}  // namespace

Status VerifyInclusionProof(const InclusionProof& proof,
                            const Sha256Digest& trusted_root,
                            uint32_t tree_id, Slice key, Slice value,
                            uint64_t commit_time) {
  if (proof.chain.empty()) {
    return Status::Tampered("proof: empty epoch chain");
  }
  // Recompute the whole chain from the seed: header order, L tiling, and
  // every link digest, ending at the trusted root. After this, each
  // header's merkle_root is trustworthy.
  Sha256Digest prev = ChainSeed(proof.audit_epoch);
  uint64_t next_begin = 0;
  for (size_t i = 0; i < proof.chain.size(); ++i) {
    const SealedEpoch& se = proof.chain[i];
    if (se.seq != i + 1 || se.audit_epoch != proof.audit_epoch ||
        se.begin_offset != next_begin || se.end_offset < se.begin_offset) {
      return Status::Tampered("proof: chain headers do not tile L");
    }
    if (!DigestEqual(se.chain, ChainLink(prev, se))) {
      return Status::Tampered("proof: chain link digest mismatch at seq " +
                              std::to_string(se.seq));
    }
    prev = se.chain;
    next_begin = se.end_offset;
  }
  if (!DigestEqual(prev, trusted_root)) {
    return Status::Tampered(
        "proof: chain head does not match the trusted certified root");
  }
  // The tuple leaf must be a NEW_TUPLE for exactly (tree, key, value).
  CRecord rec;
  CDB_RETURN_IF_ERROR(VerifyLeaf(proof, proof.tuple, &rec, "tuple"));
  if (rec.type != CRecordType::kNewTuple || rec.tree_id != tree_id) {
    return Status::Tampered("proof: leaf is not a NEW_TUPLE for the tree");
  }
  TupleData t;
  if (!DecodeTuple(rec.tuple, &t).ok()) {
    return Status::Tampered("proof: undecodable tuple in leaf");
  }
  if (Slice(t.key) != key || Slice(t.value) != value || t.eol) {
    return Status::Tampered("proof: tuple does not match the claimed "
                            "key/value");
  }
  if (t.stamped) {
    if (t.start != commit_time) {
      return Status::Tampered("proof: stamped tuple commit time mismatch");
    }
    return Status::OK();
  }
  // Lazily stamped: the STAMP_TRANS leaf resolves txn id -> commit time.
  if (!proof.has_stamp) {
    return Status::Tampered("proof: unstamped tuple without a STAMP_TRANS "
                            "leaf");
  }
  CRecord stamp;
  CDB_RETURN_IF_ERROR(VerifyLeaf(proof, proof.stamp, &stamp, "stamp"));
  if (stamp.type != CRecordType::kStampTrans || stamp.txn_id != t.start ||
      stamp.commit_time != commit_time) {
    return Status::Tampered("proof: STAMP_TRANS does not bind the tuple's "
                            "transaction to the claimed commit time");
  }
  return Status::OK();
}

// ----------------------------------------------------------------- cursor

Status AuditCursor::Attach(uint64_t audit_epoch) {
  return AttachInternal(audit_epoch, true);
}

Status AuditCursor::AttachFresh(uint64_t audit_epoch) {
  return AttachInternal(audit_epoch, false);
}

Status AuditCursor::AttachInternal(uint64_t audit_epoch,
                                   bool use_certification) {
  epoch_ = audit_epoch;
  certified_seq_ = 0;
  certified_offset_ = 0;
  certified_root_ = ChainSeed(audit_epoch);
  summary_ = LogSummary{};
  summary_problems_seen_ = 0;
  problems_.clear();
  records_applied_ = 0;
  spent_ = false;
  stopped_at_.reset();
  PageReplayer::Options ropts;
  ropts.verify = true;
  ropts.verify_read_hashes = opts_.verify_read_hashes;
  state_ = PageReplayer(ropts, &summary_);
  state_problems_seen_ = 0;
  // Seed from the epoch's signed snapshot, exactly as the full audit
  // seeds its replayer.
  if (worm_->Exists(SnapshotFileName(audit_epoch))) {
    auto snap = Snapshot::ReadVerified(worm_, audit_epoch, opts_.auditor_key);
    if (!snap.ok()) return snap.status();
    for (const auto& page : snap.value().pages) {
      state_.SeedPage(page.tree_id, page.pgno, page.records);
    }
    for (const auto& page : snap.value().index_pages) {
      state_.SeedIndexPage(page.tree_id, page.pgno, page.records);
    }
  }
  if (!use_certification) return Status::OK();
  auto cert = ReadLastCertification(worm_, audit_epoch);
  if (cert.status().IsNotFound()) return Status::OK();
  if (!cert.ok()) return cert.status();
  const CertificationRecord& marker = cert.value();
  if (marker.audit_epoch != audit_epoch ||
      !DigestEqual(marker.mac, marker.ComputeMac(opts_.auditor_key))) {
    return Status::Tampered("certification marker fails HMAC verification");
  }
  auto chain = ReadEpochChain(worm_, audit_epoch);
  if (!chain.ok()) return chain.status();
  if (chain.value().size() < marker.certified_seq ||
      marker.certified_seq == 0) {
    return Status::Tampered("certification marker points past the chain");
  }
  const SealedEpoch& head = chain.value()[marker.certified_seq - 1];
  if (!DigestEqual(head.chain, marker.chain_digest) ||
      head.end_offset != marker.certified_offset) {
    return Status::Tampered("certification marker disagrees with the chain");
  }
  // Re-derive the certified prefix by the same windowed replay that
  // produced it. The trusted base is the marker; any divergence (which
  // would include tampered L bytes) comes back as problems, which a
  // certified prefix by definition did not have.
  auto rebuilt = CertifyThrough(chain.value(), 1, marker.certified_seq);
  if (!rebuilt.ok()) return rebuilt.status();
  if (!rebuilt.value().ok()) {
    return Status::Tampered(
        "certified prefix no longer replays cleanly: " +
        rebuilt.value().problems.front());
  }
  if (certified_seq_ != marker.certified_seq ||
      !DigestEqual(certified_root_, marker.chain_digest)) {
    return Status::Tampered("certified prefix diverged from its marker");
  }
  return Status::OK();
}

void AuditCursor::AddProblem(const std::string& what,
                             IncrementalAuditReport* rep) {
  problems_.push_back(what);
  ReportFinding(what, rep);
}

void AuditCursor::ReportFinding(const std::string& what,
                                IncrementalAuditReport* rep) {
  rep->problems.push_back(what);
  Xm().problems->Inc();
}

Status AuditCursor::ApplyWindow(const std::string& blob, uint64_t base,
                                const std::string& tag, bool sealed,
                                uint32_t nthreads, ThreadPool* pool,
                                IncrementalAuditReport* rep) {
  std::vector<CRecord> recs;
  std::vector<uint64_t> offsets;  // L offsets
  Status ds;
  size_t off = 0;
  while (off < blob.size()) {
    CRecord rec;
    size_t consumed = 0;
    ds = CRecord::Decode(Slice(blob.data() + off, blob.size() - off), &rec,
                         &consumed);
    if (!ds.ok()) break;
    recs.push_back(std::move(rec));
    offsets.push_back(base + off);
    off += consumed;
  }
  if (!ds.ok() && sealed) {
    ReportFinding(tag + ": " + ds.ToString(), rep);
    return Status::Tampered(tag);
  }
  if (!ds.ok()) stopped_at_ = base + off;
  // Window summary folds into the cumulative one *before* replay — UNDO
  // justification inside the window may reference this window's ABORT.
  for (size_t i = 0; i < recs.size(); ++i) {
    SummarizeRecord(recs[i], offsets[i], &summary_);
  }
  for (; summary_problems_seen_ < summary_.problems.size();
       ++summary_problems_seen_) {
    AddProblem(summary_.problems[summary_problems_seen_], rep);
  }
  Status as;
  if (nthreads <= 1) {
    for (size_t i = 0; i < recs.size() && as.ok(); ++i) {
      as = state_.Apply(recs[i], offsets[i]);
    }
  } else {
    // Sharded window replay: every shard applies the whole window but
    // only to pages it owns; shards are seeded with the cursor's current
    // state for exactly the pages the window touches, then folded back
    // with overwrite/erase semantics.
    std::set<PageKey> touched_pages;
    std::set<PageKey> touched_index;
    for (const CRecord& rec : recs) {
      CollectTouched(rec, &touched_pages, &touched_index);
    }
    std::vector<PageKey> tp(touched_pages.begin(), touched_pages.end());
    std::vector<PageKey> ti(touched_index.begin(), touched_index.end());
    std::vector<std::unique_ptr<PageReplayer>> shards;
    std::vector<Status> shard_status(nthreads, Status::OK());
    shards.reserve(nthreads);
    for (uint32_t i = 0; i < nthreads; ++i) {
      PageReplayer::Options sopts;
      sopts.verify = true;
      sopts.verify_read_hashes = opts_.verify_read_hashes;
      sopts.shard_index = i;
      sopts.shard_count = nthreads;
      shards.push_back(std::make_unique<PageReplayer>(sopts, &summary_));
    }
    pool->ParallelFor(0, nthreads, [&](size_t i) {
      PageReplayer* shard = shards[i].get();
      for (const PageKey& key : tp) {
        auto it = state_.pages().find(key);
        if (it != state_.pages().end()) {
          shard->SeedPage(key.first, key.second, StateRecords(it->second));
        }
      }
      for (const PageKey& key : ti) {
        auto it = state_.index_pages().find(key);
        if (it != state_.index_pages().end()) {
          shard->SeedIndexPage(key.first, key.second,
                               StateEntries(it->second));
        }
      }
      for (size_t r = 0; r < recs.size(); ++r) {
        shard_status[i] = shard->Apply(recs[r], offsets[r]);
        if (!shard_status[i].ok()) break;
      }
    });
    for (const Status& st : shard_status) {
      if (!st.ok()) {
        as = st;
        break;
      }
    }
    if (as.ok()) {
      for (auto& shard : shards) {
        state_.AbsorbWindowShard(std::move(*shard), tp, ti);
      }
      state_.FinishMerge();
    }
  }
  if (!as.ok()) {
    AddProblem(tag + ": replay: " + as.ToString(), rep);
    return Status::Tampered(tag);
  }
  // Resolve the UNDO justifications and identities this window's state
  // can answer; the rest stay pending for later windows (or Finalize).
  state_.ResolvePendingMoves();
  for (; state_problems_seen_ < state_.problems().size();
       ++state_problems_seen_) {
    AddProblem(state_.problems()[state_problems_seen_], rep);
  }
  records_applied_ += recs.size();
  rep->records_replayed += recs.size();
  rep->bytes_replayed += blob.size();
  if (!ds.ok()) {
    AddProblem(tag + ": replay stopped: " + ds.ToString(), rep);
    return Status::Tampered(tag);
  }
  return Status::OK();
}

Result<IncrementalAuditReport> AuditCursor::CertifyThrough(
    const std::vector<SealedEpoch>& chain, uint32_t num_threads,
    uint64_t limit_seq) {
  if (spent_) {
    return Status::InvalidArgument(
        "audit cursor already replayed its uncertified tail; re-attach");
  }
  auto t0 = std::chrono::steady_clock::now();
  uint32_t nthreads = num_threads == 0 ? 1 : num_threads;
  IncrementalAuditReport rep;
  rep.threads_used = nthreads;
  uint64_t hashes_before = state_.read_hashes_checked();
  if (chain.size() < certified_seq_) {
    return Status::Tampered("epoch chain shrank below the certified head");
  }
  if (certified_seq_ > 0 &&
      !DigestEqual(chain[certified_seq_ - 1].chain, certified_root_)) {
    return Status::Tampered(
        "epoch chain rewrote history under the certified head");
  }
  std::unique_ptr<ThreadPool> pool;
  if (nthreads > 1) pool = std::make_unique<ThreadPool>(nthreads);
  for (size_t i = certified_seq_; i < chain.size() && chain[i].seq <= limit_seq;
       ++i) {
    const SealedEpoch& se = chain[i];
    const std::string tag = "sealed epoch " + std::to_string(se.seq);
    std::string blob;
    auto finding = CheckSealedWindow(worm_, epoch_, se, &blob);
    if (!finding.ok()) return finding.status();
    if (!finding.value().empty()) {
      ReportFinding(tag + ": " + finding.value(), &rep);
      break;  // head stays put
    }
    Status ws = ApplyWindow(blob, se.begin_offset, tag, /*sealed=*/true,
                            nthreads, pool.get(), &rep);
    if (!ws.ok()) break;  // problem already recorded; head stays put
    certified_seq_ = se.seq;
    certified_offset_ = se.end_offset;
    certified_root_ = se.chain;
    ++rep.epochs_certified;
  }
  rep.certified_seq = certified_seq_;
  rep.certified_offset = certified_offset_;
  rep.chain_root = certified_root_;
  rep.state_digest = StateDigest();
  rep.read_hashes_checked = state_.read_hashes_checked() - hashes_before;
  rep.all_problems = problems_;
  rep.seconds = SecondsSince(t0);
  Xm().runs->Inc();
  Xm().records->Inc(rep.records_replayed);
  Xm().bytes->Inc(rep.bytes_replayed);
  Xm().run_us->Record(static_cast<uint64_t>(rep.seconds * 1e6));
  Xm().certified_seq->Set(static_cast<int64_t>(certified_seq_));
  return rep;
}

Status AuditCursor::RehashCertified(const std::vector<SealedEpoch>& chain,
                                    uint64_t through_seq,
                                    std::vector<std::string>* findings) const {
  for (size_t i = 0; i < through_seq && i < chain.size(); ++i) {
    std::string blob;
    auto finding = CheckSealedWindow(worm_, epoch_, chain[i], &blob);
    if (!finding.ok()) return finding.status();
    if (!finding.value().empty()) {
      findings->push_back("sealed epoch " + std::to_string(chain[i].seq) +
                          ": " + finding.value());
    }
  }
  return Status::OK();
}

Result<IncrementalAuditReport> AuditCursor::ReplayTail(uint32_t num_threads) {
  if (spent_) {
    return Status::InvalidArgument(
        "audit cursor already replayed its uncertified tail; re-attach");
  }
  auto t0 = std::chrono::steady_clock::now();
  uint32_t nthreads = num_threads == 0 ? 1 : num_threads;
  IncrementalAuditReport rep;
  rep.threads_used = nthreads;
  uint64_t hashes_before = state_.read_hashes_checked();
  auto info = worm_->GetInfo(LogFileName(epoch_));
  if (!info.ok()) return info.status();
  const std::string tag =
      "L tail from offset " + std::to_string(certified_offset_);
  std::string blob;
  if (info.value().size > certified_offset_) {
    Status rs = worm_->ReadAt(LogFileName(epoch_), certified_offset_,
                              info.value().size - certified_offset_, &blob);
    if (rs.IsTampered()) {
      stopped_at_ = certified_offset_;
      AddProblem(tag + ": " + rs.ToString(), &rep);
    } else if (!rs.ok()) {
      return rs;
    }
  }
  spent_ = true;
  std::unique_ptr<ThreadPool> pool;
  if (nthreads > 1) pool = std::make_unique<ThreadPool>(nthreads);
  // A failed window has already recorded its finding.
  (void)ApplyWindow(blob, certified_offset_, tag, /*sealed=*/false, nthreads,
                    pool.get(), &rep);
  CDB_RETURN_IF_ERROR(state_.Finalize());
  for (; state_problems_seen_ < state_.problems().size();
       ++state_problems_seen_) {
    AddProblem(state_.problems()[state_problems_seen_], &rep);
  }
  rep.certified_seq = certified_seq_;
  rep.certified_offset = certified_offset_;
  rep.chain_root = certified_root_;
  rep.read_hashes_checked = state_.read_hashes_checked() - hashes_before;
  rep.all_problems = problems_;
  rep.seconds = SecondsSince(t0);
  Xm().records->Inc(rep.records_replayed);
  Xm().bytes->Inc(rep.bytes_replayed);
  return rep;
}

Status AuditCursor::PersistCertification() {
  if (certified_seq_ == 0) return Status::OK();
  CertificationRecord marker;
  marker.audit_epoch = epoch_;
  marker.certified_seq = certified_seq_;
  marker.certified_offset = certified_offset_;
  marker.chain_digest = certified_root_;
  marker.mac = marker.ComputeMac(opts_.auditor_key);
  if (!worm_->Exists(CertFileName(epoch_))) {
    CDB_RETURN_IF_ERROR(worm_->Create(CertFileName(epoch_), 0));
  }
  return worm_->Append(CertFileName(epoch_), marker.Encode());
}

Sha256Digest AuditCursor::StateDigest() const {
  Sha256 h;
  std::string buf;
  for (const auto& [key, state] : state_.pages()) {
    buf.clear();
    buf.push_back('P');
    PutFixed32(&buf, key.first);
    PutFixed64(&buf, key.second);
    PutFixed32(&buf, static_cast<uint32_t>(state.size()));
    h.Update(buf);
    for (const auto& [order_no, rec] : state) {
      buf.clear();
      PutFixed16(&buf, order_no);
      PutLengthPrefixed(&buf, rec);
      h.Update(buf);
    }
  }
  for (const auto& [key, state] : state_.index_pages()) {
    buf.clear();
    buf.push_back('I');
    PutFixed32(&buf, key.first);
    PutFixed64(&buf, key.second);
    PutFixed32(&buf, static_cast<uint32_t>(state.size()));
    h.Update(buf);
    for (const auto& [sort_key, entry] : state) {
      buf.clear();
      PutLengthPrefixed(&buf, sort_key);
      PutLengthPrefixed(&buf, entry);
      h.Update(buf);
    }
  }
  for (const auto& [tree_id, root] : state_.tree_roots()) {
    buf.clear();
    buf.push_back('T');
    PutFixed32(&buf, tree_id);
    PutFixed64(&buf, root);
    h.Update(buf);
  }
  return h.Finish();
}

Result<InclusionProof> AuditCursor::ProveInclusion(uint32_t tree_id, Slice key,
                                                   Slice value,
                                                   uint64_t commit_time) {
  if (certified_seq_ == 0) {
    return Status::NotFound("no certified epochs yet — run AuditIncremental");
  }
  auto chain_r = ReadEpochChain(worm_, epoch_);
  if (!chain_r.ok()) return chain_r.status();
  const std::vector<SealedEpoch>& chain = chain_r.value();
  if (chain.size() < certified_seq_) {
    return Status::Tampered("epoch chain shrank below the certified head");
  }
  struct Loc {
    uint64_t seq = 0;
    uint64_t index = 0;
    std::string frame;
  };
  Loc tuple_loc;
  bool tuple_found = false;
  bool tuple_stamped = false;
  TxnId tuple_txn = 0;
  std::map<TxnId, Loc> stamp_locs;  // STAMP_TRANS at the target commit time
  for (size_t i = 0; i < certified_seq_; ++i) {
    const SealedEpoch& se = chain[i];
    std::string blob;
    CDB_RETURN_IF_ERROR(worm_->ReadAt(LogFileName(epoch_), se.begin_offset,
                                      se.end_offset - se.begin_offset, &blob));
    std::vector<uint64_t> offsets;
    CDB_RETURN_IF_ERROR(FrameBoundaries(blob, &offsets));
    for (size_t j = 0; j < offsets.size(); ++j) {
      size_t end = (j + 1 < offsets.size()) ? offsets[j + 1] : blob.size();
      CRecord rec;
      size_t consumed = 0;
      CDB_RETURN_IF_ERROR(CRecord::Decode(
          Slice(blob.data() + offsets[j], blob.size() - offsets[j]), &rec,
          &consumed));
      if (rec.type == CRecordType::kNewTuple && rec.tree_id == tree_id) {
        TupleData t;
        if (!DecodeTuple(rec.tuple, &t).ok()) continue;
        if (Slice(t.key) != key || Slice(t.value) != value || t.eol) continue;
        uint64_t resolved = 0;
        if (t.stamped) {
          resolved = t.start;
        } else {
          auto it = summary_.stamps.find(t.start);
          if (it == summary_.stamps.end()) continue;
          resolved = it->second;
        }
        if (resolved != commit_time) continue;
        tuple_loc.seq = se.seq;
        tuple_loc.index = j;
        tuple_loc.frame.assign(blob.data() + offsets[j], end - offsets[j]);
        tuple_found = true;
        tuple_stamped = t.stamped;
        tuple_txn = t.start;
      } else if (rec.type == CRecordType::kStampTrans &&
                 rec.commit_time == commit_time) {
        Loc loc;
        loc.seq = se.seq;
        loc.index = j;
        loc.frame.assign(blob.data() + offsets[j], end - offsets[j]);
        stamp_locs[rec.txn_id] = std::move(loc);
      }
    }
  }
  if (!tuple_found) {
    return Status::NotFound(
        "version is not covered by the certified chain (it may have "
        "committed after the last certified epoch)");
  }
  InclusionProof proof;
  proof.audit_epoch = epoch_;
  proof.chain.assign(chain.begin(),
                     chain.begin() + static_cast<size_t>(certified_seq_));
  auto build_leaf = [&](const Loc& loc,
                        InclusionProof::Leaf* leaf) -> Status {
    const SealedEpoch& se = chain[loc.seq - 1];
    std::string blob;
    CDB_RETURN_IF_ERROR(worm_->ReadAt(LogFileName(epoch_), se.begin_offset,
                                      se.end_offset - se.begin_offset, &blob));
    std::vector<Sha256Digest> leaves;
    CDB_RETURN_IF_ERROR(EpochLeafHashes(blob, &leaves));
    leaf->epoch_seq = loc.seq;
    leaf->leaf_index = loc.index;
    leaf->record = loc.frame;
    leaf->path = MerkleAuditPath(leaves, loc.index);
    return Status::OK();
  };
  CDB_RETURN_IF_ERROR(build_leaf(tuple_loc, &proof.tuple));
  if (!tuple_stamped) {
    auto it = stamp_locs.find(tuple_txn);
    if (it == stamp_locs.end()) {
      return Status::NotFound(
          "tuple's STAMP_TRANS is not in the certified chain");
    }
    proof.has_stamp = true;
    CDB_RETURN_IF_ERROR(build_leaf(it->second, &proof.stamp));
  }
  Xm().proofs->Inc();
  return proof;
}

}  // namespace complydb

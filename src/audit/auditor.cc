#include "audit/auditor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>

#include "audit/audit_cursor.h"
#include "audit/epoch_chain.h"
#include "btree/integrity.h"
#include "btree/tuple.h"
#include "common/coding.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "storage/buffer_cache.h"

namespace complydb {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct AuditMetrics {
  obs::Counter* runs;
  obs::Counter* pages_checked;
  obs::Counter* tuples_checked;
  obs::Counter* problems;
  obs::Histogram* snapshot_us;
  obs::Histogram* summarize_us;
  obs::Histogram* replay_us;
  obs::Histogram* final_state_us;
  obs::Histogram* index_check_us;
  obs::Histogram* total_us;
  AuditMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    runs = reg.GetCounter("audit.runs");
    pages_checked = reg.GetCounter("audit.pages_checked");
    tuples_checked = reg.GetCounter("audit.tuples_checked");
    problems = reg.GetCounter("audit.problems");
    snapshot_us = reg.GetHistogram("audit.phase.snapshot_us");
    summarize_us = reg.GetHistogram("audit.phase.summarize_us");
    replay_us = reg.GetHistogram("audit.phase.replay_us");
    final_state_us = reg.GetHistogram("audit.phase.final_state_us");
    index_check_us = reg.GetHistogram("audit.phase.index_check_us");
    total_us = reg.GetHistogram("audit.phase.total_us");
  }
};
AuditMetrics& Am() {
  static AuditMetrics m;
  return m;
}

// Records one audit-phase timing in the histogram and the span ring
// (span causal key = the audited epoch).
void RecordPhase(obs::AuditPhase phase, obs::Histogram* hist, double seconds,
                 uint64_t epoch) {
  auto micros = static_cast<uint64_t>(seconds * 1e6);
  hist->Record(micros);
  if (obs::SpansEnabled()) {
    uint64_t end = obs::MonotonicMicros();
    obs::SpanRing::Global().Emit(obs::SpanKind::kAuditPhase, epoch,
                                 end > micros ? end - micros : 0, end,
                                 static_cast<uint64_t>(phase));
  }
}

std::string HashBytes(Slice s) {
  auto d = Sha256::Hash(s);
  return std::string(reinterpret_cast<const char*>(d.data()), d.size());
}

}  // namespace

Result<AuditReport> Auditor::Audit(uint64_t epoch, bool write_snapshot,
                                   AuditCursor* cursor) {
  AuditReport report;
  Am().runs->Inc();
  auto t_total = std::chrono::steady_clock::now();
  auto problem = [&](const std::string& what) {
    report.problems.push_back(what);
  };

  // Worker threads for every phase: the cursor shards each window of L it
  // replays, the pool runs the final-state and index checks.
  // num_threads == 1 keeps every phase on the caller thread (the serial
  // reference path); either way the report comes out byte-identical.
  const uint32_t nthreads =
      options_.num_threads == 0
          ? static_cast<uint32_t>(ThreadPool::DefaultThreads())
          : options_.num_threads;
  report.threads_used = nthreads;
  std::unique_ptr<ThreadPool> pool;
  if (nthreads > 1) pool = std::make_unique<ThreadPool>(nthreads);

  // ---------------------------------------------------------------- 1.
  // Previous snapshot (signed by the last audit). Epoch 0 starts empty.
  auto t0 = std::chrono::steady_clock::now();
  Snapshot prev;
  bool have_prev = worm_->Exists(SnapshotFileName(epoch));
  if (have_prev) {
    auto r = Snapshot::ReadVerified(worm_, epoch, options_.auditor_key);
    if (!r.ok()) {
      problem("previous snapshot: " + r.status().ToString());
      return report;
    }
    prev = r.TakeValue();
  }
  report.timings.snapshot_seconds = SecondsSince(t0);
  RecordPhase(obs::AuditPhase::kSnapshot, Am().snapshot_us,
              report.timings.snapshot_seconds, epoch);

  // ---------------------------------------------------------------- 2.
  // The L pass runs on an AuditCursor (DESIGN.md, "Incremental
  // certification"): a live cursor from the facade has already certified
  // a prefix; anything else gets a fresh cursor at the snapshot baseline.
  // Step 1 certifies every sealed epoch past the cursor's head.
  t0 = std::chrono::steady_clock::now();
  AuditCursor own(AuditCursor::Options{options_.auditor_key,
                                       options_.verify_read_hashes},
                  worm_);
  if (cursor == nullptr || cursor->audit_epoch() != epoch ||
      cursor->options().verify_read_hashes != options_.verify_read_hashes) {
    cursor = &own;
    Status attach = cursor->AttachFresh(epoch);
    if (!attach.ok()) {
      problem("audit cursor: " + attach.ToString());
      return report;
    }
  }
  std::vector<std::string> l_problems = cursor->problems();
  uint64_t prefix_seq = cursor->certified_seq();
  std::vector<SealedEpoch> chain;
  // A chain that does not verify (or no longer covers the cursor's head)
  // is a finding; the pass then restarts from the snapshot and replays
  // all of L as the unverified tail.
  auto restart = [&](const Status& why) -> Status {
    if (!why.IsTampered() && !why.IsCorruption()) return why;
    CDB_RETURN_IF_ERROR(cursor->AttachFresh(epoch));
    l_problems = {"epoch chain: " + why.ToString()};
    prefix_seq = 0;
    chain.clear();
    return Status::OK();
  };
  auto chain_r = ReadEpochChain(worm_, epoch);
  if (!chain_r.ok()) {
    CDB_RETURN_IF_ERROR(restart(chain_r.status()));
  } else {
    chain = chain_r.TakeValue();
    auto cert = cursor->CertifyThrough(chain, nthreads);
    if (!cert.ok()) {
      CDB_RETURN_IF_ERROR(restart(cert.status()));
    } else {
      l_problems.insert(l_problems.end(), cert.value().problems.begin(),
                        cert.value().problems.end());
    }
  }
  double certify_seconds = SecondsSince(t0);

  // Steps 2 and 3: re-hash the windows certified before this audit
  // against their sealed Merkle roots (an edit to certified L is still
  // caught, without replaying it), then replay [certified offset, end of
  // L) — sealed epochs certification stopped at plus the unsealed tail —
  // with no Merkle check, and finalize. No record is applied twice.
  t0 = std::chrono::steady_clock::now();
  CDB_RETURN_IF_ERROR(cursor->RehashCertified(chain, prefix_seq, &l_problems));
  auto tail = cursor->ReplayTail(nthreads);
  if (!tail.ok()) {
    problem("compliance log: " + tail.status().ToString());
    return report;
  }
  l_problems.insert(l_problems.end(), tail.value().problems.begin(),
                    tail.value().problems.end());
  for (auto& p : l_problems) problem(p);
  const PageReplayer& replayer = cursor->state();
  const LogSummary& summary = cursor->summary();
  report.log_records = cursor->records_applied();
  report.read_hashes_checked = replayer.read_hashes_checked();
  report.timings.replay_seconds = SecondsSince(t0);

  // ---------------------------------------------------------------- 3.
  // What the cursor gathered from L answers the remaining log checks.
  // Commit times must be strictly increasing, and every commit time must
  // fall inside a *witnessed-alive* window. The evidence is WORM file
  // create times (witness files, log tails, the logs themselves): the
  // compliance clock stamps them and Mala cannot backdate a file creation,
  // so she cannot fabricate STAMP_TRANS records for transactions that
  // supposedly ran while the system was down (paper §IV-A/§IV-B —
  // witness files "stand as witness that the DBMS was alive").
  t0 = std::chrono::steady_clock::now();
  {
    std::vector<uint64_t> evidence;
    for (const auto& name : worm_->List()) {
      auto info = worm_->GetInfo(name);
      if (info.ok()) evidence.push_back(info.value().create_time_micros);
    }
    std::sort(evidence.begin(), evidence.end());
    uint64_t allow = options_.gap_slack * options_.regret_interval_micros;
    auto witnessed = [&](uint64_t t) {
      auto it = std::lower_bound(evidence.begin(), evidence.end(),
                                 t > allow ? t - allow : 0);
      return it != evidence.end() && *it <= t + allow;
    };
    uint64_t prev_commit = 0;
    for (const CommitStamp& c : summary.commits) {
      if (c.commit_time <= prev_commit) {
        problem("offset " + std::to_string(c.offset) +
                ": commit times not strictly increasing (txn " +
                std::to_string(c.txn_id) + " commit " +
                std::to_string(c.commit_time) + " after commit " +
                std::to_string(prev_commit) + ")");
      }
      prev_commit = std::max(prev_commit, c.commit_time);
      if (!witnessed(c.commit_time)) {
        problem("offset " + std::to_string(c.offset) +
                ": commit time lies in an unwitnessed interval (forged "
                "transaction during downtime?)");
      }
    }
  }

  // Cross-check the auxiliary stamp index against the STAMP_TRANS records.
  // Entries for records past the point where the L pass stopped have
  // nothing to be checked against; they are one finding, not one each.
  {
    ComplianceLog log(worm_, epoch);  // reads only the stamp index
    const std::optional<uint64_t> stop = cursor->stopped_at();
    uint64_t unchecked = 0;
    Status s = log.ScanStampIndex(
        [&](TxnId txn, uint64_t l_offset, uint64_t commit) -> Status {
          if (stop.has_value() && l_offset >= *stop) {
            ++unchecked;
            return Status::OK();
          }
          auto it = summary.stamps.find(txn);
          if (it == summary.stamps.end() || it->second != commit) {
            problem("stamp index entry for txn " + std::to_string(txn) +
                    " disagrees with L");
          }
          return Status::OK();
        });
    if (!s.ok()) problem("stamp index: " + s.ToString());
    if (unchecked > 0) {
      problem("stamp index: " + std::to_string(unchecked) +
              " entries past L offset " + std::to_string(*stop) +
              " unchecked (replay stopped there)");
    }
  }
  report.timings.summarize_seconds = certify_seconds + SecondsSince(t0);
  RecordPhase(obs::AuditPhase::kSummarize, Am().summarize_us,
              report.timings.summarize_seconds, epoch);
  RecordPhase(obs::AuditPhase::kReplay, Am().replay_us,
              report.timings.replay_seconds, epoch);

  // Tree catalog: snapshot trees plus trees created this epoch.
  std::map<uint32_t, Snapshot::TreeInfo> trees;
  for (const auto& t : prev.trees) trees[t.tree_id] = t;
  for (const auto& [tree_id, announced] : summary.new_trees) {
    trees[tree_id] = {tree_id, announced.root, announced.name};
  }

  // ---------------------------------------------------------------- 4.
  // Final database state: every replayed page must match the disk page
  // record-for-record, every on-disk leaf must be accounted for (spurious
  // unlogged tuples fail the audit), and every tuple must be stamped.
  t0 = std::chrono::steady_clock::now();
  BufferCache cache(disk_, 256);  // hook-free: the auditor's own cache
  AddHash disk_identity_hash;
  std::set<std::pair<uint32_t, PageId>> disk_leaves;
  std::set<std::pair<uint32_t, PageId>> disk_index_leaves;
  std::map<std::pair<uint32_t, PageId>, PageReplayer::PageState> disk_states;
  // Version timelines for keys named by SHREDDED records (to establish
  // when each shredded version's life ended).
  std::set<std::pair<uint32_t, std::string>> shred_keys;
  for (const auto& s : summary.shreds) shred_keys.insert({s.tree_id, s.key});
  std::map<std::pair<uint32_t, std::string>, std::vector<uint64_t>>
      shred_key_starts;

  // Everything one contiguous pgno range contributes. Workers fill their
  // own chunk; chunks are folded back together in pgno order, so the
  // merged problems, counters, and timelines equal the serial scan's.
  struct ScanChunk {
    std::vector<std::string> problems;
    uint64_t pages_checked = 0;
    uint64_t tuples_checked = 0;
    AddHash identity;
    std::vector<std::pair<uint32_t, PageId>> leaves;
    std::vector<std::pair<uint32_t, PageId>> index_leaves;
    std::map<std::pair<uint32_t, PageId>, PageReplayer::PageState> states;
    std::map<std::pair<uint32_t, std::string>, std::vector<uint64_t>>
        key_starts;
  };

  auto scan_pages = [&](PageId lo, PageId hi, BufferCache* c,
                        ScanChunk* out) {
    auto chunk_problem = [&](const std::string& what) {
      out->problems.push_back(what);
    };
    for (PageId pgno = lo; pgno < hi; ++pgno) {
      Page* page = nullptr;
      Status fetch = c->FetchPage(pgno, &page);
      if (!fetch.ok()) {
        chunk_problem("page " + std::to_string(pgno) + ": unreadable");
        continue;
      }
      Page copy = *page;
      c->Unpin(pgno, false);
      if (!copy.IsFormatted()) continue;
      if (copy.type() == PageType::kBtreeInternal) {
        // Index pages get the same replay comparison as data pages (§V).
        ++out->pages_checked;
        Status structure = copy.CheckStructure();
        if (!structure.ok()) {
          chunk_problem("index page " + std::to_string(pgno) + ": " +
                        structure.ToString());
          continue;
        }
        PageReplayer::IndexState disk_state;
        for (uint16_t i = 0; i < copy.slot_count(); ++i) {
          Slice rec = copy.RecordAt(i);
          auto key = PageReplayer::IndexEntrySortKey(rec);
          if (key.ok()) {
            disk_state[key.value()] = std::string(rec.data(), rec.size());
          }
        }
        out->index_leaves.emplace_back(copy.tree_id(), pgno);
        auto it = replayer.index_pages().find({copy.tree_id(), pgno});
        if (it == replayer.index_pages().end()) {
          chunk_problem("index page " + std::to_string(pgno) +
                        ": on-disk internal node not accounted for by "
                        "snapshot+L");
          continue;
        }
        if (it->second != disk_state) {
          chunk_problem("index page " + std::to_string(pgno) +
                        ": entries diverge from snapshot+L replay (index "
                        "tampering?)");
        }
        continue;
      }
      if (copy.type() != PageType::kBtreeLeaf) continue;

      ++out->pages_checked;
      uint32_t tree_id = copy.tree_id();
      out->leaves.emplace_back(tree_id, pgno);

      Status structure = copy.CheckStructure();
      if (!structure.ok()) {
        chunk_problem("page " + std::to_string(pgno) + ": " +
                      structure.ToString());
        continue;
      }

      PageReplayer::PageState disk_state;
      for (uint16_t i = 0; i < copy.slot_count(); ++i) {
        Slice rec = copy.RecordAt(i);
        TupleData t;
        if (!DecodeTuple(rec, &t).ok()) {
          chunk_problem("page " + std::to_string(pgno) + " slot " +
                        std::to_string(i) + ": undecodable tuple");
          continue;
        }
        ++out->tuples_checked;
        if (!t.stamped) {
          chunk_problem("page " + std::to_string(pgno) +
                        ": unstamped tuple at audit (lazy updates "
                        "incomplete)");
        }
        disk_state[t.order_no] = std::string(rec.data(), rec.size());
        if (options_.identity_hash_check) {
          auto id = TupleIdentity(tree_id, rec, summary.stamps);
          if (id.ok()) out->identity.Add(id.value());
        }
        auto sk = std::make_pair(tree_id, t.key);
        if (shred_keys.count(sk) > 0) out->key_starts[sk].push_back(t.start);
      }

      if (options_.sort_merge_check) {
        out->states[{tree_id, pgno}] = disk_state;
      }
      auto it = replayer.pages().find({tree_id, pgno});
      if (it == replayer.pages().end()) {
        chunk_problem("page " + std::to_string(pgno) +
                      ": on-disk leaf not accounted for by snapshot+L "
                      "(spurious tuples?)");
        continue;
      }
      if (it->second != disk_state) {
        // Forensics: name the differing tuples (capped) so the finding
        // points at *what* was altered, not just where.
        std::string detail;
        int shown = 0;
        auto describe = [&](const std::string& rec, const char* kind) {
          TupleData t;
          if (shown < 4 && DecodeTuple(rec, &t).ok()) {
            detail += std::string(detail.empty() ? "" : ", ") + kind +
                      " key '" + t.key + "' start " + std::to_string(t.start);
            ++shown;
          }
        };
        for (const auto& [order_no, rec] : it->second) {
          auto d = disk_state.find(order_no);
          if (d == disk_state.end()) {
            describe(rec, "missing");
          } else if (d->second != rec) {
            describe(d->second, "altered");
          }
        }
        for (const auto& [order_no, rec] : disk_state) {
          if (it->second.count(order_no) == 0) describe(rec, "foreign");
        }
        chunk_problem("page " + std::to_string(pgno) +
                      ": content diverges from snapshot+L replay (" +
                      (detail.empty() ? "structural difference" : detail) +
                      ")");
      }
    }
  };

  const PageId page_count = disk_->PageCount();
  std::vector<ScanChunk> scan_chunks;
  if (nthreads <= 1 || page_count <= 2) {
    scan_chunks.resize(1);
    scan_pages(1, page_count, &cache, &scan_chunks[0]);
  } else {
    // Chunk by pgno; each worker reads through its own small cache
    // (DiskManager uses pread, so concurrent page reads are safe).
    const size_t nchunks =
        std::min<size_t>(nthreads * 4, (page_count - 1 + 15) / 16);
    scan_chunks.resize(std::max<size_t>(nchunks, 1));
    const PageId span = page_count - 1;
    const PageId per =
        (span + static_cast<PageId>(scan_chunks.size()) - 1) /
        static_cast<PageId>(scan_chunks.size());
    pool->ParallelFor(0, scan_chunks.size(), [&](size_t ci) {
      PageId lo = 1 + static_cast<PageId>(ci) * per;
      PageId hi = std::min<PageId>(lo + per, page_count);
      if (lo >= hi) return;
      BufferCache local_cache(disk_, 64);
      scan_pages(lo, hi, &local_cache, &scan_chunks[ci]);
    });
  }
  for (auto& ch : scan_chunks) {
    for (auto& p : ch.problems) report.problems.push_back(std::move(p));
    report.pages_checked += ch.pages_checked;
    report.tuples_checked += ch.tuples_checked;
    disk_identity_hash.Merge(ch.identity);
    disk_leaves.insert(ch.leaves.begin(), ch.leaves.end());
    disk_index_leaves.insert(ch.index_leaves.begin(), ch.index_leaves.end());
    disk_states.merge(ch.states);
    for (auto& [sk, starts] : ch.key_starts) {
      auto& dst = shred_key_starts[sk];
      dst.insert(dst.end(), starts.begin(), starts.end());
    }
  }
  // Every replayed page must exist on disk.
  for (const auto& [key, state] : replayer.pages()) {
    if (disk_leaves.count(key) == 0) {
      problem("page " + std::to_string(key.second) + " of tree " +
              std::to_string(key.first) +
              " recorded in L but missing from the database");
    }
  }
  for (const auto& [key, state] : replayer.index_pages()) {
    if (state.empty()) continue;  // a leaf root that later grew
    if (disk_index_leaves.count(key) == 0) {
      problem("index page " + std::to_string(key.second) + " of tree " +
              std::to_string(key.first) +
              " recorded in L but missing from the database");
    }
  }
  report.timings.final_state_seconds = SecondsSince(t0);
  RecordPhase(obs::AuditPhase::kFinalState, Am().final_state_us,
              report.timings.final_state_seconds, epoch);

  // The on-disk catalog (meta page) is attacker-editable; it must agree
  // with the tree roots recorded on WORM (snapshots + NEW_TREE records),
  // or the engine would silently route queries into the wrong trees.
  {
    Page* meta = nullptr;
    Status fetch = cache.FetchPage(kMetaPage, &meta);
    if (fetch.ok()) {
      Page copy = *meta;
      cache.Unpin(kMetaPage, false);
      std::map<std::string, std::pair<uint32_t, PageId>> catalog;
      if (copy.type() == PageType::kMeta && copy.slot_count() > 0) {
        Slice rec = copy.RecordAt(0);
        Decoder dec(Slice(rec.data() + 2, rec.size() - 2));
        uint32_t count = 0;
        if (dec.GetFixed32(&count).ok()) {
          for (uint32_t i = 0; i < count; ++i) {
            std::string name;
            uint32_t tree_id = 0;
            uint32_t root = 0;
            if (!dec.GetLengthPrefixed(&name).ok() ||
                !dec.GetFixed32(&tree_id).ok() ||
                !dec.GetFixed32(&root).ok()) {
              problem("catalog: undecodable meta page");
              break;
            }
            catalog[name] = {tree_id, root};
          }
        }
      }
      for (const auto& [tree_id, info] : trees) {
        auto it = catalog.find(info.name);
        if (it == catalog.end()) {
          problem("catalog: tree '" + info.name +
                  "' recorded on WORM is missing from the meta page");
        } else if (it->second.first != tree_id ||
                   it->second.second != info.root) {
          problem("catalog: tree '" + info.name +
                  "' id/root diverge from the WORM record (query "
                  "misrouting?)");
        }
      }
      for (const auto& [name, ids] : catalog) {
        if (trees.count(ids.first) == 0) {
          problem("catalog: table '" + name +
                  "' exists on the meta page but was never announced on L");
        }
      }
    }
  }

  // ---------------------------------------------------------------- 5.
  // Index integrity (§IV-C, Fig. 2) per tree.
  t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::pair<uint32_t, Snapshot::TreeInfo>> tree_list(
        trees.begin(), trees.end());
    std::vector<std::vector<std::string>> tree_problems(tree_list.size());
    auto check_tree = [&](size_t i, BufferCache* c) {
      const auto& [tree_id, info] = tree_list[i];
      auto r = CheckTreeIntegrity(c, tree_id, info.root);
      if (!r.ok()) {
        tree_problems[i].push_back("tree " + std::to_string(tree_id) + ": " +
                                   r.status().ToString());
        return;
      }
      for (const auto& p : r.value().problems) {
        tree_problems[i].push_back("tree " + std::to_string(tree_id) + ": " +
                                   p);
      }
    };
    if (nthreads <= 1) {
      for (size_t i = 0; i < tree_list.size(); ++i) check_tree(i, &cache);
    } else {
      pool->ParallelFor(0, tree_list.size(), [&](size_t i) {
        BufferCache local_cache(disk_, 64);
        check_tree(i, &local_cache);
      });
    }
    // Emit in tree-id order regardless of completion order.
    for (auto& plist : tree_problems) {
      for (auto& p : plist) report.problems.push_back(std::move(p));
    }
  }
  report.timings.index_check_seconds = SecondsSince(t0);
  RecordPhase(obs::AuditPhase::kIndexCheck, Am().index_check_us,
              report.timings.index_check_seconds, epoch);

  // ---------------------------------------------------------------- 6.
  // The paper's incremental-hash completeness check (§IV-A):
  // ADD_HASH(Ds) folded with the log's net identity delta must equal
  // ADD_HASH(Df) computed from the database scan. Commutativity is what
  // lets both sides accumulate in whatever order a single pass visits
  // tuples.
  AddHash migrated_total = prev.migrated_hash;
  migrated_total.Merge(replayer.migrated_delta());
  if (options_.identity_hash_check) {
    ++report.identity_checks_run;
    AddHash expected = prev.identity_hash;
    expected.Merge(replayer.identity_delta());
    if (expected != disk_identity_hash) {
      problem(
          "tuple completeness violated: ADD_HASH(Ds u L) != ADD_HASH(Df)");
    }
  }

  // Sort-merge completeness variant (the paper's pre-ADD_HASH baseline,
  // §IV-A step (i)-(iii); kept for the audit-cost ablation): materialize
  // and sort both identity sets, then compare.
  if (options_.sort_merge_check) {
    std::vector<std::string> expected_ids;
    for (const auto& [key, state] : replayer.pages()) {
      for (const auto& [order_no, rec] : state) {
        auto id = TupleIdentity(key.first, rec, summary.stamps);
        if (id.ok()) expected_ids.push_back(id.value());
      }
    }
    std::vector<std::string> disk_ids;
    for (const auto& [key, state] : disk_states) {
      for (const auto& [order_no, rec] : state) {
        auto id = TupleIdentity(key.first, rec, summary.stamps);
        if (id.ok()) disk_ids.push_back(id.value());
      }
    }
    std::sort(expected_ids.begin(), expected_ids.end());
    std::sort(disk_ids.begin(), disk_ids.end());
    if (expected_ids != disk_ids) {
      problem("sort-merge completeness check failed");
    }
  }

  // ---------------------------------------------------------------- 7.
  // Shredding (§VIII): every SHREDDED tuple must be gone, must match its
  // recorded content hash, and must actually have expired under the
  // retention policy in force at shred time. Shreds of WORM-migrated
  // tuples name their historical page file; a file whose every tuple is
  // verified shredded becomes deletable (whole-file WORM deletion).
  std::map<std::string, std::vector<TupleData>> hist_cache;
  auto hist_tuples =
      [&](const std::string& name) -> const std::vector<TupleData>& {
    auto it = hist_cache.find(name);
    if (it == hist_cache.end()) {
      std::vector<TupleData> tuples;
      std::string blob;
      if (worm_->ReadAll(name, &blob).ok() && blob.size() == kPageSize) {
        Page page;
        std::memcpy(page.data(), blob.data(), kPageSize);
        if (page.IsFormatted() && page.CheckStructure().ok()) {
          for (uint16_t i = 0; i < page.slot_count(); ++i) {
            TupleData t;
            if (DecodeTuple(page.RecordAt(i), &t).ok()) {
              tuples.push_back(std::move(t));
            }
          }
        }
      }
      it = hist_cache.emplace(name, std::move(tuples)).first;
    }
    return it->second;
  };
  // Per historical file: how many of its tuples were shredded this epoch.
  std::map<std::string, std::set<std::pair<std::string, uint64_t>>>
      file_shreds;
  for (const auto& shred : summary.shreds) {
    ++report.shreds_verified;
    // (a) absent from the final state.
    bool still_present = false;
    for (const auto& [key, state] : replayer.pages()) {
      if (key.first != shred.tree_id) continue;
      for (const auto& [order_no, rec] : state) {
        TupleData t;
        if (DecodeTuple(rec, &t).ok() && t.key == shred.key &&
            t.start == shred.start) {
          still_present = true;
        }
      }
    }
    if (still_present) {
      problem("shredded tuple '" + shred.key +
              "' still present at audit (vacuum incomplete)");
    }
    // (b) content hash matches the version of record: the previous
    // snapshot for live tuples, the WORM historical page for migrated
    // ones (which also still exists — it is only deleted after this
    // audit verifies it).
    bool found_content = false;
    if (!shred.hist_name.empty()) {
      for (const auto& t : hist_tuples(shred.hist_name)) {
        if (t.key == shred.key && t.start == shred.start) {
          found_content = true;
          if (HashBytes(EncodeTuple(t)) != shred.content_hash) {
            problem("SHREDDED content hash mismatch for migrated '" +
                    shred.key + "'");
          }
          file_shreds[shred.hist_name].insert({shred.key, shred.start});
        }
      }
      if (!found_content) {
        problem("SHREDDED migrated tuple '" + shred.key +
                "' not found in its historical page " + shred.hist_name);
      }
    } else {
      for (const auto& page : prev.pages) {
        if (page.tree_id != shred.tree_id) continue;
        for (const auto& rec : page.records) {
          TupleData t;
          if (DecodeTuple(rec, &t).ok() && t.key == shred.key &&
              t.start == shred.start) {
            found_content = true;
            if (HashBytes(rec) != shred.content_hash) {
              problem("SHREDDED content hash mismatch for '" + shred.key +
                      "'");
            }
          }
        }
      }
      if (!found_content) {
        problem("SHREDDED tuple '" + shred.key +
                "' not found in the previous snapshot (tuples must survive "
                "at least one audit before shredding)");
      }
    }
    // (b2) no litigation hold covered the tuple at shred time (§IX).
    if (options_.hold_resolver != nullptr) {
      auto held =
          options_.hold_resolver(shred.tree_id, shred.key, shred.timestamp);
      if (held.ok() && held.value()) {
        problem("tuple '" + shred.key +
                "' was shredded while under a litigation hold");
      }
    }
    // (c) the version really had expired when it was shredded.
    if (options_.retention_resolver != nullptr) {
      uint64_t end_time = 0;
      bool have_end = false;
      std::vector<uint64_t> starts;
      auto it = shred_key_starts.find({shred.tree_id, shred.key});
      if (it != shred_key_starts.end()) starts = it->second;
      if (!shred.hist_name.empty()) {
        // The successor of a migrated version may itself live on WORM.
        for (const auto& name : worm_->ListPrefix("hist_")) {
          for (const auto& t : hist_tuples(name)) {
            if (t.key == shred.key) {
              starts.push_back(t.start);
              if (t.start == shred.start && t.eol) {
                end_time = t.start;
                have_end = true;
              }
            }
          }
        }
      }
      for (const auto& page : prev.pages) {
        if (page.tree_id != shred.tree_id) continue;
        for (const auto& rec : page.records) {
          TupleData t;
          if (DecodeTuple(rec, &t).ok() && t.key == shred.key) {
            starts.push_back(t.start);
            // An EOL marker's life ends at its own start.
            if (t.start == shred.start && t.eol) {
              end_time = t.start;
              have_end = true;
            }
          }
        }
      }
      if (!have_end) {
        uint64_t best = 0;
        for (uint64_t s : starts) {
          if (s > shred.start && (best == 0 || s < best)) best = s;
        }
        if (best != 0) {
          end_time = best;
          have_end = true;
        }
      }
      if (!have_end) {
        problem("shredded tuple '" + shred.key +
                "' was the current version (never superseded): illegal "
                "vacuum");
      } else {
        auto retention =
            options_.retention_resolver(shred.tree_id, shred.timestamp);
        if (!retention.ok()) {
          problem("no retention policy found for tree " +
                  std::to_string(shred.tree_id));
        } else if (end_time + retention.value() > shred.timestamp) {
          problem("tuple '" + shred.key +
                  "' shredded before its retention period expired");
        }
      }
    }
  }

  // Whole-file deletion (§VIII): a historical page file becomes
  // releasable once every one of its tuples has a verified SHREDDED
  // record this epoch.
  for (const auto& [file, shredded_set] : file_shreds) {
    const auto& tuples = hist_tuples(file);
    if (!tuples.empty() && shredded_set.size() == tuples.size()) {
      report.shredded_hist_files.push_back(file);
    }
  }

  // ---------------------------------------------------------------- 8.
  // Migration (§VI): each historical page must exist on WORM with exactly
  // the recorded content; verified once, then exempt from future audits.
  for (const auto& m : replayer.migrations()) {
    ++report.migrations_verified;
    std::string blob;
    Status s = worm_->ReadAll(m.hist_name, &blob);
    if (!s.ok() || blob.size() != kPageSize) {
      problem("historical page " + m.hist_name + " missing or malformed");
      continue;
    }
    Page hist;
    std::memcpy(hist.data(), blob.data(), kPageSize);
    if (!hist.IsFormatted() || !hist.CheckStructure().ok()) {
      problem("historical page " + m.hist_name + " fails integrity");
      continue;
    }
    std::vector<std::string> records = hist.AllRecords();
    if (records != m.entries) {
      problem("historical page " + m.hist_name +
              " content disagrees with MIGRATE record");
    }
  }

  // ---------------------------------------------------------------- 9.
  // WORM transaction-log tails must match the on-disk transaction log
  // (detects post-hoc WAL editing in the crash window).
  if (!options_.wal_path.empty()) {
    std::string wal_blob;
    {
      std::FILE* f = std::fopen(options_.wal_path.c_str(), "rb");
      if (f != nullptr) {
        std::fseek(f, 0, SEEK_END);
        long sz = std::ftell(f);
        std::fseek(f, 0, SEEK_SET);
        wal_blob.resize(static_cast<size_t>(sz));
        size_t n = std::fread(wal_blob.data(), 1, wal_blob.size(), f);
        wal_blob.resize(n);
        std::fclose(f);
      }
    }
    // The log file starts with its base LSN (checkpoint truncation keeps
    // LSNs logical); a tail covering LSN x maps to file offset
    // 8 + (x - base).
    uint64_t wal_base = wal_blob.size() >= 8 ? DecodeFixed64(wal_blob.data())
                                             : 0;
    for (const auto& name : worm_->ListPrefix("txtail_")) {
      std::string tail;
      if (!worm_->ReadAll(name, &tail).ok() || tail.size() < 8) continue;
      uint64_t start = DecodeFixed64(tail.data());
      Slice mirrored(tail.data() + 8, tail.size() - 8);
      if (start < wal_base) continue;  // covered by a previous audit
      uint64_t file_off = 8 + (start - wal_base);
      if (file_off + mirrored.size() > wal_blob.size() ||
          std::memcmp(wal_blob.data() + file_off, mirrored.data(),
                      mirrored.size()) != 0) {
        problem("transaction log disagrees with WORM tail " + name +
                " (log tampered or truncated)");
      }
    }
  }

  // ---------------------------------------------------------------- 10.
  // On success, sign and publish the next epoch's snapshot.
  if (write_snapshot && report.ok()) {
    Snapshot next;
    next.epoch = epoch + 1;
    // Carries forward across commit-free epochs: the audit boundary is
    // the newest commit the chain of snapshots has ever covered.
    next.audit_time = std::max(prev.audit_time, summary.last_commit_time);
    for (const auto& [tree_id, info] : trees) next.trees.push_back(info);
    for (const auto& [key, state] : replayer.pages()) {
      Snapshot::PageEntry entry;
      entry.tree_id = key.first;
      entry.pgno = key.second;
      for (const auto& [order_no, rec] : state) entry.records.push_back(rec);
      next.pages.push_back(std::move(entry));
    }
    for (const auto& [key, state] : replayer.index_pages()) {
      if (state.empty()) continue;
      Snapshot::PageEntry entry;
      entry.tree_id = key.first;
      entry.pgno = key.second;
      for (const auto& [sort_key, rec] : state) entry.records.push_back(rec);
      next.index_pages.push_back(std::move(entry));
    }
    next.identity_hash = disk_identity_hash;
    next.migrated_hash = migrated_total;
    Status s = next.WriteSigned(worm_, options_.auditor_key);
    if (!s.ok()) problem("writing snapshot: " + s.ToString());
  }

  report.timings.total_seconds = SecondsSince(t_total);
  RecordPhase(obs::AuditPhase::kTotal, Am().total_us,
              report.timings.total_seconds, epoch);
  Am().pages_checked->Inc(report.pages_checked);
  Am().tuples_checked->Inc(report.tuples_checked);
  Am().problems->Inc(report.problems.size());
  return report;
}

int AuditExitCodeForStatus(const Status& s) {
  if (s.ok()) return kAuditExitCompliant;
  if (s.IsTampered() || s.IsCorruption()) return kAuditExitTampered;
  if (s.IsBusy()) return kAuditExitBusy;
  return kAuditExitIoError;
}

Status Auditor::ReleaseOldFiles(uint64_t epoch) {
  std::vector<std::string> victims;
  victims.push_back(SnapshotFileName(epoch));
  victims.push_back(LogFileName(epoch));
  victims.push_back(StampIndexFileName(epoch));
  // The incremental-audit chain and certification markers cover exactly
  // this L; they roll with the epoch.
  victims.push_back(ChainFileName(epoch));
  victims.push_back(CertFileName(epoch));
  for (const auto& name : worm_->ListPrefix("witness_")) {
    victims.push_back(name);
  }
  for (const auto& name : worm_->ListPrefix("txtail_")) {
    victims.push_back(name);
  }
  for (const auto& name : victims) {
    if (!worm_->Exists(name)) continue;
    CDB_RETURN_IF_ERROR(worm_->ReleaseRetention(name));
    CDB_RETURN_IF_ERROR(worm_->Delete(name));
  }
  return Status::OK();
}

}  // namespace complydb

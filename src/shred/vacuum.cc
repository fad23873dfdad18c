#include "shred/vacuum.h"

#include <vector>

#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace complydb {

namespace {

struct Victim {
  std::string key;
  uint64_t start = 0;
  PageId pgno = kInvalidPage;
  std::string record_bytes;
};

struct ShredMetrics {
  obs::Counter* runs;
  obs::Counter* tuples_shredded;
  obs::Counter* held;
  ShredMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    runs = reg.GetCounter("shred.vacuum_runs");
    tuples_shredded = reg.GetCounter("shred.tuples_shredded");
    held = reg.GetCounter("shred.held_tuples");
  }
};
ShredMetrics& Sm() {
  static ShredMetrics m;
  return m;
}

void RecordVacuum(const VacuumReport& report, obs::ScopedSpan* span) {
  Sm().tuples_shredded->Inc(report.shredded);
  Sm().held->Inc(report.held);
  span->set_arg(report.shredded);
}

}  // namespace

Result<VacuumReport> Vacuumer::Run(Btree* tree, uint64_t last_audit_time) {
  VacuumReport report;
  Sm().runs->Inc();
  obs::ScopedSpan span(obs::SpanKind::kVacuumShred, tree->tree_id());
  uint64_t now = now_fn_();

  auto retention = expiry_->Current(tree->tree_id());
  if (!retention.ok()) return retention.status();
  uint64_t keep = retention.value();

  // Pass 1: find expired versions. Versions of a key are adjacent in scan
  // order, so "superseded" falls out of pairwise comparison.
  std::vector<Victim> victims;
  struct Prev {
    bool valid = false;
    TupleData tuple;
    PageId pgno = kInvalidPage;
  } prev;

  auto consider_superseded = [&](const Prev& old, const TupleData& successor) {
    if (!old.valid || !old.tuple.stamped || !successor.stamped) return;
    uint64_t end_time = successor.start;
    if (end_time > last_audit_time) return;  // not yet through an audit
    if (end_time + keep > now) return;       // still under retention
    Victim v;
    v.key = old.tuple.key;
    v.start = old.tuple.start;
    v.pgno = old.pgno;
    v.record_bytes = EncodeTuple(old.tuple);
    victims.push_back(std::move(v));
  };
  auto consider_eol_marker = [&](const Prev& old) {
    // A trailing EOL marker expires relative to its own time.
    if (!old.valid || !old.tuple.eol || !old.tuple.stamped) return;
    uint64_t end_time = old.tuple.start;
    if (end_time > last_audit_time) return;
    if (end_time + keep > now) return;
    Victim v;
    v.key = old.tuple.key;
    v.start = old.tuple.start;
    v.pgno = old.pgno;
    v.record_bytes = EncodeTuple(old.tuple);
    victims.push_back(std::move(v));
  };

  CDB_RETURN_IF_ERROR(
      tree->ScanAll([&](PageId pgno, const TupleData& t) -> Status {
        if (prev.valid && prev.tuple.key == t.key) {
          consider_superseded(prev, t);
        } else if (prev.valid) {
          consider_eol_marker(prev);
        }
        prev.valid = true;
        prev.tuple = t;
        prev.pgno = pgno;
        return Status::OK();
      }));
  if (prev.valid) consider_eol_marker(prev);
  report.candidates = victims.size();

  // Pass 2: announce on WORM, then erase. The SHREDDED record must be
  // durable before the tuple disappears (§VIII).
  TxnWalContext sys;
  sys.txn_id = 0;
  sys.log = wal_;
  for (const auto& v : victims) {
    // Litigation holds (§IX): subpoenaed tuples must not be shredded,
    // expired or not.
    if (holds_ != nullptr) {
      auto held = holds_->IsHeldNow(tree->tree_id(), v.key);
      if (!held.ok()) return held.status();
      if (held.value()) {
        ++report.held;
        continue;
      }
    }
    Sha256Digest digest = Sha256::Hash(v.record_bytes);
    if (logger_ != nullptr) {
      CDB_RETURN_IF_ERROR(logger_->OnShredIntent(
          tree->tree_id(), v.key, v.start, v.pgno,
          Slice(reinterpret_cast<const char*>(digest.data()), digest.size()),
          now));
    }
    CDB_RETURN_IF_ERROR(
        tree->RemoveVersion(&sys, v.key, v.start, /*as_clr=*/false, 0));
    ++report.shredded;
  }
  if (wal_ != nullptr) CDB_RETURN_IF_ERROR(wal_->FlushAll());
  RecordVacuum(report, &span);
  return report;
}

Result<VacuumReport> Vacuumer::RunHistorical(Btree* tree,
                                             HistoricalStore* hist,
                                             uint64_t last_audit_time) {
  VacuumReport report;
  obs::ScopedSpan span(obs::SpanKind::kVacuumShred, tree->tree_id());
  uint64_t now = now_fn_();
  auto retention = expiry_->Current(tree->tree_id());
  if (!retention.ok()) return retention.status();
  uint64_t keep = retention.value();

  for (const auto& file : hist->FilesFor(tree->tree_id())) {
    std::vector<TupleData> tuples = hist->FileTuples(file);
    if (tuples.empty()) continue;
    bool all_expired = true;
    for (const auto& t : tuples) {
      ++report.candidates;
      // End of life: the successor version's start, found in the full
      // merged history (live tree + historical index).
      uint64_t end_time = t.eol ? t.start : 0;
      if (end_time == 0) {
        for (const auto& v : hist->GetVersions(tree->tree_id(), t.key)) {
          if (v.start > t.start && (end_time == 0 || v.start < end_time)) {
            end_time = v.start;
          }
        }
        std::vector<TupleData> live;
        CDB_RETURN_IF_ERROR(tree->GetVersions(t.key, &live));
        for (const auto& v : live) {
          if (v.start > t.start && (end_time == 0 || v.start < end_time)) {
            end_time = v.start;
          }
        }
      }
      if (end_time == 0 || end_time > last_audit_time ||
          end_time + keep > now) {
        all_expired = false;
        break;
      }
      if (holds_ != nullptr) {
        auto held = holds_->IsHeldNow(tree->tree_id(), t.key);
        if (!held.ok()) return held.status();
        if (held.value()) {
          ++report.held;
          all_expired = false;
          break;
        }
      }
    }
    if (!all_expired) continue;

    for (const auto& t : tuples) {
      std::string record = EncodeTuple(t);
      Sha256Digest digest = Sha256::Hash(record);
      if (logger_ != nullptr) {
        CDB_RETURN_IF_ERROR(logger_->OnShredIntent(
            tree->tree_id(), t.key, t.start, kInvalidPage,
            Slice(reinterpret_cast<const char*>(digest.data()),
                  digest.size()),
            now, file));
      }
      ++report.shredded;
    }
    CDB_RETURN_IF_ERROR(hist->DropFile(file));
  }
  RecordVacuum(report, &span);
  return report;
}

Result<VacuumReport> Vacuumer::Recheck(
    ComplianceLog* log, const std::map<uint32_t, Btree*>& trees) {
  VacuumReport report;
  if (log == nullptr) return report;
  TxnWalContext sys;
  sys.txn_id = 0;
  sys.log = wal_;
  CDB_RETURN_IF_ERROR(log->Scan([&](const CRecord& rec, uint64_t) -> Status {
    if (rec.type != CRecordType::kShredded) return Status::OK();
    auto it = trees.find(rec.tree_id);
    if (it == trees.end()) return Status::OK();
    Status s = it->second->RemoveVersion(&sys, rec.key, rec.start,
                                         /*as_clr=*/false, 0);
    if (s.ok()) {
      ++report.requeued;
    } else if (!s.IsNotFound()) {
      return s;
    }
    return Status::OK();
  }));
  if (wal_ != nullptr && report.requeued > 0) {
    CDB_RETURN_IF_ERROR(wal_->FlushAll());
  }
  return report;
}

}  // namespace complydb

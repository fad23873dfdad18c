#include "db/snapshot_reader.h"

#include <algorithm>

#include "db/compliant_db.h"
#include "obs/metrics.h"

namespace complydb {

namespace {
struct SnapMetrics {
  obs::Counter* begins;
  obs::Counter* reads;
  obs::Gauge* open_snapshots;
  obs::Histogram* get_us;
  obs::Histogram* scan_us;
  SnapMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    begins = reg.GetCounter("db.snapshot.begins");
    reads = reg.GetCounter("db.snapshot.reads");
    open_snapshots = reg.GetGauge("db.open_snapshots");
    get_us = reg.GetHistogram("db.snapshot.get_us");
    scan_us = reg.GetHistogram("db.snapshot.scan_us");
  }
};
SnapMetrics& Sm() {
  static SnapMetrics m;
  return m;
}
}  // namespace

SnapshotReader::SnapshotReader(CompliantDB* db, TransactionManager* txns,
                               HistoricalStore* hist, uint64_t snap,
                               std::atomic<int>* open_count)
    : db_(db), txns_(txns), hist_(hist), snap_(snap),
      open_count_(open_count) {
  open_count_->fetch_add(1, std::memory_order_acq_rel);
  Sm().begins->Inc();
  Sm().open_snapshots->Add(1);
}

SnapshotReader::~SnapshotReader() {
  open_count_->fetch_sub(1, std::memory_order_acq_rel);
  Sm().open_snapshots->Add(-1);
}

Status GatherVersions(const TransactionManager& txns,
                      const HistoricalStore& hist, uint32_t table, Slice key,
                      std::vector<TupleData>* out) {
  Btree* tree = txns.GetTree(table);
  if (tree == nullptr) return Status::InvalidArgument("unknown table");
  CDB_RETURN_IF_ERROR(tree->GetVersions(key, out));
  for (auto& h : hist.GetVersions(table, key)) out->push_back(std::move(h));
  return Status::OK();
}

const TupleData* VisibleAsOf(const std::vector<TupleData>& versions,
                             uint64_t limit, const TransactionManager& txns,
                             uint64_t* commit_time) {
  const TupleData* best = nullptr;
  uint64_t best_time = 0;
  for (const auto& v : versions) {
    uint64_t commit = v.start;
    if (!v.stamped) {
      // Committed ids resolve to a commit time (the entry is published
      // before last_commit_time advances); the writer's in-flight txn
      // resolves to nothing.
      auto r = txns.ResolveCommitTime(v.start);
      if (!r.ok()) continue;
      commit = r.value();
    }
    if (commit <= limit && (best == nullptr || commit > best_time)) {
      best = &v;
      best_time = commit;
    }
  }
  if (best == nullptr || best->eol) return nullptr;
  *commit_time = best_time;
  return best;
}

Status SnapshotReader::Get(uint32_t table, Slice key,
                           std::string* value) const {
  return GetAsOf(table, key, snap_, value);
}

Status SnapshotReader::GetAsOf(uint32_t table, Slice key, uint64_t time,
                               std::string* value) const {
  obs::ScopedLatencyTimer timer(Sm().get_us);
  Sm().reads->Inc();
  std::vector<TupleData> versions;
  CDB_RETURN_IF_ERROR(GatherVersions(*txns_, *hist_, table, key, &versions));
  uint64_t commit;
  const TupleData* v =
      VisibleAsOf(versions, std::min(time, snap_), *txns_, &commit);
  if (v == nullptr) return Status::NotFound("no version as of time");
  *value = v->value;
  return Status::OK();
}

Status SnapshotReader::GetWithProof(uint32_t table, Slice key,
                                    std::string* value, uint64_t* commit_time,
                                    InclusionProof* proof) const {
  obs::ScopedLatencyTimer timer(Sm().get_us);
  Sm().reads->Inc();
  std::vector<TupleData> versions;
  CDB_RETURN_IF_ERROR(GatherVersions(*txns_, *hist_, table, key, &versions));
  // The version Get returns; the proof binds (key, value, commit time) as
  // one unit.
  uint64_t commit;
  const TupleData* v = VisibleAsOf(versions, snap_, *txns_, &commit);
  if (v == nullptr) return Status::NotFound("no version as of time");
  auto proven = db_->ProveInclusion(table, v->key, v->value, commit);
  if (!proven.ok()) return proven.status();
  *value = v->value;
  *commit_time = commit;
  *proof = proven.TakeValue();
  return Status::OK();
}

Status SnapshotReader::ScanCurrent(
    uint32_t table, Slice begin, Slice end,
    const std::function<Status(const TupleData&)>& fn) const {
  obs::ScopedLatencyTimer timer(Sm().scan_us);
  Btree* tree = txns_->GetTree(table);
  if (tree == nullptr) return Status::InvalidArgument("unknown table");
  Sm().reads->Inc();

  // The live-tree scan drives key discovery (a time split always leaves
  // each key's newest version live, so no key vanishes entirely); per key
  // the historical store is merged in before picking the visible version.
  std::string cur_key;
  bool has_key = false;
  bool stop = false;
  std::vector<TupleData> group;

  auto flush = [&]() -> Status {
    if (!has_key) return Status::OK();
    has_key = false;
    for (auto& h : hist_->GetVersions(table, cur_key)) {
      group.push_back(std::move(h));
    }
    uint64_t commit;
    const TupleData* visible = VisibleAsOf(group, snap_, *txns_, &commit);
    Status s = Status::OK();
    if (visible != nullptr) {
      s = fn(*visible);
      if (s.IsBusy()) {  // early-stop sentinel, as in ScanRangeCurrent
        stop = true;
        s = Status::OK();
      }
    }
    group.clear();
    return s;
  };

  CDB_RETURN_IF_ERROR(
      tree->ScanVersionsInRange(begin, end, [&](const TupleData& t) -> Status {
        if (has_key && t.key != cur_key) {
          CDB_RETURN_IF_ERROR(flush());
          if (stop) return Status::Busy("stop");
        }
        cur_key = t.key;
        has_key = true;
        group.push_back(t);
        return Status::OK();
      }));
  if (stop) return Status::OK();
  return flush();
}

}  // namespace complydb

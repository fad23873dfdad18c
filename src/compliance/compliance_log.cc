#include "compliance/compliance_log.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/coding.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace complydb {

namespace {
std::string PadNum(uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08" PRIu64, n);
  return buf;
}

void PutStampIndexEntry(std::string* dst, TxnId txn_id, uint64_t offset,
                        uint64_t commit_time) {
  PutFixed64(dst, txn_id);
  PutFixed64(dst, offset);
  PutFixed64(dst, commit_time);
}

struct TailMetrics {
  obs::Gauge* queue_depth;
  obs::Counter* flushes;
  obs::Counter* shipped_bytes;
  obs::Histogram* records_per_flush;
  TailMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    queue_depth = reg.GetGauge("compliance.shipper.queue_depth");
    flushes = reg.GetCounter("compliance.shipper.flushes");
    shipped_bytes = reg.GetCounter("compliance.shipper.shipped_bytes");
    records_per_flush = reg.GetHistogram("compliance.shipper.records_per_flush");
  }
};
TailMetrics& Tm() {
  static TailMetrics m;
  return m;
}
}  // namespace

std::string LogFileName(uint64_t epoch) { return "L_" + PadNum(epoch); }
std::string StampIndexFileName(uint64_t epoch) {
  return "Lidx_" + PadNum(epoch);
}
std::string SnapshotFileName(uint64_t epoch) {
  return "snapshot_" + PadNum(epoch);
}
std::string WitnessFileName(uint64_t epoch, uint64_t seq) {
  return "witness_" + PadNum(epoch) + "_" + PadNum(seq);
}
std::string TxTailFileName(uint64_t epoch, uint64_t seq) {
  return "txtail_" + PadNum(epoch) + "_" + PadNum(seq);
}
std::string HistPageFileName(uint32_t tree_id, uint64_t seq) {
  return "hist_" + PadNum(tree_id) + "_" + PadNum(seq);
}

Status ComplianceLog::Create() {
  CDB_RETURN_IF_ERROR(worm_->Create(LogFileName(epoch_), 0));
  return worm_->Create(StampIndexFileName(epoch_), 0);
}

// The stamp index is a derived structure: every entry is computable from
// L alone. Its bytes ride the log's drain unflushed (lazy durability), so
// a crash can leave it short of L. Repair reappends the missing suffix,
// reconstructed byte for byte, so a later audit sees the same index a
// crash-free run would have produced.
Status ComplianceLog::OpenExisting(const RecordFn& fn) {
  std::string blob;
  CDB_RETURN_IF_ERROR(worm_->ReadAll(LogFileName(epoch_), &blob));
  const std::string idx_name = StampIndexFileName(epoch_);
  bool repair = repair_stamp_index_;
  uint64_t have = 0;  // index entries already on WORM
  if (repair) {
    if (!worm_->Exists(idx_name)) {
      // Lost in the Create window (L created, index not yet); recreate.
      CDB_RETURN_IF_ERROR(worm_->Create(idx_name, 0));
    }
    auto info = worm_->GetInfo(idx_name);
    if (!info.ok()) return info.status();
    // A torn trailing entry would need truncation, which WORM forbids;
    // the auditor reports it. Do not mask it by appending after garbage.
    repair = info.value().size % 24 == 0;
    have = info.value().size / 24;
  }
  uint64_t records = 0;
  uint64_t stamps = 0;
  std::string missing;
  CDB_RETURN_IF_ERROR(
      ScanCRecords(blob, [&](const CRecord& rec, uint64_t offset) {
        ++records;
        if (repair && rec.type == CRecordType::kStampTrans &&
            ++stamps > have) {
          PutStampIndexEntry(&missing, rec.txn_id, offset, rec.commit_time);
        }
        return fn ? fn(rec, offset) : Status::OK();
      }));
  if (!missing.empty()) CDB_RETURN_IF_ERROR(worm_->Append(idx_name, missing));
  std::lock_guard<std::mutex> lock(mu_);
  size_ = blob.size();
  durable_offset_ = size_;
  record_count_ = records;
  return Status::OK();
}

Status ComplianceLog::AppendUnflushed(const CRecord& rec) {
  // Encode (and checksum) outside mu_, so a drainer waiting for the lock
  // never waits on the CRC; the buffer keeps its capacity across calls.
  thread_local std::string framed;
  framed.clear();
  rec.EncodeTo(&framed);
  std::lock_guard<std::mutex> lock(mu_);
  CDB_RETURN_IF_ERROR(error_);
  if (rec.type == CRecordType::kStampTrans) {
    PutStampIndexEntry(&pending_index_, rec.txn_id, size_, rec.commit_time);
  }
  pending_log_ += framed;
  size_ += framed.size();
  ++record_count_;
  ++pending_records_;
  Tm().queue_depth->Set(static_cast<int64_t>(pending_records_));
  return Status::OK();
}

Status ComplianceLog::Append(const CRecord& rec) {
  CDB_RETURN_IF_ERROR(AppendUnflushed(rec));
  return Flush();
}

Status ComplianceLog::Flush() { return FlushThrough(UINT64_MAX); }

Status ComplianceLog::FlushThrough(uint64_t offset) {
  std::unique_lock<std::mutex> lock(mu_);
  offset = std::min(offset, size_);
  while (durable_offset_ < offset && error_.ok()) {
    if (draining_) {
      // Another thread is shipping; wait for it to land, then re-check —
      // it may not have covered our offset. For a committing thread this
      // wait is the "queued" segment of its critical path.
      const bool spans = obs::SpansEnabled();
      const uint64_t wait_start = spans ? obs::MonotonicMicros() : 0;
      durable_cv_.wait(lock, [&] {
        return !draining_ || durable_offset_ >= offset || !error_.ok();
      });
      if (spans) {
        obs::RecordQueuedInterval(wait_start, obs::MonotonicMicros());
      }
      continue;
    }
    DrainLocked(lock);
  }
  return error_;
}

void ComplianceLog::DrainLocked(std::unique_lock<std::mutex>& lock) {
  draining_ = true;
  std::string log_bytes;
  std::string index_bytes;
  log_bytes.swap(pending_log_);
  index_bytes.swap(pending_index_);
  const uint64_t end = size_;
  const uint64_t records = pending_records_;
  const uint64_t batch = ++batch_seq_;
  pending_records_ = 0;
  Tm().queue_depth->Set(0);
  lock.unlock();

  // Span attribution: a drain on a committing thread lands in its
  // commit.drain / commit.worm_flush segments; any other drain (a pwrite
  // barrier during eviction, a regret tick) is emitted as shipper.* spans
  // keyed by the batch id.
  const bool spans = obs::SpansEnabled();
  const uint64_t t_drain = spans ? obs::MonotonicMicros() : 0;
  Status s = worm_->AppendUnflushed(LogFileName(epoch_), log_bytes);
  if (s.ok() && !index_bytes.empty()) {
    // The index rides the same drain unflushed; its durability is lazy
    // (repaired from L on reopen), so a drain pays exactly one fflush.
    s = worm_->AppendUnflushed(StampIndexFileName(epoch_), index_bytes);
  }
  const uint64_t t_flush = spans ? obs::MonotonicMicros() : 0;
  if (s.ok()) s = worm_->FlushAppends(LogFileName(epoch_));
  if (spans) {
    obs::RecordDrainInterval(t_drain, t_flush,
                             log_bytes.size() + index_bytes.size(), batch);
    obs::RecordWormFlushInterval(t_flush, obs::MonotonicMicros(), batch);
  }
  if (s.ok()) {
    Tm().flushes->Inc();
    Tm().shipped_bytes->Inc(log_bytes.size() + index_bytes.size());
    Tm().records_per_flush->Record(records);
  }

  lock.lock();
  draining_ = false;
  if (!s.ok()) {
    error_ = s;
  } else {
    durable_offset_ = end;
  }
  durable_cv_.notify_all();
}

uint64_t ComplianceLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

uint64_t ComplianceLog::durable_offset() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_offset_;
}

uint64_t ComplianceLog::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return record_count_;
}

Status ComplianceLog::Scan(const RecordFn& fn) {
  CDB_RETURN_IF_ERROR(Flush());
  std::string blob;
  CDB_RETURN_IF_ERROR(worm_->ReadAll(LogFileName(epoch_), &blob));
  return ScanCRecords(blob, fn);
}

Status ComplianceLog::ScanStampIndex(
    const std::function<Status(TxnId, uint64_t, uint64_t)>& fn) {
  CDB_RETURN_IF_ERROR(Flush());
  std::string blob;
  CDB_RETURN_IF_ERROR(worm_->ReadAll(StampIndexFileName(epoch_), &blob));
  if (blob.size() % 24 != 0) {
    return Status::Corruption("stamp index size not a multiple of 24");
  }
  for (size_t off = 0; off < blob.size(); off += 24) {
    TxnId txn = DecodeFixed64(blob.data() + off);
    uint64_t l_off = DecodeFixed64(blob.data() + off + 8);
    uint64_t commit = DecodeFixed64(blob.data() + off + 16);
    CDB_RETURN_IF_ERROR(fn(txn, l_off, commit));
  }
  return Status::OK();
}

}  // namespace complydb

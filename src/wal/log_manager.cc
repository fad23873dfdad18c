#include "wal/log_manager.h"

#include <cerrno>
#include <cstring>
#include <fstream>

#include "common/coding.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace complydb {

namespace {
struct WalMetrics {
  obs::Counter* appends;
  obs::Counter* flushes;
  obs::Counter* flush_bytes;
  obs::Histogram* fsync_us;
  WalMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    appends = reg.GetCounter("wal.appends");
    flushes = reg.GetCounter("wal.fsyncs");
    flush_bytes = reg.GetCounter("wal.flush_bytes");
    fsync_us = reg.GetHistogram("wal.fsync_us");
  }
};
WalMetrics& Wm() {
  static WalMetrics m;
  return m;
}
}  // namespace

Result<LogManager*> LogManager::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) f = std::fopen(path.c_str(), "w+b");
  if (f == nullptr) {
    return Status::IOError("wal open " + path + ": " + std::strerror(errno));
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::IOError("wal seek " + path);
  }
  long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return Status::IOError("wal tell " + path);
  }
  Lsn base = 0;
  if (size == 0) {
    // Fresh log: write the base-LSN header.
    char header[kHeaderSize];
    EncodeFixed64(header, 0);
    if (std::fwrite(header, 1, kHeaderSize, f) != kHeaderSize ||
        std::fflush(f) != 0) {
      std::fclose(f);
      return Status::IOError("wal header write " + path);
    }
    size = kHeaderSize;
  } else if (static_cast<size_t>(size) >= kHeaderSize) {
    char header[kHeaderSize];
    std::fseek(f, 0, SEEK_SET);
    if (std::fread(header, 1, kHeaderSize, f) != kHeaderSize) {
      std::fclose(f);
      return Status::IOError("wal header read " + path);
    }
    base = DecodeFixed64(header);
  } else {
    std::fclose(f);
    return Status::Corruption("wal shorter than its header: " + path);
  }
  Lsn end = base + (static_cast<Lsn>(size) - kHeaderSize);
  return new LogManager(path, f, base, end);
}

LogManager::~LogManager() {
  if (file_ != nullptr) std::fclose(file_);
}

Lsn LogManager::Append(WalRecord* rec) {
  std::lock_guard<std::mutex> lock(mu_);
  rec->lsn = durable_end_ + pending_.size();
  rec->EncodeTo(&pending_);
  Wm().appends->Inc();
  return rec->lsn;
}

Status LogManager::FlushTo(Lsn target) {
  std::lock_guard<std::mutex> lock(mu_);
  if (target < durable_end_) return Status::OK();
  return FlushAllLocked();
}

Status LogManager::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushAllLocked();
}

Status LogManager::FlushAllLocked() {
  if (pending_.empty()) return Status::OK();
  WalMetrics& wm = Wm();
  obs::ScopedLatencyTimer timer(wm.fsync_us);
  // Keyed by the committing transaction when one is on this thread (the
  // group-commit flush point); recovery/checkpoint flushes carry 0.
  obs::ScopedSpan span(obs::SpanKind::kWalFsync,
                       obs::ActiveCommitSegments()->active
                           ? obs::ActiveCommitSegments()->txn_id
                           : 0);
  if (std::fseek(file_, 0, SEEK_END) != 0) return Status::IOError("wal seek");
  size_t n = std::fwrite(pending_.data(), 1, pending_.size(), file_);
  if (n != pending_.size()) return Status::IOError("wal short write");
  if (std::fflush(file_) != 0) return Status::IOError("wal flush");
  if (tail_worm_ != nullptr && !tail_name_.empty()) {
    // Deferred mode buffers the mirror bytes; the epoch barrier pays the
    // WORM round trip once per epoch instead of once per commit.
    if (tail_defer_) {
      CDB_RETURN_IF_ERROR(tail_worm_->AppendUnflushed(tail_name_, pending_));
    } else {
      CDB_RETURN_IF_ERROR(tail_worm_->Append(tail_name_, pending_));
    }
  }
  wm.flushes->Inc();
  wm.flush_bytes->Inc(pending_.size());
  durable_end_ += pending_.size();
  span.set_arg(durable_end_);
  pending_.clear();
  return Status::OK();
}

Status LogManager::FlushTailMirror() {
  WormStore* worm = nullptr;
  std::string name;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!tail_defer_ || tail_worm_ == nullptr || tail_name_.empty()) {
      return Status::OK();
    }
    worm = tail_worm_;
    name = tail_name_;
  }
  // Outside mu_: the WORM flush latency must overlap with the next slot's
  // WAL flush, not serialize with it. StartTail only reconfigures the
  // tail on a quiescent database (audit/init), so the copied handle
  // cannot go stale mid-flush.
  return worm->FlushAppends(name);
}

Status LogManager::Scan(
    const std::function<Status(const WalRecord&)>& fn) const {
  // Snapshot the durable extent; the scan itself reads the file through
  // its own stream, so a concurrent flush appending past the snapshot is
  // simply not visited.
  Lsn base, durable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    base = base_lsn_;
    durable = durable_end_;
  }
  std::ifstream in(path_, std::ios::binary);
  if (!in.is_open()) return Status::IOError("wal scan open " + path_);
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (blob.size() < kHeaderSize) return Status::OK();
  // Only durable bytes are authoritative.
  size_t durable_bytes = kHeaderSize + (durable - base);
  if (blob.size() > durable_bytes) blob.resize(durable_bytes);
  size_t off = kHeaderSize;
  while (off < blob.size()) {
    // A torn final record (not enough bytes for its frame) ends the scan.
    if (blob.size() - off < 8) break;
    uint32_t len = DecodeFixed32(blob.data() + off);
    if (blob.size() - off < 8 + static_cast<size_t>(len)) break;
    WalRecord rec;
    size_t consumed = 0;
    Status s = WalRecord::Decode(Slice(blob.data() + off, blob.size() - off),
                                 &rec, &consumed);
    if (!s.ok()) return s;  // mid-log corruption: surface it
    rec.lsn = base + (off - kHeaderSize);
    CDB_RETURN_IF_ERROR(fn(rec));
    off += consumed;
  }
  return Status::OK();
}

Status LogManager::Truncate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!pending_.empty()) {
    return Status::Busy("wal truncate with unflushed records");
  }
  std::fclose(file_);
  std::FILE* f = std::fopen(path_.c_str(), "w+b");
  if (f == nullptr) return Status::IOError("wal truncate reopen " + path_);
  base_lsn_ = durable_end_;
  char header[kHeaderSize];
  EncodeFixed64(header, base_lsn_);
  if (std::fwrite(header, 1, kHeaderSize, f) != kHeaderSize ||
      std::fflush(f) != 0) {
    std::fclose(f);
    file_ = nullptr;
    return Status::IOError("wal truncate header " + path_);
  }
  file_ = f;
  return Status::OK();
}

Status LogManager::StartTail(WormStore* worm, const std::string& name,
                             uint64_t retention_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  CDB_RETURN_IF_ERROR(FlushAllLocked());
  if (name.empty()) {
    tail_worm_ = nullptr;
    tail_name_.clear();
    return Status::OK();
  }
  std::string header;
  PutFixed64(&header, durable_end_);
  CDB_RETURN_IF_ERROR(worm->CreateWithContent(name, retention_micros, header));
  tail_worm_ = worm;
  tail_name_ = name;
  return Status::OK();
}

}  // namespace complydb

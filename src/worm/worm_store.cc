#include "worm/worm_store.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/coding.h"
#include "obs/metrics.h"

namespace fs = std::filesystem;

namespace complydb {

namespace {
constexpr char kMetaFileName[] = "_worm_meta";
// File names are stored length-prefixed in the meta file; keep them sane.
constexpr size_t kMaxName = 4096;

struct WormMetrics {
  obs::Counter* appends;
  obs::Counter* append_bytes;
  obs::Counter* flushes;
  obs::Counter* violations;
  obs::Histogram* append_us;
  WormMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    appends = reg.GetCounter("worm.appends");
    append_bytes = reg.GetCounter("worm.append_bytes");
    flushes = reg.GetCounter("worm.flushes");
    violations = reg.GetCounter("worm.violations");
    append_us = reg.GetHistogram("worm.append_us");
  }
};
WormMetrics& Wm() {
  static WormMetrics m;
  return m;
}
}  // namespace

Result<WormStore*> WormStore::Open(const std::string& dir, Clock* clock) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("worm: cannot create dir " + dir + ": " +
                           ec.message());
  }
  auto* store = new WormStore(dir, clock);
  Status s = store->LoadMeta();
  if (!s.ok()) {
    delete store;
    return s;
  }
  return store;
}

WormStore::~WormStore() {
  for (auto& [name, handle] : handles_) {
    if (handle != nullptr) std::fclose(handle);
  }
  (void)SaveMetaLocked();
}

Result<std::FILE*> WormStore::AppendHandle(const std::string& name) {
  auto it = handles_.find(name);
  if (it != handles_.end()) return it->second;
  std::FILE* f = std::fopen(PathFor(name).c_str(), "ab");
  if (f == nullptr) return Status::IOError("worm: append open " + name);
  handles_[name] = f;
  return f;
}

std::string WormStore::PathFor(const std::string& name) const {
  return dir_ + "/" + name;
}

Status WormStore::Violation(const std::string& what) const {
  violations_.fetch_add(1, std::memory_order_relaxed);
  Wm().violations->Inc();
  return Status::WormViolation(what);
}

Status WormStore::LoadMeta() {
  std::ifstream in(PathFor(kMetaFileName), std::ios::binary);
  if (!in.is_open()) return Status::OK();  // fresh store
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  Decoder dec(blob);
  uint32_t count = 0;
  CDB_RETURN_IF_ERROR(dec.GetFixed32(&count));
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    WormFileInfo info;
    CDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&name));
    if (name.size() > kMaxName) return Status::Corruption("worm meta name");
    CDB_RETURN_IF_ERROR(dec.GetFixed64(&info.create_time_micros));
    CDB_RETURN_IF_ERROR(dec.GetFixed64(&info.retention_micros));
    CDB_RETURN_IF_ERROR(dec.GetFixed64(&info.size));
    std::string released;
    CDB_RETURN_IF_ERROR(dec.GetBytes(1, &released));
    info.released = released[0] != 0;
    // Reconcile with the actual file (appends persist sizes lazily).
    std::error_code ec;
    auto actual = fs::file_size(PathFor(name), ec);
    if (!ec && actual > info.size) {
      info.size = actual;
      meta_dirty_ = true;
    }
    // Everything that survived to disk is durable.
    info.durable_size = info.size;
    meta_[name] = info;
  }
  return Status::OK();
}

Status WormStore::SaveMetaLocked() const {
  if (!meta_dirty_) return Status::OK();
  std::string blob;
  PutFixed32(&blob, static_cast<uint32_t>(meta_.size()));
  for (const auto& [name, info] : meta_) {
    PutLengthPrefixed(&blob, name);
    PutFixed64(&blob, info.create_time_micros);
    PutFixed64(&blob, info.retention_micros);
    PutFixed64(&blob, info.size);
    blob.push_back(info.released ? 1 : 0);
  }
  std::string tmp = PathFor(std::string(kMetaFileName) + ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return Status::IOError("worm meta write");
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.flush();
    if (!out.good()) return Status::IOError("worm meta flush");
  }
  std::error_code ec;
  fs::rename(tmp, PathFor(kMetaFileName), ec);
  if (ec) return Status::IOError("worm meta rename: " + ec.message());
  meta_dirty_ = false;
  return Status::OK();
}

Status WormStore::CreateLocked(const std::string& name,
                               uint64_t retention_micros) {
  if (name.empty() || name == kMetaFileName || name.find('/') != std::string::npos) {
    return Status::InvalidArgument("worm: bad file name: " + name);
  }
  if (meta_.count(name) > 0) {
    return Violation("worm: create-over-existing refused: " + name);
  }
  std::ofstream out(PathFor(name), std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return Status::IOError("worm: create " + name);
  out.close();
  WormFileInfo info;
  info.create_time_micros = clock_->NowMicros();
  info.retention_micros = retention_micros;
  info.size = 0;
  info.durable_size = 0;
  meta_[name] = info;
  meta_dirty_ = true;
  return SaveMetaLocked();
}

Status WormStore::Create(const std::string& name, uint64_t retention_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  return CreateLocked(name, retention_micros);
}

Status WormStore::AppendUnflushedLocked(const std::string& name, Slice data) {
  auto it = meta_.find(name);
  if (it == meta_.end()) return Status::NotFound("worm: no such file: " + name);
  WormMetrics& wm = Wm();
  obs::ScopedLatencyTimer timer(wm.append_us);
  Result<std::FILE*> handle = AppendHandle(name);
  if (!handle.ok()) return handle.status();
  size_t n = std::fwrite(data.data(), 1, data.size(), handle.value());
  if (n != data.size()) return Status::IOError("worm: append write " + name);
  wm.appends->Inc();
  wm.append_bytes->Inc(data.size());
  // Size is tracked in memory and persisted lazily (dtor / next metadata
  // change); on reopen LoadMeta reconciles against the real file size, so
  // a stale persisted size can only under-count — never mask truncation.
  it->second.size += data.size();
  meta_dirty_ = true;
  return Status::OK();
}

Status WormStore::AppendUnflushed(const std::string& name, Slice data) {
  std::lock_guard<std::mutex> lock(mu_);
  return AppendUnflushedLocked(name, data);
}

Status WormStore::FlushAppendsLocked(const std::string& name) {
  auto it = handles_.find(name);
  if (it == handles_.end()) return Status::OK();
  if (std::fflush(it->second) != 0) {
    return Status::IOError("worm: append flush " + name);
  }
  Wm().flushes->Inc();
  auto info = meta_.find(name);
  if (info != meta_.end()) info->second.durable_size = info->second.size;
  return Status::OK();
}

Status WormStore::FlushAppends(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CDB_RETURN_IF_ERROR(FlushAppendsLocked(name));
  }
  SimulateFlushLatency();
  return Status::OK();
}

Status WormStore::Append(const std::string& name, Slice data) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CDB_RETURN_IF_ERROR(AppendUnflushedLocked(name, data));
    CDB_RETURN_IF_ERROR(FlushAppendsLocked(name));
  }
  SimulateFlushLatency();
  return Status::OK();
}

Status WormStore::CreateWithContent(const std::string& name,
                                    uint64_t retention_micros, Slice content) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CDB_RETURN_IF_ERROR(CreateLocked(name, retention_micros));
    if (content.empty()) return Status::OK();
    CDB_RETURN_IF_ERROR(AppendUnflushedLocked(name, content));
    CDB_RETURN_IF_ERROR(FlushAppendsLocked(name));
  }
  SimulateFlushLatency();
  return Status::OK();
}

void WormStore::SimulateFlushLatency() const {
  // One round trip to the network WORM filer per durable flush. Paid
  // *outside* mu_: the filer serves concurrent requests, so a flush in
  // flight must not make unrelated appends (the WAL tail mirror, a
  // barrier drain on another thread) queue behind its latency.
  if (flush_latency_micros_ > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(flush_latency_micros_));
  }
}

Status WormStore::ReadAllLocked(const std::string& name,
                                std::string* out) const {
  auto it = meta_.find(name);
  if (it == meta_.end()) return Status::NotFound("worm: no such file: " + name);
  // Drain any bytes still in our own append buffer so the read observes
  // every issued append (matters for the lazily-flushed stamp index).
  auto handle = handles_.find(name);
  if (handle != handles_.end()) {
    if (std::fflush(handle->second) != 0) {
      return Status::IOError("worm: append flush " + name);
    }
    it->second.durable_size = it->second.size;
  }
  std::ifstream in(PathFor(name), std::ios::binary);
  if (!in.is_open()) return Status::IOError("worm: read open " + name);
  out->assign((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  // The real server would never serve a file shorter than its recorded
  // size; a mismatch here means someone edited the backing directory
  // out-of-band, which the emulation reports as tampering.
  if (out->size() < it->second.size) {
    return Status::Tampered("worm: file shorter than recorded size: " + name);
  }
  return Status::OK();
}

Status WormStore::ReadAll(const std::string& name, std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ReadAllLocked(name, out);
}

Status WormStore::ReadAt(const std::string& name, uint64_t offset, size_t n,
                         std::string* out) const {
  // Seek-based ranged read: the incremental auditor re-reads only the
  // delta window of L per certification, so pulling the whole file just
  // to substr it would make every "O(delta)" read O(total L).
  std::lock_guard<std::mutex> lock(mu_);
  out->clear();
  auto it = meta_.find(name);
  if (it == meta_.end()) return Status::NotFound("worm: no such file: " + name);
  // Drain our own append buffer so the read observes every issued append,
  // exactly as ReadAll does.
  auto handle = handles_.find(name);
  if (handle != handles_.end()) {
    if (std::fflush(handle->second) != 0) {
      return Status::IOError("worm: append flush " + name);
    }
    it->second.durable_size = it->second.size;
  }
  if (offset >= it->second.size) return Status::OK();
  std::ifstream in(PathFor(name), std::ios::binary);
  if (!in.is_open()) return Status::IOError("worm: read open " + name);
  size_t want = static_cast<size_t>(
      std::min<uint64_t>(n, it->second.size - offset));
  out->resize(want);
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(out->data(), static_cast<std::streamsize>(want));
  // The real server would never serve fewer bytes than its recorded size
  // covers; a short read means the backing directory was edited
  // out-of-band, which the emulation reports as tampering.
  if (static_cast<size_t>(in.gcount()) < want) {
    out->resize(static_cast<size_t>(std::max<std::streamsize>(in.gcount(), 0)));
    return Status::Tampered("worm: file shorter than recorded size: " + name);
  }
  return Status::OK();
}

Status WormStore::Delete(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = meta_.find(name);
  if (it == meta_.end()) return Status::NotFound("worm: no such file: " + name);
  const WormFileInfo& info = it->second;
  if (!info.released) {
    if (info.retention_micros == 0) {
      return Violation("worm: delete of retain-forever file refused: " + name);
    }
    uint64_t now = clock_->NowMicros();
    if (now < info.create_time_micros + info.retention_micros) {
      return Violation("worm: delete before retention expiry refused: " +
                       name);
    }
  }
  auto handle = handles_.find(name);
  if (handle != handles_.end()) {
    std::fclose(handle->second);
    handles_.erase(handle);
  }
  std::error_code ec;
  fs::remove(PathFor(name), ec);
  if (ec) return Status::IOError("worm: delete " + name + ": " + ec.message());
  meta_.erase(it);
  meta_dirty_ = true;
  return SaveMetaLocked();
}

Status WormStore::ReleaseRetention(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = meta_.find(name);
  if (it == meta_.end()) return Status::NotFound("worm: no such file: " + name);
  if (it->second.released) return Status::OK();  // nothing changed: no write
  it->second.released = true;
  meta_dirty_ = true;
  return SaveMetaLocked();
}

bool WormStore::Exists(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return meta_.count(name) > 0;
}

Result<WormFileInfo> WormStore::GetInfo(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = meta_.find(name);
  if (it == meta_.end()) return Status::NotFound("worm: no such file: " + name);
  return it->second;
}

std::vector<std::string> WormStore::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(meta_.size());
  for (const auto& [name, info] : meta_) names.push_back(name);
  return names;
}

std::vector<std::string> WormStore::ListPrefix(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (auto it = meta_.lower_bound(prefix); it != meta_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    names.push_back(it->first);
  }
  return names;
}

}  // namespace complydb

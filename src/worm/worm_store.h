#ifndef COMPLYDB_WORM_WORM_STORE_H_
#define COMPLYDB_WORM_WORM_STORE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"

namespace complydb {

/// Metadata the WORM server keeps per file. Create time comes from the
/// store's compliance clock (the paper trusts the WORM server's clock,
/// e.g. NetApp SnapLock's "Compliance Clock"); it is what lets the auditor
/// verify witness files and detect hidden crashes.
struct WormFileInfo {
  uint64_t create_time_micros = 0;
  uint64_t retention_micros = 0;  // 0 = retain forever (until explicit audit release)
  uint64_t size = 0;
  bool released = false;  // an audit marked the file superseded
  /// Bytes known flushed to the OS (in-memory bookkeeping only, never
  /// persisted: on load everything on disk is by definition durable).
  /// `size - durable_size` is what an un-flushed crash would lose.
  uint64_t durable_size = 0;
};

/// Emulation of a compliance storage server (SnapLock / Centera class):
/// files are write-once at the granularity of bytes already written —
/// appends are allowed (the paper requires appendable WORM for logs), but
/// no byte once written can be changed, the file cannot be truncated, and
/// it cannot be deleted before its retention period has elapsed.
///
/// This object *is* the trust boundary of the architecture: everything in
/// it is assumed correct, everything outside it (the database files, the
/// transaction log on read/write media) is attackable. The adversary
/// simulator calls the same public API and must be refused; refusals are
/// counted in `violation_count()` so tests can assert the attack surface.
///
/// Files live under a directory; metadata (create time, retention) lives
/// in a sidecar `_worm_meta` file that is part of the trusted emulation.
///
/// Thread-safe: whichever thread drains the compliance log's tail appends
/// while others create witness files, mirror the WAL tail, and read for
/// audits. One mutex serializes the whole store — the real
/// contention is the media, not the map.
class WormStore {
 public:
  /// Opens (creating if needed) a WORM store rooted at `dir`. `clock` must
  /// outlive the store.
  static Result<WormStore*> Open(const std::string& dir, Clock* clock);

  ~WormStore();

  WormStore(const WormStore&) = delete;
  WormStore& operator=(const WormStore&) = delete;

  /// Creates an empty file with the given retention period. Fails with
  /// WormViolation if the file already exists (create-once).
  Status Create(const std::string& name, uint64_t retention_micros);

  /// Appends bytes to an existing file. Appends are the only permitted
  /// mutation. Data is flushed to the OS before returning — a compliance
  /// log record is only "on WORM" once Append returns OK.
  Status Append(const std::string& name, Slice data);

  /// Append without the flush, for callers that batch several records and
  /// then call FlushAppends once (the compliance logger batches all
  /// records accumulated since its previous drain).
  Status AppendUnflushed(const std::string& name, Slice data);
  Status FlushAppends(const std::string& name);

  /// Create + single Append, for witness files and snapshots.
  Status CreateWithContent(const std::string& name, uint64_t retention_micros,
                           Slice content);

  /// Reads the whole file. Any bytes sitting in this store's append
  /// buffer are flushed first, so an in-process reader (the auditor)
  /// always sees every append that has been issued.
  Status ReadAll(const std::string& name, std::string* out) const;

  /// Reads up to n bytes at offset; short reads at EOF are not an error.
  Status ReadAt(const std::string& name, uint64_t offset, size_t n,
                std::string* out) const;

  /// Deletes a file. Refused (WormViolation) before retention expiry.
  /// The unit of deletion on WORM is the entire file (paper §VIII).
  Status Delete(const std::string& name);

  /// Marks a file as releasable immediately (the auditor calls this for
  /// superseded snapshots and compliance logs after a successful audit).
  /// No-op (and no metadata write) if already released.
  Status ReleaseRetention(const std::string& name);

  bool Exists(const std::string& name) const;
  Result<WormFileInfo> GetInfo(const std::string& name) const;

  /// Names of all files, sorted.
  std::vector<std::string> List() const;

  /// Names of all files with the given prefix, sorted (prefix scans stand
  /// in for directory listings of witness/log-tail families).
  std::vector<std::string> ListPrefix(const std::string& prefix) const;

  /// Number of refused tampering attempts since open.
  uint64_t violation_count() const {
    return violations_.load(std::memory_order_relaxed);
  }

  /// Simulated latency per durable flush. The paper's compliance store is
  /// a network-attached WORM filer (SnapLock/Centera class); every fflush
  /// models one round trip to it. 0 = local, free. Benchmarks use this to
  /// expose how many round trips a configuration pays — async shipping
  /// exists to amortize them.
  void set_flush_latency_micros(uint64_t micros) {
    flush_latency_micros_ = micros;
  }
  uint64_t flush_latency_micros() const { return flush_latency_micros_; }

  Clock* clock() const { return clock_; }
  const std::string& dir() const { return dir_; }

 private:
  WormStore(std::string dir, Clock* clock)
      : dir_(std::move(dir)), clock_(clock) {}

  Status LoadMeta();
  // *Locked variants require mu_ held; public methods take it once.
  Status SaveMetaLocked() const;
  Status CreateLocked(const std::string& name, uint64_t retention_micros);
  Status AppendUnflushedLocked(const std::string& name, Slice data);
  Status FlushAppendsLocked(const std::string& name);
  Status ReadAllLocked(const std::string& name, std::string* out) const;
  std::string PathFor(const std::string& name) const;
  void SimulateFlushLatency() const;
  Status Violation(const std::string& what) const;
  Result<std::FILE*> AppendHandle(const std::string& name);

  std::string dir_;
  Clock* clock_;
  mutable std::mutex mu_;
  // mutable: ReadAll advances durable_size after draining the handle.
  mutable std::map<std::string, WormFileInfo> meta_;
  // Cached append handles: the compliance log appends a record per tuple,
  // and fopen/fclose per record would dominate transaction cost.
  // mutable: ReadAll must be able to drain a handle's buffered bytes.
  mutable std::map<std::string, std::FILE*> handles_;
  // Set whenever meta_ diverges from the persisted sidecar; SaveMeta
  // skips the write (and its rename) when nothing changed.
  mutable bool meta_dirty_ = false;
  mutable std::atomic<uint64_t> violations_{0};
  uint64_t flush_latency_micros_ = 0;
};

}  // namespace complydb

#endif  // COMPLYDB_WORM_WORM_STORE_H_

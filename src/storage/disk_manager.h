#ifndef COMPLYDB_STORAGE_DISK_MANAGER_H_
#define COMPLYDB_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/page.h"

namespace complydb {

/// Page-granular I/O over a single database file on ordinary read/write
/// media. This file — data, indexes, metadata — is exactly what the threat
/// model lets Mala edit with a file editor; nothing in it is trusted.
///
/// Reads and writes go through pread/pwrite on a raw descriptor, so
/// concurrent page I/O from different threads is safe (the auditor's
/// parallel final-state scan reads pages from several workers at once).
/// AllocatePage extends the file and is serialized by the single-writer
/// engine; PageCount is safe to read from any thread.
///
/// Counters are exposed for the benchmarks (storage-server I/O is the cost
/// the paper's page-image cache exists to avoid).
class DiskManager {
 public:
  static Result<DiskManager*> Open(const std::string& path);

  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  Status ReadPage(PageId pgno, Page* page);
  Status WritePage(PageId pgno, const Page& page);

  /// Extends the file by one zero page and returns its id.
  Result<PageId> AllocatePage();

  /// Number of pages in the file.
  PageId PageCount() const {
    return page_count_.load(std::memory_order_acquire);
  }

  Status Sync();

  const std::string& path() const { return path_; }

  uint64_t reads() const { return reads_.Value(); }
  uint64_t writes() const { return writes_.Value(); }
  void ResetCounters() {
    reads_.Reset();
    writes_.Reset();
  }

  /// Simulated per-I/O latency, per direction. The paper's database lived
  /// on an NFS-mounted filer where every page crossing cost a network
  /// round trip; benchmarks set this so relative overheads are measured
  /// against a realistically priced baseline rather than a page-cached
  /// local file, or model an asymmetric device (priced reads, free
  /// writes).
  void set_read_latency_micros(uint64_t micros) {
    read_latency_micros_ = micros;
  }
  void set_write_latency_micros(uint64_t micros) {
    write_latency_micros_ = micros;
  }

 private:
  DiskManager(std::string path, int fd, PageId page_count);

  static void SimulateLatency(uint64_t micros);

  std::string path_;
  int fd_;
  std::atomic<PageId> page_count_;
  // Per-instance (benchmarks reset these between phases); the registry's
  // storage.disk.* metrics aggregate across instances.
  obs::Counter reads_;
  obs::Counter writes_;
  obs::Counter* reg_reads_;
  obs::Counter* reg_writes_;
  obs::Histogram* reg_read_us_;
  obs::Histogram* reg_write_us_;
  uint64_t read_latency_micros_ = 0;
  uint64_t write_latency_micros_ = 0;
};

}  // namespace complydb

#endif  // COMPLYDB_STORAGE_DISK_MANAGER_H_

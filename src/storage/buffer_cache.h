#ifndef COMPLYDB_STORAGE_BUFFER_CACHE_H_
#define COMPLYDB_STORAGE_BUFFER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/io_hook.h"
#include "storage/page.h"

namespace complydb {

/// Latch to take on the fetched frame's contents. kNone preserves the
/// original single-threaded contract (pin only); concurrent callers pair
/// kShared reads with kExclusive mutations so a reader never observes a
/// half-applied page edit.
enum class PageLatchMode { kNone, kShared, kExclusive };

/// Fixed-capacity LRU buffer cache with a *steal / no-force* policy:
/// dirty pages of uncommitted transactions may reach disk (steal — this is
/// what creates the UNDO cases of paper §IV-B), and commit does not flush
/// (no-force — a crash may lose the pwrite of a committed tuple, which is
/// why the transaction-log tail lives on WORM).
///
/// Dirty write-out happens only at *deterministic flush points*: the
/// regret-cycle FlushMarkedAndRemark, the dirty-threshold checkpoint
/// (CheckpointIfNeeded, driven by per-shard dirty counts that only writes
/// move), and — last resort — a whole-shard flush when a write fault finds
/// no clean frame. Eviction itself only ever recycles clean frames, and a
/// shared-latch (read) fault that finds none bypasses the cache through a
/// transient overflow frame. This is what makes the compliance log L a
/// pure function of the applied write sequence: concurrent slot-execute
/// reads may shuffle the LRU and warm or cool any page, but they can never
/// move a compliance-visible page image to WORM at a thread-dependent
/// time.
///
/// Every disk crossing runs the registered IoHooks; the compliance logger
/// observes the database exclusively through this seam.
///
/// Regret-interval support (§IV-A): MarkDirtyPages() stamps the current
/// dirty set, FlushMarked() writes out pages stamped in the *previous*
/// cycle — "we enforce this by marking all dirty pages once every regret
/// interval, after calling pwrite on all dirty pages that were marked
/// during the previous cycle."
///
/// Thread safety: the frame table, free list, and intrusive LRU are split
/// into `shards` independent shards keyed by PageId (power of two, each
/// with its own mutex), so pins, unpins, and evictions in different shards
/// never serialize on one lock. Page *contents* are protected by a
/// per-frame reader/writer latch selected via PageLatchMode. Lock order:
/// a thread may block on a frame latch only while holding no shard mutex
/// (the miss path acquires the latch on a freshly-installed frame, which
/// is uncontended because eviction requires pin_count == 0 and every latch
/// holder keeps a pin). Whole-cache operations (FlushAll,
/// FlushMarkedAndRemark, DropAll, dirty_count) take every shard mutex in
/// index order, which also keeps the write-out batch stable against
/// concurrent reader-side evictions.
class BufferCache {
 public:
  /// `shards` is rounded down to a power of two and clamped to
  /// [1, capacity]. The default of 1 preserves the exact global-LRU
  /// eviction order of the original cache (tests and the auditor rely on
  /// it); the DB facade picks a wider value for concurrent workloads.
  BufferCache(DiskManager* disk, size_t capacity, size_t shards = 1);

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  /// Hooks run in registration order on every read and write. Not
  /// synchronized: register all hooks before concurrent use. Hooks may be
  /// invoked from any thread that triggers a disk crossing (including
  /// reader-side evictions), so they must be internally thread-safe.
  void AddHook(IoHook* hook) { hooks_.push_back(hook); }

  /// Pins the page (fetching from disk on a miss), acquires the requested
  /// latch, and returns a pointer valid until Unpin.
  Status FetchPage(PageId pgno, Page** out,
                   PageLatchMode mode = PageLatchMode::kNone);

  /// Allocates a fresh page, pins it zeroed; caller formats it.
  Result<PageId> NewPage(Page** out,
                         PageLatchMode mode = PageLatchMode::kNone);

  /// Releases the latch taken at fetch (`mode` must match) and unpins.
  void Unpin(PageId pgno, bool dirty,
             PageLatchMode mode = PageLatchMode::kNone);

  Status FlushPage(PageId pgno);
  Status FlushAll();

  /// Regret-interval cycle: flush everything marked last cycle, then mark
  /// the currently dirty pages for the next one.
  Status FlushMarkedAndRemark();

  /// Dirty-threshold checkpoint: when any shard's dirty count has crossed
  /// half its frame budget, flush every dirty page (page order). Callers
  /// invoke this at commit/abort boundaries — points that occur at the
  /// same logical position in every execution schedule — so the flush
  /// batches land at identical L offsets regardless of thread count.
  /// Cheap when no threshold was crossed (one relaxed load).
  Status CheckpointIfNeeded();

  /// Drops all unpinned frames (dirty frames are flushed first). Used to
  /// simulate a cold cache / restart so reads hit the disk image again.
  Status DropAll();

  size_t capacity() const { return capacity_; }
  size_t shards() const { return num_shards_; }
  uint64_t hits() const { return hits_.Value(); }
  uint64_t misses() const { return misses_.Value(); }
  uint64_t evictions() const { return evictions_.Value(); }
  size_t dirty_count() const;

  DiskManager* disk() const { return disk_; }

 private:
  static constexpr size_t kNil = static_cast<size_t>(-1);

  struct Frame {
    Page* page = nullptr;        // this frame's slot in pages_
    PageId pgno = kInvalidPage;  // kInvalidPage = not resident
    bool dirty = false;          // guarded by the owning shard's mutex
    bool marked = false;         // guarded by the owning shard's mutex
    std::atomic<int> pin_count{0};
    /// Content latch. Acquired only through PageLatchMode fetches; every
    /// holder also holds a pin, so pin_count == 0 implies the latch is
    /// free (what makes eviction safe).
    std::shared_mutex latch;
    // Intrusive LRU list links (frame indices). Only unpinned resident
    // frames are on the list; head is the eviction candidate, tail the
    // most recently unpinned.
    size_t lru_prev = kNil;
    size_t lru_next = kNil;
    bool in_lru = false;
  };

  /// A transient frame for a read fault that found no clean victim: the
  /// page is served from a heap copy that is dropped at unpin, so the
  /// resident set — and with it the dirty write-out schedule — stays
  /// untouched by read pressure. No content latch: overflow frames only
  /// ever serve kShared fetches and a write fault waits out the copy
  /// rather than touching it, so the copy is immutable for its whole
  /// lifetime (the shard mutex publishes the filled page to later pins).
  struct OverflowFrame {
    Page page;
    int pins = 0;
  };

  struct Shard {
    std::mutex mu;
    std::unordered_map<PageId, size_t> table;
    std::unordered_map<PageId, std::unique_ptr<OverflowFrame>> overflow;
    std::vector<size_t> free_list;
    size_t lru_head = kNil;
    size_t lru_tail = kNil;
    size_t frame_count = 0;   // static budget of this shard
    size_t dirty = 0;         // resident dirty frames; guarded by mu
    size_t checkpoint_at = 0; // dirty >= this requests a checkpoint
    obs::Counter* reg_hits = nullptr;
    obs::Counter* reg_misses = nullptr;
    obs::Counter* reg_evictions = nullptr;
  };

  Shard& ShardFor(PageId pgno) {
    return shards_[static_cast<size_t>(pgno) & shard_mask_];
  }
  const Shard& ShardFor(PageId pgno) const {
    return shards_[static_cast<size_t>(pgno) & shard_mask_];
  }

  void AcquireLatch(Frame* frame, PageLatchMode mode);
  static void ReleaseLatch(Frame* frame, PageLatchMode mode);

  Status WriteOut(Frame* frame);
  Status WriteOutBatch(const std::vector<size_t>& batch);
  void SetDirty(Shard* shard, Frame* frame);
  void SetClean(Frame* frame);
  /// Requires the shard's mutex. Returns a recycled clean frame index, or
  /// kNil when the shard holds no clean unpinned frame and `allow_flush`
  /// is false (the caller bypasses). With `allow_flush`, a clean-frame
  /// drought triggers a whole-shard dirty flush (page order) first.
  Result<size_t> FindVictim(Shard* shard, bool allow_flush);
  /// Collect + batch-write every dirty resident frame; requires all shard
  /// mutexes (DropAll composes it with the reset under one lock scope).
  Status FlushAllLocked();
  void LruRemove(Shard* shard, size_t idx);
  void LruPushMru(Shard* shard, size_t idx);
  void LruPushLru(Shard* shard, size_t idx);

  DiskManager* disk_;
  size_t capacity_;
  size_t num_shards_;
  size_t shard_mask_;
  struct FreeDeleter {
    void operator()(Page* p) const { std::free(p); }
  };
  std::unique_ptr<Page[], FreeDeleter> pages_;  // capacity_ calloc'd pages
  std::unique_ptr<Frame[]> frames_;
  std::unique_ptr<Shard[]> shards_;
  std::vector<IoHook*> hooks_;
  // Per-instance counts (the DbStats/accessor contract); the process-wide
  // registry aggregates the same events across instances under
  // storage.cache.* (with per-shard breakdowns under
  // storage.cache.shard<i>.*).
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  obs::Counter* reg_hits_;
  obs::Counter* reg_misses_;
  obs::Counter* reg_evictions_;
  obs::Counter* reg_page_forces_;
  obs::Counter* reg_latch_waits_;
  obs::Counter* reg_checkpoints_;
  obs::Counter* reg_shard_flushes_;
  obs::Counter* reg_read_bypasses_;
  obs::Histogram* reg_latch_wait_us_;
  /// Set under a shard mutex when that shard's dirty count crosses its
  /// checkpoint threshold; consumed by CheckpointIfNeeded. Dirty counts
  /// move only on the (serial) write path, so the flag's history is a
  /// pure function of the applied write sequence.
  std::atomic<bool> checkpoint_pending_{false};
};

/// RAII pin guard. Carries the latch mode taken at fetch so Release pairs
/// the matching unlock with the unpin.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferCache* cache, PageId pgno, Page* page,
            PageLatchMode mode = PageLatchMode::kNone)
      : cache_(cache), pgno_(pgno), page_(page), mode_(mode) {}
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& o) noexcept { *this = std::move(o); }
  PageGuard& operator=(PageGuard&& o) noexcept {
    if (this != &o) {
      Release();
      cache_ = o.cache_;
      pgno_ = o.pgno_;
      page_ = o.page_;
      dirty_ = o.dirty_;
      mode_ = o.mode_;
      o.cache_ = nullptr;
      o.page_ = nullptr;
      o.dirty_ = false;
      o.mode_ = PageLatchMode::kNone;
    }
    return *this;
  }

  Page* get() const { return page_; }
  Page* operator->() const { return page_; }
  PageId pgno() const { return pgno_; }
  void MarkDirty() { dirty_ = true; }
  bool dirty() const { return dirty_; }
  bool valid() const { return page_ != nullptr; }

  void Release() {
    if (cache_ != nullptr && page_ != nullptr) {
      cache_->Unpin(pgno_, dirty_, mode_);
      cache_ = nullptr;
      page_ = nullptr;
      dirty_ = false;
      mode_ = PageLatchMode::kNone;
    }
  }

 private:
  BufferCache* cache_ = nullptr;
  PageId pgno_ = kInvalidPage;
  Page* page_ = nullptr;
  bool dirty_ = false;
  PageLatchMode mode_ = PageLatchMode::kNone;
};

}  // namespace complydb

#endif  // COMPLYDB_STORAGE_BUFFER_CACHE_H_

#include "storage/buffer_cache.h"

#include <algorithm>
#include <string>
#include <thread>


namespace complydb {

namespace {

size_t FloorPow2Clamped(size_t shards, size_t capacity) {
  if (shards == 0) shards = 1;
  size_t p = 1;
  while (p * 2 <= shards) p *= 2;
  while (p > capacity && p > 1) p /= 2;
  return p;
}

}  // namespace

BufferCache::BufferCache(DiskManager* disk, size_t capacity, size_t shards)
    : disk_(disk),
      capacity_(capacity == 0 ? 1 : capacity),
      num_shards_(FloorPow2Clamped(shards, capacity == 0 ? 1 : capacity)),
      shard_mask_(num_shards_ - 1) {
  frames_ = std::make_unique<Frame[]>(capacity_);
  shards_ = std::make_unique<Shard[]>(num_shards_);
  auto& reg = obs::MetricsRegistry::Global();
  // Frames are partitioned statically: shard s owns the contiguous index
  // range [first, first + count). A page can only ever be cached in a
  // frame of ShardFor(pgno), so every free-list / LRU operation stays
  // within one shard's lock.
  size_t base = capacity_ / num_shards_;
  size_t extra = capacity_ % num_shards_;
  size_t first = 0;
  for (size_t s = 0; s < num_shards_; ++s) {
    size_t count = base + (s < extra ? 1 : 0);
    Shard& shard = shards_[s];
    shard.free_list.reserve(count);
    for (size_t i = first + count; i-- > first;) shard.free_list.push_back(i);
    first += count;
    shard.frame_count = count;
    // Checkpoint once half the shard is dirty: the other half stays
    // available as clean victims, so faults between two commit-boundary
    // checkpoints never have to move a dirty page themselves.
    shard.checkpoint_at = std::max<size_t>(1, (count + 1) / 2);
    std::string prefix = "storage.cache.shard" + std::to_string(s);
    shard.reg_hits = reg.GetCounter(prefix + ".hits");
    shard.reg_misses = reg.GetCounter(prefix + ".misses");
    shard.reg_evictions = reg.GetCounter(prefix + ".evictions");
  }
  reg_hits_ = reg.GetCounter("storage.cache.hits");
  reg_misses_ = reg.GetCounter("storage.cache.misses");
  reg_evictions_ = reg.GetCounter("storage.cache.evictions");
  reg_page_forces_ = reg.GetCounter("storage.cache.page_forces");
  reg_latch_waits_ = reg.GetCounter("storage.cache.latch_waits");
  reg_checkpoints_ = reg.GetCounter("storage.cache.checkpoints");
  reg_shard_flushes_ = reg.GetCounter("storage.cache.shard_flushes");
  reg_read_bypasses_ = reg.GetCounter("storage.cache.read_bypasses");
  reg_latch_wait_us_ = reg.GetHistogram("storage.cache.latch_wait_us");
}

void BufferCache::SetDirty(Shard* shard, Frame* frame) {
  if (frame->dirty) return;
  frame->dirty = true;
  if (++shard->dirty >= shard->checkpoint_at) {
    checkpoint_pending_.store(true, std::memory_order_relaxed);
  }
}

void BufferCache::SetClean(Frame* frame) {
  if (!frame->dirty) return;
  frame->dirty = false;
  Shard& shard = ShardFor(frame->pgno);
  if (shard.dirty > 0) --shard.dirty;
}

void BufferCache::AcquireLatch(Frame* frame, PageLatchMode mode) {
  if (mode == PageLatchMode::kNone) return;
  if (mode == PageLatchMode::kShared) {
    if (frame->latch.try_lock_shared()) return;
    reg_latch_waits_->Inc();
    obs::ScopedLatencyTimer timer(reg_latch_wait_us_);
    frame->latch.lock_shared();
  } else {
    if (frame->latch.try_lock()) return;
    reg_latch_waits_->Inc();
    obs::ScopedLatencyTimer timer(reg_latch_wait_us_);
    frame->latch.lock();
  }
}

void BufferCache::ReleaseLatch(Frame* frame, PageLatchMode mode) {
  if (mode == PageLatchMode::kNone) return;
  if (mode == PageLatchMode::kShared) {
    frame->latch.unlock_shared();
  } else {
    frame->latch.unlock();
  }
}

void BufferCache::LruRemove(Shard* shard, size_t idx) {
  Frame* f = &frames_[idx];
  if (!f->in_lru) return;
  if (f->lru_prev != kNil) {
    frames_[f->lru_prev].lru_next = f->lru_next;
  } else {
    shard->lru_head = f->lru_next;
  }
  if (f->lru_next != kNil) {
    frames_[f->lru_next].lru_prev = f->lru_prev;
  } else {
    shard->lru_tail = f->lru_prev;
  }
  f->lru_prev = kNil;
  f->lru_next = kNil;
  f->in_lru = false;
}

void BufferCache::LruPushMru(Shard* shard, size_t idx) {
  Frame* f = &frames_[idx];
  if (f->in_lru) return;
  f->lru_prev = shard->lru_tail;
  f->lru_next = kNil;
  if (shard->lru_tail != kNil) {
    frames_[shard->lru_tail].lru_next = idx;
  } else {
    shard->lru_head = idx;
  }
  shard->lru_tail = idx;
  f->in_lru = true;
}

void BufferCache::LruPushLru(Shard* shard, size_t idx) {
  Frame* f = &frames_[idx];
  if (f->in_lru) return;
  f->lru_next = shard->lru_head;
  f->lru_prev = kNil;
  if (shard->lru_head != kNil) {
    frames_[shard->lru_head].lru_prev = idx;
  } else {
    shard->lru_tail = idx;
  }
  shard->lru_head = idx;
  f->in_lru = true;
}

Status BufferCache::WriteOut(Frame* frame) {
  for (IoHook* hook : hooks_) {
    CDB_RETURN_IF_ERROR(hook->OnPageWrite(frame->pgno, frame->page));
  }
  for (IoHook* hook : hooks_) {
    CDB_RETURN_IF_ERROR(hook->OnPageWriteBarrier(frame->pgno));
  }
  CDB_RETURN_IF_ERROR(disk_->WritePage(frame->pgno, frame->page));
  SetClean(frame);
  frame->marked = false;
  return Status::OK();
}

// Batch write-out in three phases: every page's records are appended
// (OnPageWrite), then every page's durability barrier runs — with the
// async shipper the first barrier drains the whole ring, so one WORM
// fflush covers the entire storm — and only then do the pwrites happen.
// An error in any phase aborts before a single page reaches disk, which
// preserves the compliance rule (no pwrite without its records on WORM).
Status BufferCache::WriteOutBatch(const std::vector<size_t>& batch) {
  for (size_t idx : batch) {
    Frame* frame = &frames_[idx];
    for (IoHook* hook : hooks_) {
      CDB_RETURN_IF_ERROR(hook->OnPageWrite(frame->pgno, frame->page));
    }
  }
  for (size_t idx : batch) {
    for (IoHook* hook : hooks_) {
      CDB_RETURN_IF_ERROR(hook->OnPageWriteBarrier(frames_[idx].pgno));
    }
  }
  for (size_t idx : batch) {
    Frame* frame = &frames_[idx];
    CDB_RETURN_IF_ERROR(disk_->WritePage(frame->pgno, frame->page));
    SetClean(frame);
    frame->marked = false;
  }
  return Status::OK();
}

Result<size_t> BufferCache::FindVictim(Shard* shard, bool allow_flush) {
  if (!shard->free_list.empty()) {
    size_t idx = shard->free_list.back();
    shard->free_list.pop_back();
    return idx;
  }
  if (shard->lru_head == kNil) {
    return Status::Busy("buffer cache: all frames pinned");
  }
  // Eviction recycles the coldest *clean* frame: evicting clean pages
  // needs no L append, so concurrent read traffic (slot-execute phases,
  // snapshot readers) never moves a compliance-visible page image at a
  // thread-dependent time.
  size_t victim = kNil;
  for (size_t idx = shard->lru_head; idx != kNil;
       idx = frames_[idx].lru_next) {
    if (!frames_[idx].dirty) {
      victim = idx;
      break;
    }
  }
  if (victim == kNil) {
    // No clean frame. Read faults bypass (kNil); write faults flush the
    // whole shard in page order — still steal (the pages may hold
    // uncommitted data; the WAL hook enforces the write-ahead rule), but
    // as one deterministic batch instead of a single LRU-order victim,
    // since which frame is coldest depends on thread timing while the
    // dirty *set* depends only on the applied write sequence. Writes only
    // fault from the serial commit path, so the flush point itself is
    // schedule-independent. Hooks run under this shard's mutex only
    // (shard -> WAL -> logger lock order), so other shards keep serving.
    if (!allow_flush) return kNil;
    std::vector<size_t> batch;
    for (size_t idx = shard->lru_head; idx != kNil;
         idx = frames_[idx].lru_next) {
      if (frames_[idx].dirty) batch.push_back(idx);
    }
    std::sort(batch.begin(), batch.end(), [&](size_t a, size_t b) {
      return frames_[a].pgno < frames_[b].pgno;
    });
    CDB_RETURN_IF_ERROR(WriteOutBatch(batch));
    reg_shard_flushes_->Inc();
    victim = shard->lru_head;
  }
  LruRemove(shard, victim);
  Frame* frame = &frames_[victim];
  shard->table.erase(frame->pgno);
  frame->pgno = kInvalidPage;
  evictions_.Inc();
  reg_evictions_->Inc();
  shard->reg_evictions->Inc();
  return victim;
}

Status BufferCache::FetchPage(PageId pgno, Page** out, PageLatchMode mode) {
  Shard& shard = ShardFor(pgno);
  std::unique_lock<std::mutex> lock(shard.mu);
  bool counted_miss = false;
  // Transient waits (a live overflow copy blocking a write fault, or a
  // momentarily all-pinned shard) spin with the lock dropped; both
  // resolve as soon as some reader unpins.
  int spins = 100000;
  for (;;) {
    auto it = shard.table.find(pgno);
    if (it != shard.table.end()) {
      size_t idx = it->second;
      Frame* frame = &frames_[idx];
      if (frame->pin_count.load(std::memory_order_relaxed) == 0) {
        LruRemove(&shard, idx);
      }
      frame->pin_count.fetch_add(1, std::memory_order_relaxed);
      hits_.Inc();
      reg_hits_->Inc();
      shard.reg_hits->Inc();
      // The pin taken above keeps the frame resident, so it is safe to
      // block on the content latch with the shard unlocked (lock order:
      // never wait on a latch while holding a shard mutex).
      lock.unlock();
      AcquireLatch(frame, mode);
      *out = &frame->page;
      return Status::OK();
    }
    auto of_it = shard.overflow.find(pgno);
    if (of_it != shard.overflow.end()) {
      if (mode == PageLatchMode::kShared) {
        OverflowFrame* of = of_it->second.get();
        ++of->pins;
        hits_.Inc();
        reg_hits_->Inc();
        shard.reg_hits->Inc();
        // No latch: the copy is immutable (kShared readers only, write
        // faults wait it out), so the pin alone is enough.
        *out = &of->page;
        return Status::OK();
      }
      // A write fault must wait out a live transient copy: a page must
      // never be resident twice (the unpin path resolves by page number,
      // and a reader on the stale copy could miss the edit).
      if (--spins < 0) return Status::Busy("buffer cache: page bypassed");
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
      continue;
    }
    if (!counted_miss) {
      counted_miss = true;
      misses_.Inc();
      reg_misses_->Inc();
      shard.reg_misses->Inc();
    }
    // Only a shared-latch (read) fault may bypass: an exclusive or
    // latch-free fetch may dirty the page, and a transient copy's edits
    // would be lost at unpin.
    bool read_only = mode == PageLatchMode::kShared;
    Result<size_t> victim = FindVictim(&shard, /*allow_flush=*/!read_only);
    if (!victim.ok()) {
      if (victim.status().IsBusy() && --spins >= 0) {
        lock.unlock();
        std::this_thread::yield();
        lock.lock();
        continue;
      }
      return victim.status();
    }
    if (victim.value() == kNil) {
      // Clean-frame drought: serve the read from a transient heap frame
      // that dies at unpin, leaving the resident set — and with it the
      // dirty write-out schedule — untouched.
      auto of = std::make_unique<OverflowFrame>();
      Status s = disk_->ReadPage(pgno, &of->page);
      if (!s.ok()) return s;
      for (IoHook* hook : hooks_) {
        CDB_RETURN_IF_ERROR(hook->OnPageRead(pgno, of->page));
      }
      of->pins = 1;
      *out = &of->page;
      shard.overflow.emplace(pgno, std::move(of));
      reg_read_bypasses_->Inc();
      return Status::OK();
    }
    size_t idx = victim.value();
    Frame* frame = &frames_[idx];
    Status s = disk_->ReadPage(pgno, &frame->page);
    if (!s.ok()) {
      shard.free_list.push_back(idx);
      return s;
    }
    for (IoHook* hook : hooks_) {
      Status hs = hook->OnPageRead(pgno, frame->page);
      if (!hs.ok()) {
        shard.free_list.push_back(idx);
        return hs;
      }
    }
    frame->pgno = pgno;
    frame->dirty = false;
    frame->marked = false;
    frame->pin_count.store(1, std::memory_order_relaxed);
    shard.table[pgno] = idx;
    // Uncontended: the frame was free or just evicted at pin_count == 0,
    // and every latch holder keeps a pin, so the latch cannot be held.
    AcquireLatch(frame, mode);
    *out = &frame->page;
    return Status::OK();
  }
}

Result<PageId> BufferCache::NewPage(Page** out, PageLatchMode mode) {
  Result<PageId> alloc = disk_->AllocatePage();
  if (!alloc.ok()) return alloc.status();
  PageId pgno = alloc.value();
  Shard& shard = ShardFor(pgno);
  std::unique_lock<std::mutex> lock(shard.mu);
  Result<size_t> victim = FindVictim(&shard, /*allow_flush=*/true);
  int spins = 100000;
  while (!victim.ok() && victim.status().IsBusy() && --spins >= 0) {
    lock.unlock();
    std::this_thread::yield();
    lock.lock();
    victim = FindVictim(&shard, /*allow_flush=*/true);
  }
  if (!victim.ok()) return victim.status();
  size_t idx = victim.value();
  Frame* frame = &frames_[idx];
  frame->page.Zero();
  frame->pgno = pgno;
  SetDirty(&shard, frame);
  frame->marked = false;
  frame->pin_count.store(1, std::memory_order_relaxed);
  shard.table[pgno] = idx;
  AcquireLatch(frame, mode);  // uncontended, same argument as FetchPage
  *out = &frame->page;
  return pgno;
}

void BufferCache::Unpin(PageId pgno, bool dirty, PageLatchMode mode) {
  Shard& shard = ShardFor(pgno);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.table.find(pgno);
  if (it == shard.table.end()) {
    // A bypassed read: transient frames only serve kShared fetches
    // (dirty is never set on them) and die with their last pin.
    auto of_it = shard.overflow.find(pgno);
    if (of_it == shard.overflow.end()) return;
    OverflowFrame* of = of_it->second.get();
    if (--of->pins <= 0) shard.overflow.erase(of_it);
    return;
  }
  size_t idx = it->second;
  Frame* frame = &frames_[idx];
  // Release the latch before the pin so "pin_count == 0 implies latch
  // free" holds at every instant the shard mutex is released.
  ReleaseLatch(frame, mode);
  if (dirty) SetDirty(&shard, frame);
  if (frame->pin_count.load(std::memory_order_relaxed) > 0) {
    frame->pin_count.fetch_sub(1, std::memory_order_relaxed);
  }
  if (frame->pin_count.load(std::memory_order_relaxed) == 0) {
    LruPushMru(&shard, idx);
  }
}

Status BufferCache::FlushPage(PageId pgno) {
  Shard& shard = ShardFor(pgno);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.table.find(pgno);
  if (it == shard.table.end()) return Status::OK();
  Frame* frame = &frames_[it->second];
  if (!frame->dirty) return Status::OK();
  return WriteOut(frame);
}

// Whole-cache operations hold every shard mutex (index order) for their
// full duration: the collected batch must stay stable against concurrent
// reader-side evictions, which could otherwise recycle a collected frame
// for a different page between collection and pwrite.

Status BufferCache::FlushAllLocked() {
  std::vector<size_t> batch;
  for (size_t i = 0; i < capacity_; ++i) {
    Frame& frame = frames_[i];
    if (frame.pgno != kInvalidPage && frame.dirty) batch.push_back(i);
  }
  // Page order, not frame order: which frame holds a page depends on the
  // eviction history, which thread timing can perturb; the flushed L
  // record sequence must not.
  std::sort(batch.begin(), batch.end(), [&](size_t a, size_t b) {
    return frames_[a].pgno < frames_[b].pgno;
  });
  return WriteOutBatch(batch);
}

Status BufferCache::FlushAll() {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) locks.emplace_back(shards_[s].mu);
  CDB_RETURN_IF_ERROR(FlushAllLocked());
  return disk_->Sync();
}

Status BufferCache::CheckpointIfNeeded() {
  if (!checkpoint_pending_.load(std::memory_order_relaxed)) {
    return Status::OK();
  }
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) locks.emplace_back(shards_[s].mu);
  checkpoint_pending_.store(false, std::memory_order_relaxed);
  // Re-verify under the locks: an epoch flush may have drained the dirty
  // set since the flag was raised.
  bool need = false;
  for (size_t s = 0; s < num_shards_; ++s) {
    if (shards_[s].dirty >= shards_[s].checkpoint_at) {
      need = true;
      break;
    }
  }
  if (!need) return Status::OK();
  reg_checkpoints_->Inc();
  return FlushAllLocked();
}

Status BufferCache::FlushMarkedAndRemark() {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) locks.emplace_back(shards_[s].mu);
  std::vector<size_t> batch;
  for (size_t i = 0; i < capacity_; ++i) {
    Frame& frame = frames_[i];
    if (frame.pgno == kInvalidPage) continue;
    if (frame.dirty && frame.marked) batch.push_back(i);
  }
  // Same page-order rule as FlushAllLocked.
  std::sort(batch.begin(), batch.end(), [&](size_t a, size_t b) {
    return frames_[a].pgno < frames_[b].pgno;
  });
  CDB_RETURN_IF_ERROR(WriteOutBatch(batch));
  reg_page_forces_->Inc(batch.size());
  for (size_t i = 0; i < capacity_; ++i) {
    Frame& frame = frames_[i];
    if (frame.pgno == kInvalidPage) continue;
    frame.marked = frame.dirty;
  }
  return Status::OK();
}

Status BufferCache::DropAll() {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) locks.emplace_back(shards_[s].mu);
  CDB_RETURN_IF_ERROR(FlushAllLocked());
  CDB_RETURN_IF_ERROR(disk_->Sync());
  for (size_t i = 0; i < capacity_; ++i) {
    if (frames_[i].pin_count.load(std::memory_order_relaxed) > 0) {
      return Status::Busy("buffer cache: cannot drop pinned frame");
    }
  }
  for (size_t s = 0; s < num_shards_; ++s) {
    if (!shards_[s].overflow.empty()) {
      return Status::Busy("buffer cache: cannot drop bypassed page");
    }
  }
  size_t base = capacity_ / num_shards_;
  size_t extra = capacity_ % num_shards_;
  size_t first = 0;
  for (size_t s = 0; s < num_shards_; ++s) {
    size_t count = base + (s < extra ? 1 : 0);
    Shard& shard = shards_[s];
    shard.table.clear();
    shard.free_list.clear();
    shard.lru_head = kNil;
    shard.lru_tail = kNil;
    shard.dirty = 0;
    for (size_t i = first + count; i-- > first;) {
      Frame& frame = frames_[i];
      frame.pgno = kInvalidPage;
      frame.dirty = false;
      frame.marked = false;
      frame.pin_count.store(0, std::memory_order_relaxed);
      frame.lru_prev = kNil;
      frame.lru_next = kNil;
      frame.in_lru = false;
      shard.free_list.push_back(i);
    }
    first += count;
  }
  return Status::OK();
}

size_t BufferCache::dirty_count() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) locks.emplace_back(shards_[s].mu);
  size_t n = 0;
  for (size_t i = 0; i < capacity_; ++i) {
    const Frame& frame = frames_[i];
    if (frame.pgno != kInvalidPage && frame.dirty) ++n;
  }
  return n;
}

}  // namespace complydb

#include "storage/buffer_cache.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/io_hook.h"
#include "test_dir.h"

namespace complydb {
namespace {

class RecordingHook : public IoHook {
 public:
  Status OnPageRead(PageId pgno, const Page&) override {
    reads.push_back(pgno);
    return Status::OK();
  }
  Status OnPageWrite(PageId pgno, const Page&) override {
    writes.push_back(pgno);
    if (fail_writes) return Status::IOError("injected WORM outage");
    return Status::OK();
  }
  std::vector<PageId> reads;
  std::vector<PageId> writes;
  bool fail_writes = false;
};

class BufferCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test_dir_.Reset("cache_" + testutil::TestName()) + "/cache.db";
    auto r = DiskManager::Open(path_);
    ASSERT_TRUE(r.ok());
    disk_.reset(r.value());
  }

  PageId Alloc(BufferCache* cache, uint32_t stamp) {
    Page* page = nullptr;
    auto r = cache->NewPage(&page);
    EXPECT_TRUE(r.ok());
    page->Format(r.value(), PageType::kBtreeLeaf, 0, 0);
    EncodeFixed32(page->data() + Page::kHeaderSize, stamp);
    cache->Unpin(r.value(), /*dirty=*/true);
    return r.value();
  }

  uint32_t ReadStamp(BufferCache* cache, PageId pgno) {
    Page* page = nullptr;
    EXPECT_TRUE(cache->FetchPage(pgno, &page).ok());
    uint32_t v = DecodeFixed32(page->data() + Page::kHeaderSize);
    cache->Unpin(pgno, false);
    return v;
  }

  testutil::TestDir test_dir_;
  std::string path_;
  std::unique_ptr<DiskManager> disk_;
};

TEST_F(BufferCacheTest, NewPageRoundTrip) {
  BufferCache cache(disk_.get(), 4);
  PageId p = Alloc(&cache, 0xABCD);
  EXPECT_EQ(ReadStamp(&cache, p), 0xABCDu);
}

// Resident set size of this process, from /proc/self/statm (0 when the
// file is unreadable, e.g. off Linux).
size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t total_pages = 0;
  size_t resident_pages = 0;
  if (!(statm >> total_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

// The page pool is calloc'd, so frames cost resident memory only once
// used: a 32768-frame (128 MB) cache must not write its pool up front.
TEST_F(BufferCacheTest, LargeCacheTouchesPageMemoryOnlyWhenUsed) {
  const size_t before = ResidentBytes();
  if (before == 0) GTEST_SKIP() << "no /proc/self/statm";
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "TSan's calloc writes zeros over the whole allocation";
#endif
  BufferCache cache(disk_.get(), 32768);
  const size_t after = ResidentBytes();
  EXPECT_LT(after, before + (16u << 20))
      << "constructing the cache made " << (after - before) / 1024
      << " KB resident";

  Page* page = nullptr;
  auto r = cache.NewPage(&page);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(page->AsSlice(), Slice(std::string(kPageSize, '\0')));
  cache.Unpin(r.value(), /*dirty=*/true);
}

// NewPage hands out a zeroed frame even when it recycles one that held
// another page's bytes.
TEST_F(BufferCacheTest, NewPageZeroesARecycledFrame) {
  BufferCache cache(disk_.get(), 1);
  Alloc(&cache, 0xFFFFFFFFu);
  Page* page = nullptr;
  auto r = cache.NewPage(&page);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(page->AsSlice(), Slice(std::string(kPageSize, '\0')));
  cache.Unpin(r.value(), /*dirty=*/true);
}

TEST_F(BufferCacheTest, EvictionWritesDirtyAndReloads) {
  BufferCache cache(disk_.get(), 2);
  PageId a = Alloc(&cache, 1);
  PageId b = Alloc(&cache, 2);
  PageId c = Alloc(&cache, 3);  // evicts the LRU (a)
  EXPECT_GE(cache.evictions(), 1u);
  EXPECT_EQ(ReadStamp(&cache, a), 1u);
  EXPECT_EQ(ReadStamp(&cache, b), 2u);
  EXPECT_EQ(ReadStamp(&cache, c), 3u);
}

TEST_F(BufferCacheTest, EvictsInLeastRecentlyUsedOrder) {
  RecordingHook hook;
  BufferCache cache(disk_.get(), 3);
  cache.AddHook(&hook);
  PageId a = Alloc(&cache, 1);
  PageId b = Alloc(&cache, 2);
  PageId c = Alloc(&cache, 3);
  // Re-touch a: recency order is now b < c < a.
  EXPECT_EQ(ReadStamp(&cache, a), 1u);
  hook.writes.clear();
  // Every frame is dirty, so the first write fault hits a clean-frame
  // drought: the shard flushes wholesale in page order (one deterministic
  // batch), then recycles clean frames in recency order with no further
  // write-out.
  Alloc(&cache, 4);  // shard flush {a,b,c}, then evicts b
  Alloc(&cache, 5);  // evicts c
  Alloc(&cache, 6);  // evicts a
  ASSERT_EQ(hook.writes.size(), 3u);
  EXPECT_EQ(hook.writes[0], a);
  EXPECT_EQ(hook.writes[1], b);
  EXPECT_EQ(hook.writes[2], c);
  EXPECT_GE(cache.evictions(), 3u);
  // The flushed-then-evicted pages survived with their contents.
  EXPECT_EQ(ReadStamp(&cache, b), 2u);
  EXPECT_EQ(ReadStamp(&cache, c), 3u);
}

TEST_F(BufferCacheTest, HitsAndMisses) {
  BufferCache cache(disk_.get(), 4);
  PageId a = Alloc(&cache, 1);
  ASSERT_TRUE(cache.FlushAll().ok());
  ASSERT_TRUE(cache.DropAll().ok());
  EXPECT_EQ(ReadStamp(&cache, a), 1u);  // miss
  uint64_t misses = cache.misses();
  EXPECT_EQ(ReadStamp(&cache, a), 1u);  // hit
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_GE(cache.hits(), 1u);
}

TEST_F(BufferCacheTest, AllPinnedReportsBusy) {
  BufferCache cache(disk_.get(), 2);
  Page* p1 = nullptr;
  Page* p2 = nullptr;
  auto r1 = cache.NewPage(&p1);
  auto r2 = cache.NewPage(&p2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  Page* p3 = nullptr;
  auto r3 = cache.NewPage(&p3);
  EXPECT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), Status::Code::kBusy);
  cache.Unpin(r1.value(), true);
  cache.Unpin(r2.value(), true);
}

TEST_F(BufferCacheTest, HooksSeeReadsAndWrites) {
  BufferCache cache(disk_.get(), 2);
  RecordingHook hook;
  cache.AddHook(&hook);
  PageId a = Alloc(&cache, 1);
  ASSERT_TRUE(cache.FlushAll().ok());
  ASSERT_EQ(hook.writes.size(), 1u);
  EXPECT_EQ(hook.writes[0], a);
  ASSERT_TRUE(cache.DropAll().ok());
  ReadStamp(&cache, a);
  ASSERT_EQ(hook.reads.size(), 1u);
  EXPECT_EQ(hook.reads[0], a);
}

TEST_F(BufferCacheTest, FailedHookBlocksWrite) {
  // The compliance rule: if L cannot be written, the page write must not
  // happen (transaction processing halts).
  BufferCache cache(disk_.get(), 2);
  RecordingHook hook;
  hook.fail_writes = true;
  cache.AddHook(&hook);
  Alloc(&cache, 7);
  uint64_t disk_writes_before = disk_->writes();
  EXPECT_FALSE(cache.FlushAll().ok());
  EXPECT_EQ(disk_->writes(), disk_writes_before);
}

TEST_F(BufferCacheTest, FlushMarkedAndRemarkTwoCycleProtocol) {
  BufferCache cache(disk_.get(), 8);
  PageId a = Alloc(&cache, 1);
  (void)a;
  // Cycle 1: nothing marked yet -> no writes; dirty pages get marked.
  uint64_t w0 = disk_->writes();
  ASSERT_TRUE(cache.FlushMarkedAndRemark().ok());
  EXPECT_EQ(disk_->writes(), w0);
  // Cycle 2: previously marked dirty pages are written.
  ASSERT_TRUE(cache.FlushMarkedAndRemark().ok());
  EXPECT_GT(disk_->writes(), w0);
  EXPECT_EQ(cache.dirty_count(), 0u);
}

TEST_F(BufferCacheTest, PersistenceAcrossCacheInstances) {
  {
    BufferCache cache(disk_.get(), 4);
    Alloc(&cache, 42);
    ASSERT_TRUE(cache.FlushAll().ok());
  }
  BufferCache cache2(disk_.get(), 4);
  EXPECT_EQ(ReadStamp(&cache2, 0), 42u);
}

TEST_F(BufferCacheTest, FetchOutOfRangeFails) {
  BufferCache cache(disk_.get(), 4);
  Page* page = nullptr;
  EXPECT_FALSE(cache.FetchPage(99, &page).ok());
}

TEST_F(BufferCacheTest, PageGuardUnpinsOnDestruction) {
  BufferCache cache(disk_.get(), 2);
  PageId a = Alloc(&cache, 1);
  {
    Page* page = nullptr;
    ASSERT_TRUE(cache.FetchPage(a, &page).ok());
    PageGuard guard(&cache, a, page);
    guard.MarkDirty();
  }
  // Frame must be evictable now: fill the cache.
  Alloc(&cache, 2);
  Alloc(&cache, 3);
  EXPECT_EQ(ReadStamp(&cache, a), 1u);
}

TEST_F(BufferCacheTest, PageGuardMoveClearsSourceDirtyBit) {
  BufferCache cache(disk_.get(), 4);
  PageId a = Alloc(&cache, 1);
  ASSERT_TRUE(cache.FlushAll().ok());
  EXPECT_EQ(cache.dirty_count(), 0u);

  Page* pa = nullptr;
  ASSERT_TRUE(cache.FetchPage(a, &pa).ok());
  PageGuard source(&cache, a, pa);
  source.MarkDirty();

  // Moving must transfer the dirty bit, not duplicate it: the moved-from
  // guard once kept dirty_ set, so a later reuse re-dirtied whatever pin
  // it next carried.
  PageGuard moved(std::move(source));
  EXPECT_FALSE(source.valid());
  EXPECT_FALSE(source.dirty());
  ASSERT_TRUE(moved.valid());
  EXPECT_TRUE(moved.dirty());
  EXPECT_EQ(moved.pgno(), a);

  moved.Release();
  EXPECT_EQ(cache.dirty_count(), 1u);

  // Reusing the moved-from guard for a clean pin must stay clean.
  ASSERT_TRUE(cache.FlushAll().ok());
  ASSERT_TRUE(cache.FetchPage(a, &pa).ok());
  source = PageGuard(&cache, a, pa);
  source.Release();
  EXPECT_EQ(cache.dirty_count(), 0u);
}

TEST_F(BufferCacheTest, AllPinnedFetchMissReportsBusy) {
  // The NewPage sibling of AllPinnedReportsBusy: a FETCH miss with no
  // evictable frame must surface a clean Busy, not crash or spin.
  BufferCache cache(disk_.get(), 2);
  PageId a = Alloc(&cache, 1);
  PageId b = Alloc(&cache, 2);
  PageId c = Alloc(&cache, 3);
  ASSERT_TRUE(cache.FlushAll().ok());
  ASSERT_TRUE(cache.DropAll().ok());

  Page* pa = nullptr;
  Page* pb = nullptr;
  ASSERT_TRUE(cache.FetchPage(a, &pa).ok());
  ASSERT_TRUE(cache.FetchPage(b, &pb).ok());
  Page* pc = nullptr;
  Status s = cache.FetchPage(c, &pc);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kBusy);

  // Releasing a pin makes the same fetch succeed.
  cache.Unpin(a, false);
  ASSERT_TRUE(cache.FetchPage(c, &pc).ok());
  EXPECT_EQ(DecodeFixed32(pc->data() + Page::kHeaderSize), 3u);
  cache.Unpin(c, false);
  cache.Unpin(b, false);
}

TEST_F(BufferCacheTest, ShardCountRoundsDownToPowerOfTwoAndClamps) {
  EXPECT_EQ(BufferCache(disk_.get(), 16).shards(), 1u);     // default
  EXPECT_EQ(BufferCache(disk_.get(), 16, 4).shards(), 4u);
  EXPECT_EQ(BufferCache(disk_.get(), 16, 6).shards(), 4u);  // round down
  EXPECT_EQ(BufferCache(disk_.get(), 4, 64).shards(), 4u);  // clamp to cap
  EXPECT_EQ(BufferCache(disk_.get(), 16, 0).shards(), 1u);  // at least one
}

TEST_F(BufferCacheTest, ShardedCacheRoundTripAndPerShardMetrics) {
  BufferCache cache(disk_.get(), 16, 4);
  std::vector<PageId> pages;
  for (uint32_t i = 0; i < 12; ++i) pages.push_back(Alloc(&cache, 100 + i));
  ASSERT_TRUE(cache.FlushAll().ok());
  ASSERT_TRUE(cache.DropAll().ok());

  uint64_t misses_before = cache.misses();
  for (uint32_t i = 0; i < 12; ++i) {
    EXPECT_EQ(ReadStamp(&cache, pages[i]), 100 + i);  // misses
  }
  uint64_t hits_before = cache.hits();
  for (uint32_t i = 0; i < 12; ++i) {
    EXPECT_EQ(ReadStamp(&cache, pages[i]), 100 + i);  // hits
  }
  // The instance aggregates match the sum of the per-shard registry
  // counters the exporters publish.
  EXPECT_GE(cache.misses() - misses_before, 12u);
  EXPECT_GE(cache.hits() - hits_before, 12u);
  auto& reg = obs::MetricsRegistry::Global();
  uint64_t shard_hits = 0;
  for (int s = 0; s < 4; ++s) {
    shard_hits += reg.GetCounter("storage.cache.shard" + std::to_string(s) +
                                 ".hits")->Value();
  }
  EXPECT_GE(shard_hits, cache.hits());
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("storage.cache.shard0.hits"), std::string::npos);
  EXPECT_NE(json.find("storage.cache.latch_wait_us"), std::string::npos);
}

TEST_F(BufferCacheTest, ConcurrentFetchUnpinEvictStress) {
  // Readers and a writer hammer a cache smaller than the page set, forcing
  // concurrent miss/evict/latch traffic across shards. Each page carries
  // the same stamp in two words; the writer bumps both under an exclusive
  // latch, so any reader observing a mismatch under its shared latch saw a
  // torn write. Run under TSan in CI.
  BufferCache cache(disk_.get(), 8, 4);
  constexpr uint32_t kPages = 32;
  std::vector<PageId> pages;
  for (uint32_t i = 0; i < kPages; ++i) {
    Page* page = nullptr;
    auto r = cache.NewPage(&page);
    ASSERT_TRUE(r.ok());
    page->Format(r.value(), PageType::kBtreeLeaf, 0, 0);
    EncodeFixed32(page->data() + Page::kHeaderSize, 0);
    EncodeFixed32(page->data() + Page::kHeaderSize + 4, 0);
    cache.Unpin(r.value(), /*dirty=*/true);
    pages.push_back(r.value());
  }
  ASSERT_TRUE(cache.FlushAll().ok());

  const char* env = std::getenv("COMPLYDB_READ_THREADS");
  const int kReaders = env != nullptr ? std::max(1, std::atoi(env)) : 2;
  constexpr int kIters = 2000;
  std::atomic<bool> torn{false};
  std::atomic<uint64_t> reads_ok{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t state = 0x9E3779B97F4A7C15ull * (t + 1);
      for (int i = 0; i < kIters; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        PageId pgno = pages[(state >> 33) % kPages];
        Page* page = nullptr;
        Status s = cache.FetchPage(pgno, &page, PageLatchMode::kShared);
        if (!s.ok()) continue;  // all frames pinned in this shard: retry
        uint32_t w0 = DecodeFixed32(page->data() + Page::kHeaderSize);
        uint32_t w1 = DecodeFixed32(page->data() + Page::kHeaderSize + 4);
        if (w0 != w1) torn.store(true, std::memory_order_relaxed);
        cache.Unpin(pgno, false, PageLatchMode::kShared);
        reads_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  uint64_t writes_ok = 0;
  for (int i = 0; i < kIters; ++i) {
    PageId pgno = pages[static_cast<uint32_t>(i) % kPages];
    Page* page = nullptr;
    Status s = cache.FetchPage(pgno, &page, PageLatchMode::kExclusive);
    if (!s.ok()) continue;
    uint32_t v = DecodeFixed32(page->data() + Page::kHeaderSize) + 1;
    EncodeFixed32(page->data() + Page::kHeaderSize, v);
    EncodeFixed32(page->data() + Page::kHeaderSize + 4, v);
    cache.Unpin(pgno, true, PageLatchMode::kExclusive);
    ++writes_ok;
  }
  for (auto& th : readers) th.join();

  EXPECT_FALSE(torn.load());
  EXPECT_GT(reads_ok.load(), 0u);
  EXPECT_GT(writes_ok, 0u);
  // The cache is still coherent: every page readable, words consistent.
  for (PageId pgno : pages) {
    Page* page = nullptr;
    ASSERT_TRUE(cache.FetchPage(pgno, &page, PageLatchMode::kShared).ok());
    EXPECT_EQ(DecodeFixed32(page->data() + Page::kHeaderSize),
              DecodeFixed32(page->data() + Page::kHeaderSize + 4));
    cache.Unpin(pgno, false, PageLatchMode::kShared);
  }
  ASSERT_TRUE(cache.FlushAll().ok());
  EXPECT_EQ(cache.dirty_count(), 0u);
}

}  // namespace
}  // namespace complydb

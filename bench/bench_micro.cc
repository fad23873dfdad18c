// Micro-benchmarks for the primitives every compliance operation sits on:
// hashing, the incremental set hash, page record operations.

#include <benchmark/benchmark.h>

#include <string>

#include <filesystem>
#include <memory>

#include "bench_util.h"
#include "btree/btree.h"
#include "common/coding.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "crypto/add_hash.h"
#include "crypto/seq_hash.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"
#include "storage/buffer_cache.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace complydb {
namespace {

void BM_Sha256(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(512)->Arg(4096)->Arg(65536);

// Single-buffer throughput per pinned implementation. kAvx2 has no
// single-buffer kernel (it falls back to scalar), so the per-impl cases
// are scalar vs SHA-NI; the AVX2 lanes show up in the batch cases below.
void Sha256ImplBench(benchmark::State& state, Sha256Impl impl) {
  if (!Sha256ForceImpl(impl).ok()) {
    state.SkipWithError("implementation not supported on this CPU");
    return;
  }
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  (void)Sha256ForceImpl(Sha256Impl::kAuto);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(Sha256ImplBench, scalar, Sha256Impl::kScalar)
    ->Arg(64)
    ->Arg(8192);
BENCHMARK_CAPTURE(Sha256ImplBench, shani, Sha256Impl::kShaNi)
    ->Arg(64)
    ->Arg(8192);

// Batch of 8 equal-length buffers — the shape Sha256BatchHash vectorizes
// across AVX2 lanes (and loops through SHA-NI / scalar otherwise).
void Sha256BatchBench(benchmark::State& state, Sha256Impl impl) {
  if (!Sha256ForceImpl(impl).ok()) {
    state.SkipWithError("implementation not supported on this CPU");
    return;
  }
  constexpr size_t kLanes = 8;
  std::vector<std::string> bufs(
      kLanes, std::string(static_cast<size_t>(state.range(0)), 'x'));
  std::vector<Slice> slices;
  for (const auto& b : bufs) slices.emplace_back(b);
  std::vector<Sha256Digest> out(kLanes);
  for (auto _ : state) {
    Sha256BatchHash(slices.data(), kLanes, out.data());
    benchmark::DoNotOptimize(out);
  }
  (void)Sha256ForceImpl(Sha256Impl::kAuto);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kLanes *
                          state.range(0));
}
BENCHMARK_CAPTURE(Sha256BatchBench, scalar, Sha256Impl::kScalar)
    ->Arg(64)
    ->Arg(8192);
BENCHMARK_CAPTURE(Sha256BatchBench, shani, Sha256Impl::kShaNi)
    ->Arg(64)
    ->Arg(8192);
BENCHMARK_CAPTURE(Sha256BatchBench, avx2, Sha256Impl::kAvx2)
    ->Arg(64)
    ->Arg(8192);

void BM_Sha512(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(512)->Arg(4096);

void BM_AddHashFold(benchmark::State& state) {
  Random rng(7);
  std::vector<std::string> tuples;
  for (int i = 0; i < 1024; ++i) tuples.push_back(rng.Bytes(100));
  for (auto _ : state) {
    AddHash h;
    for (const auto& t : tuples) h.Add(t);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_AddHashFold);

void BM_SeqHashPage(benchmark::State& state) {
  // Hs over a typical page's worth of tuples.
  Random rng(7);
  std::vector<std::string> tuples;
  for (int i = 0; i < 36; ++i) tuples.push_back(rng.Bytes(100));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SeqHash::ComputeOwned(tuples));
  }
}
BENCHMARK(BM_SeqHashPage);

void BM_PageInsertErase(benchmark::State& state) {
  Random rng(7);
  std::string body = rng.Bytes(90);
  std::string rec;
  PutFixed16(&rec, static_cast<uint16_t>(2 + body.size()));
  rec += body;
  for (auto _ : state) {
    Page p;
    p.Format(1, PageType::kBtreeLeaf, 0, 0);
    while (p.AppendRecord(rec).ok()) {
    }
    while (p.slot_count() > 0) {
      (void)p.EraseRecord(0);
    }
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PageInsertErase);

void BM_BtreeInsert(benchmark::State& state) {
  std::string path = "/tmp/complydb_bench_micro_btree.db";
  Random rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove(path);
    auto d = DiskManager::Open(path);
    std::unique_ptr<DiskManager> disk(d.value());
    BufferCache cache(disk.get(), 256);
    auto root = Btree::Create(&cache, 1);
    BtreeEnv env;
    env.cache = &cache;
    Btree tree(env, 1, root.value());
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      TupleData t;
      t.key = "key" + std::to_string(rng.Next() % 100000);
      t.value = "value-payload-of-reasonable-size";
      t.start = static_cast<uint64_t>(i + 1);
      t.stamped = true;
      benchmark::DoNotOptimize(tree.InsertVersion(nullptr, t, nullptr, nullptr));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_BtreeInsert);

void BM_BtreeGetLatest(benchmark::State& state) {
  std::string path = "/tmp/complydb_bench_micro_btree_get.db";
  std::filesystem::remove(path);
  auto d = DiskManager::Open(path);
  std::unique_ptr<DiskManager> disk(d.value());
  BufferCache cache(disk.get(), 512);
  auto root = Btree::Create(&cache, 1);
  BtreeEnv env;
  env.cache = &cache;
  Btree tree(env, 1, root.value());
  for (int i = 0; i < 5000; ++i) {
    TupleData t;
    t.key = "key" + std::to_string(i);
    t.value = "value-payload";
    t.start = static_cast<uint64_t>(i + 1);
    t.stamped = true;
    (void)tree.InsertVersion(nullptr, t, nullptr, nullptr);
  }
  Random rng(11);
  for (auto _ : state) {
    TupleData out;
    std::string key = "key" + std::to_string(rng.Uniform(5000));
    benchmark::DoNotOptimize(tree.GetLatest(key, &out));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BtreeGetLatest);

void BM_TupleEncodeDecode(benchmark::State& state) {
  Random rng(3);
  TupleData t;
  t.key = rng.Bytes(16);
  t.value = rng.Bytes(100);
  t.start = 123456789;
  t.stamped = true;
  for (auto _ : state) {
    std::string rec = EncodeTuple(t);
    TupleData back;
    benchmark::DoNotOptimize(DecodeTuple(rec, &back));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TupleEncodeDecode);

// --- observability layer overhead (ISSUE: < 3% vs compiled-out) ---------

void BM_ObsCounterInc(benchmark::State& state) {
  obs::Counter* c = obs::MetricsRegistry::Global().GetCounter("bench.counter");
  for (auto _ : state) {
    c->Inc();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("bench.histogram_us");
  uint64_t v = 0;
  for (auto _ : state) {
    h->Record(v++ & 0xFFFF);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_ObsScopedLatencyTimer(benchmark::State& state) {
  obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("bench.scoped_us");
  for (auto _ : state) {
    obs::ScopedLatencyTimer timer(h);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsScopedLatencyTimer);

void BM_ObsScopedLatencyTimerSamplingOff(benchmark::State& state) {
  obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("bench.scoped_off_us");
  obs::SetSampling(false);
  for (auto _ : state) {
    obs::ScopedLatencyTimer timer(h);
    benchmark::ClobberMemory();
  }
  obs::SetSampling(true);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsScopedLatencyTimerSamplingOff);

// One ScopedSpan open/close (two clock reads and a ring emit) with the
// span ring on (arg 1) and off (arg 0); off is the hot-path cost left at
// every span site when spans are disabled.
void BM_ObsSpanEmit(benchmark::State& state) {
  auto& ring = obs::SpanRing::Global();
  ring.SetEnabled(state.range(0) != 0);
  uint64_t i = 0;
  for (auto _ : state) {
    obs::ScopedSpan span(obs::SpanKind::kWalFsync, i++, 42);
    benchmark::ClobberMemory();
  }
  ring.SetEnabled(true);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsSpanEmit)->Arg(1)->Arg(0);

}  // namespace
}  // namespace complydb

int main(int argc, char** argv) {
  std::string metrics_path = complydb::bench::StripMetricsJsonFlag(
      &argc, argv, "micro");
  complydb::bench::Timer run_timer;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  complydb::Status ms = complydb::bench::WriteMetricsJson(
      metrics_path, "micro", run_timer.Seconds());
  if (!ms.ok()) {
    std::fprintf(stderr, "%s\n", ms.ToString().c_str());
    return 1;
  }
  return 0;
}

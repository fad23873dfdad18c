// Figure 3 (a)(b)(c): TPC-C total run time as a function of the number of
// transactions, for native vs log-consistent vs log-consistent +
// hash-page-on-read, under three cache/database-size regimes.
//
// Paper shapes to reproduce: log-consistent ≈ +10%, +hash-on-read ≈ +20%
// in the disk-resident configs; the memory-resident config (c) shows the
// largest relative overhead past the knee, bounded around ~30%.
//
//   ./bench_fig3_runtime [total_txns] [step]
//
// With --commit-path the binary instead runs the commit-latency A/B sweep:
// the same NewOrder stream against synchronous compliance shipping (one
// WORM fflush per hook) and asynchronous group-commit shipping, and
// writes BENCH_commit_path.json with both db.commit_us histograms. The
// sync block is the stored baseline (bench/baselines/
// BENCH_commit_path.sync-seed.json).
//
//   ./bench_fig3_runtime --commit-path [txns]
//
// With --read-threads the binary runs the concurrent read-path sweep: the
// TPC-C writer keeps committing on the main thread while K = 1, 2, 4
// reader threads execute read-only OrderStatus/StockLevel over snapshot
// handles. Aggregate read throughput per K lands in
// BENCH_read_scaling.json (baseline: bench/baselines/
// BENCH_read_scaling.seed.json).
//
//   ./bench_fig3_runtime --read-threads [window_ms]
//
// With --write-threads the binary runs the multi-writer commit-pipeline
// sweep: the same full-mix slot schedule (RunMixConcurrent, pure function
// of the seed) executed by N = 1, 2, 4 writer threads against the
// simulated network WORM filer, each multi-writer point A/B'd with the
// disjoint-slot scheduler on ("disjoint") and off ("turnstile").
// --cross-rate sets the cross-warehouse rate in basis points (-1 keeps
// the TPC-C spec rates): higher rates mean more multi-partition
// footprints, which fall back to exclusive admission and shrink the
// disjoint gain. Throughput scales while the compliance log stays
// byte-identical across *all* runs — the sweep verifies both and writes
// BENCH_write_scaling.json (baseline: bench/baselines/
// BENCH_write_scaling.seed.json).
//
//   ./bench_fig3_runtime --write-threads [slots] [--cross-rate bp]

#include <atomic>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "compliance/compliance_log.h"
#include "obs/trace_export.h"

using namespace complydb;
using namespace complydb::bench;

namespace {

struct Config {
  const char* label;
  uint32_t warehouses;
  size_t cache_pages;
  uint64_t io_latency_micros;  // models the paper's NFS storage server
};

int RunConfig(const Config& config, uint64_t total, uint64_t step) {
  std::printf("\n=== Fig 3 config: %s (warehouses=%u, cache=%zu pages) ===\n",
              config.label, config.warehouses, config.cache_pages);
  std::printf("%10s %14s %18s %26s %9s %9s\n", "txns", "native_s",
              "log_consistent_s", "log_consistent+hashread_s", "ovh_lc%",
              "ovh_hr%");

  tpcc::Scale scale;
  scale.warehouses = config.warehouses;

  std::vector<std::vector<double>> series;  // per mode: cumulative seconds
  for (Mode mode : {Mode::kNative, Mode::kLogConsistent,
                    Mode::kLogConsistentHashOnRead}) {
    auto env = TpccEnv::Create(BenchDir("fig3"), mode, config.cache_pages,
                               scale, /*seed=*/1234, /*tsb=*/false,
                               /*tsb_threshold=*/0.5,
                               config.io_latency_micros);
    if (!env.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   env.status().ToString().c_str());
      return 1;
    }
    std::vector<double> cumulative;
    Timer timer;
    for (uint64_t done = 0; done < total; done += step) {
      Status s = env.value().RunTxns(step);
      if (!s.ok()) {
        std::fprintf(stderr, "run failed: %s\n", s.ToString().c_str());
        return 1;
      }
      cumulative.push_back(timer.Seconds());
    }
    series.push_back(std::move(cumulative));
  }

  for (size_t i = 0; i < series[0].size(); ++i) {
    double native = series[0][i];
    double lc = series[1][i];
    double hr = series[2][i];
    std::printf("%10llu %14.3f %18.3f %26.3f %8.1f%% %8.1f%%\n",
                static_cast<unsigned long long>((i + 1) *
                                                static_cast<size_t>(step)),
                native, lc, hr, 100.0 * (lc - native) / native,
                100.0 * (hr - native) / native);
  }
  return 0;
}

struct CommitPathResult {
  double elapsed_seconds = 0;
  uint64_t commits = 0;
  uint64_t sum_us = 0;
  uint64_t max_us = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  uint64_t worm_flushes = 0;
  // Critical-path decomposition (db.commit_critical_path.*), summed over
  // all commits. foreground is defined as the residual, so the four
  // segments sum to the commit *span* duration by construction; the gap
  // vs sum_us (the db.commit_us timer) is the timer-vs-span window skew.
  uint64_t seg_foreground_us = 0;
  uint64_t seg_queued_us = 0;
  uint64_t seg_drain_us = 0;
  uint64_t seg_worm_us = 0;

  uint64_t SegmentsSum() const {
    return seg_foreground_us + seg_queued_us + seg_drain_us + seg_worm_us;
  }
  double SegmentsErrPct() const {
    if (sum_us == 0) return 0;
    double diff = static_cast<double>(SegmentsSum()) -
                  static_cast<double>(sum_us);
    return 100.0 * diff / static_cast<double>(sum_us);
  }
};

int RunCommitPath(bool async, uint64_t txns, CommitPathResult* out) {
  tpcc::Scale scale;
  scale.warehouses = 1;
  // Hash-page-on-read (§V): every cache-miss read appends a READ_HASH
  // record. Sync shipping pays one WORM fflush per record; async shipping
  // defers them to the next barrier, so the A/B isolates exactly the
  // flush traffic group commit removes. The 100 us flush latency models
  // the round trip to the paper's network WORM filer (same class of cost
  // as the 120 us page-I/O latency in the Fig. 3 configs); on local
  // storage an fflush is nearly free and there is nothing for group
  // commit to amortize.
  auto env = TpccEnv::Create(BenchDir("commit_path"),
                             Mode::kLogConsistentHashOnRead,
                             /*cache_pages=*/192, scale, /*seed=*/1234,
                             /*tsb=*/false, /*tsb_threshold=*/0.5,
                             /*io_latency_micros=*/0, async,
                             /*worm_flush_latency_micros=*/100);
  if (!env.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 env.status().ToString().c_str());
    return 1;
  }
  if (!env.value().Warmup(200).ok()) return 1;

  // NewOrder-only: the heaviest writer of the mix, so its commit path
  // (WAL flush + compliance STAMP + WORM flush) dominates the histogram.
  Timer timer;
  uint64_t per_txn = 5 * kMinute / 500;
  for (uint64_t i = 0; i < txns; ++i) {
    bool committed = false;
    Status s = env.value().workload->NewOrder(&committed);
    if (!s.ok()) {
      std::fprintf(stderr, "NewOrder failed: %s\n", s.ToString().c_str());
      return 1;
    }
    env.value().clock->AdvanceMicros(per_txn);
  }
  out->elapsed_seconds = timer.Seconds();

  auto snapshot = obs::MetricsRegistry::Global().TakeSnapshot();
  for (const auto& h : snapshot.histograms) {
    if (h.name == "db.commit_us") {
      out->commits = h.count;
      out->sum_us = h.sum_us;
      out->max_us = h.max_us;
      out->p50 = h.p50;
      out->p95 = h.p95;
      out->p99 = h.p99;
    } else if (h.name == "db.commit_critical_path.foreground_us") {
      out->seg_foreground_us = h.sum_us;
    } else if (h.name == "db.commit_critical_path.queued_us") {
      out->seg_queued_us = h.sum_us;
    } else if (h.name == "db.commit_critical_path.drain_us") {
      out->seg_drain_us = h.sum_us;
    } else if (h.name == "db.commit_critical_path.worm_us") {
      out->seg_worm_us = h.sum_us;
    }
  }
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "worm.flushes") out->worm_flushes = value;
  }
  if (::getenv("COMMIT_PATH_DEBUG") != nullptr) {
    for (const auto& h : snapshot.histograms) {
      if (h.count == 0) continue;
      std::printf("  [hist] %-32s n=%-7llu p50=%-9.1f p95=%-9.1f p99=%-10.1f max=%llu\n",
                  h.name.c_str(), (unsigned long long)h.count, h.p50, h.p95,
                  h.p99, (unsigned long long)h.max_us);
    }
    for (const auto& [name, value] : snapshot.counters) {
      if (value > 0) std::printf("  [ctr] %-33s %llu\n", name.c_str(),
                                 (unsigned long long)value);
    }
  }
  return 0;
}

std::string CommitPathJson(const char* label, const CommitPathResult& r) {
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"elapsed_seconds\":%.6f,\"commits\":%llu,"
                "\"sum_us\":%llu,\"max_us\":%llu,\"p50_us\":%.1f,"
                "\"p95_us\":%.1f,\"p99_us\":%.1f,\"worm_flushes\":%llu,"
                "\"segments\":{\"foreground_us\":%llu,\"queued_us\":%llu,"
                "\"drain_us\":%llu,\"worm_us\":%llu,\"sum_us\":%llu,"
                "\"vs_commit_us_err_pct\":%.2f}}",
                label, r.elapsed_seconds,
                static_cast<unsigned long long>(r.commits),
                static_cast<unsigned long long>(r.sum_us),
                static_cast<unsigned long long>(r.max_us), r.p50, r.p95,
                r.p99, static_cast<unsigned long long>(r.worm_flushes),
                static_cast<unsigned long long>(r.seg_foreground_us),
                static_cast<unsigned long long>(r.seg_queued_us),
                static_cast<unsigned long long>(r.seg_drain_us),
                static_cast<unsigned long long>(r.seg_worm_us),
                static_cast<unsigned long long>(r.SegmentsSum()),
                r.SegmentsErrPct());
  return buf;
}

void PrintSegments(const char* label, const CommitPathResult& r) {
  std::printf("%8s %14llu %12llu %12llu %12llu %14llu %9.2f%%\n", label,
              static_cast<unsigned long long>(r.seg_foreground_us),
              static_cast<unsigned long long>(r.seg_queued_us),
              static_cast<unsigned long long>(r.seg_drain_us),
              static_cast<unsigned long long>(r.seg_worm_us),
              static_cast<unsigned long long>(r.SegmentsSum()),
              r.SegmentsErrPct());
}

int RunCommitPathSweep(uint64_t txns, const std::string& trace_path) {
  // The env override would force async for both arms of the A/B.
  ::unsetenv("COMPLYDB_COMPLIANCE_ASYNC");
  std::printf("=== commit path: sync vs async shipping (%llu NewOrder) ===\n",
              static_cast<unsigned long long>(txns));

  CommitPathResult sync_r, async_r;
  if (RunCommitPath(/*async=*/false, txns, &sync_r) != 0) return 1;
  if (RunCommitPath(/*async=*/true, txns, &async_r) != 0) return 1;

  // The async arm ran last, so the span ring still holds its measured
  // region (Warmup resets it before each arm). Export it before anything
  // else touches the ring.
  if (!trace_path.empty()) {
    Status ts = obs::WriteChromeTraceFile(trace_path);
    if (!ts.ok()) {
      std::fprintf(stderr, "%s\n", ts.ToString().c_str());
      return 1;
    }
    std::printf("trace artifact: %s (async arm, chrome://tracing)\n",
                trace_path.c_str());
  }

  std::printf("%8s %10s %10s %10s %10s %12s\n", "mode", "p50_us", "p95_us",
              "p99_us", "max_us", "worm_flushes");
  std::printf("%8s %10.1f %10.1f %10.1f %10llu %12llu\n", "sync", sync_r.p50,
              sync_r.p95, sync_r.p99,
              static_cast<unsigned long long>(sync_r.max_us),
              static_cast<unsigned long long>(sync_r.worm_flushes));
  std::printf("%8s %10.1f %10.1f %10.1f %10llu %12llu\n", "async",
              async_r.p50, async_r.p95, async_r.p99,
              static_cast<unsigned long long>(async_r.max_us),
              static_cast<unsigned long long>(async_r.worm_flushes));
  double p95_improvement =
      sync_r.p95 > 0 ? 100.0 * (sync_r.p95 - async_r.p95) / sync_r.p95 : 0;
  std::printf("p95 improvement: %.1f%%\n", p95_improvement);

  std::printf("\ncritical-path decomposition (sum over commits, micros):\n");
  std::printf("%8s %14s %12s %12s %12s %14s %10s\n", "mode", "foreground",
              "queued", "drain", "worm_flush", "segments_sum", "vs_total");
  PrintSegments("sync", sync_r);
  PrintSegments("async", async_r);

  std::string json = "{\"bench\":\"commit_path\",\"txns\":" +
                     std::to_string(txns) + "," +
                     CommitPathJson("sync", sync_r) + "," +
                     CommitPathJson("async", async_r) +
                     ",\"p95_improvement_pct\":" +
                     std::to_string(p95_improvement) + "}\n";
  std::FILE* f = std::fopen("BENCH_commit_path.json", "w");
  if (f == nullptr) return 1;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("metrics artifact: BENCH_commit_path.json\n");
  return 0;
}

struct ReadScalingResult {
  uint32_t read_threads = 0;
  uint64_t reads = 0;
  double elapsed_seconds = 0;
  double reads_per_sec = 0;
  uint64_t writer_txns = 0;
  uint64_t latch_waits = 0;
};

int RunReadScalingPoint(uint32_t readers, uint64_t window_ms,
                        ReadScalingResult* out) {
  tpcc::Scale scale;
  scale.warehouses = 2;
  // The Fig. 3 disk-resident regime: the database outgrows the cache, so
  // most reads miss and pay the simulated 150 us storage round trip. The
  // sharded cache is what lets K readers keep K of those round trips in
  // flight at once — that overlap, not CPU parallelism, is the speedup
  // being measured (CI machines may have a single core).
  auto env = TpccEnv::Create(BenchDir("read_scaling"), Mode::kLogConsistent,
                             /*cache_pages=*/160, scale, /*seed=*/1234,
                             /*tsb=*/false, /*tsb_threshold=*/0.5,
                             /*io_latency_micros=*/150);
  if (!env.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 env.status().ToString().c_str());
    return 1;
  }
  if (!env.value().Warmup(200).ok()) return 1;

  CompliantDB* db = env.value().db.get();
  tpcc::Workload* workload = env.value().workload.get();
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> total_reads{0};

  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (uint32_t t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      tpcc::TpccRandom rng(4321 + t);  // per-thread rng: Workload's is not
                                       // thread-safe
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = db->BeginSnapshot();
        if (!snap.ok()) {
          failed.store(true);
          break;
        }
        std::unique_ptr<SnapshotReader> reader(snap.value());
        Status s = (local % 2 == 0) ? workload->OrderStatusRO(*reader, &rng)
                                    : workload->StockLevelRO(*reader, &rng);
        if (!s.ok()) {
          std::fprintf(stderr, "reader %u failed: %s\n", t,
                       s.ToString().c_str());
          failed.store(true);
          break;
        }
        ++local;
      }
      total_reads.fetch_add(local, std::memory_order_relaxed);
    });
  }

  // The single writer keeps the standard mix running underneath the
  // readers for the whole window.
  Timer timer;
  uint64_t writer_txns = 0;
  uint64_t per_txn = 5 * kMinute / 500;
  tpcc::MixStats stats;
  while (timer.Seconds() * 1000 < static_cast<double>(window_ms) &&
         !failed.load(std::memory_order_relaxed)) {
    Status s = workload->RunMix(1, &stats);
    if (!s.ok()) {
      std::fprintf(stderr, "writer failed: %s\n", s.ToString().c_str());
      failed.store(true);
      break;
    }
    env.value().clock->AdvanceMicros(per_txn);
    ++writer_txns;
  }
  stop.store(true);
  for (auto& th : threads) th.join();
  if (failed.load()) return 1;

  out->read_threads = readers;
  out->reads = total_reads.load();
  out->elapsed_seconds = timer.Seconds();
  out->reads_per_sec = out->reads / out->elapsed_seconds;
  out->writer_txns = writer_txns;
  auto snapshot = obs::MetricsRegistry::Global().TakeSnapshot();
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "storage.cache.latch_waits") out->latch_waits = value;
  }
  return 0;
}

int RunReadScalingSweep(uint64_t window_ms) {
  std::printf("=== read scaling: K snapshot readers + 1 writer "
              "(%llu ms window) ===\n",
              static_cast<unsigned long long>(window_ms));
  std::printf("%12s %10s %12s %14s %12s %12s\n", "read_threads", "reads",
              "reads_per_s", "writer_txns", "latch_waits", "speedup");

  std::vector<ReadScalingResult> sweep;
  for (uint32_t k : {1u, 2u, 4u}) {
    ReadScalingResult r;
    if (RunReadScalingPoint(k, window_ms, &r) != 0) return 1;
    double speedup =
        sweep.empty() ? 1.0 : r.reads_per_sec / sweep.front().reads_per_sec;
    std::printf("%12u %10llu %12.1f %14llu %12llu %11.2fx\n", r.read_threads,
                static_cast<unsigned long long>(r.reads), r.reads_per_sec,
                static_cast<unsigned long long>(r.writer_txns),
                static_cast<unsigned long long>(r.latch_waits), speedup);
    sweep.push_back(r);
  }

  double speedup_4v1 = sweep.back().reads_per_sec / sweep.front().reads_per_sec;
  std::printf("aggregate read throughput at 4 threads: %.2fx of 1 thread\n",
              speedup_4v1);

  std::string json = "{\"bench\":\"read_scaling\",\"window_ms\":" +
                     std::to_string(window_ms) +
                     ",\"warehouses\":2,\"cache_pages\":160,"
                     "\"io_latency_micros\":150,\"sweep\":[";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const ReadScalingResult& r = sweep[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"read_threads\":%u,\"reads\":%llu,"
                  "\"reads_per_sec\":%.1f,\"writer_txns\":%llu,"
                  "\"latch_waits\":%llu}",
                  i == 0 ? "" : ",", r.read_threads,
                  static_cast<unsigned long long>(r.reads), r.reads_per_sec,
                  static_cast<unsigned long long>(r.writer_txns),
                  static_cast<unsigned long long>(r.latch_waits));
    json += buf;
  }
  json += "],\"speedup_4v1\":" + std::to_string(speedup_4v1) + "}\n";
  std::FILE* f = std::fopen("BENCH_read_scaling.json", "w");
  if (f == nullptr) return 1;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("metrics artifact: BENCH_read_scaling.json\n");
  return 0;
}

struct WriteScalingResult {
  uint32_t write_threads = 0;
  const char* mode = "serial";  // serial | turnstile | disjoint
  double elapsed_seconds = 0;
  uint64_t commits = 0;
  double commits_per_sec = 0;
  uint64_t epochs = 0;
  double sequence_p95_us = 0;
  double epoch_flush_p95_us = 0;
  uint64_t latch_acquires = 0;
  uint64_t latch_waits = 0;
  uint64_t worm_flushes = 0;
  uint64_t rollbacks = 0;
  uint64_t admitted_concurrent = 0;
  uint64_t serialized = 0;
  uint64_t footprint_fallbacks = 0;
  uint64_t conflict_waits = 0;
  size_t log_bytes = 0;
  bool log_identical = true;
  bool audit_ok = false;
  std::string log_content;  // compared across points, not serialized
};

int RunWriteScalingPoint(uint32_t write_threads, bool scheduler_on,
                         uint64_t slots, int64_t cross_bp,
                         WriteScalingResult* out) {
  tpcc::Scale scale;
  scale.warehouses = 8;
  // The disjoint-scheduler regime: eight warehouses give concurrent
  // slots disjoint footprints to declare, the 192-page cache keeps the
  // database disk-resident, and the asymmetric I/O profile (500 us per
  // page *read*, free writes) puts the cost where the scheduler can
  // overlap it — execute-phase reads. Writes replay serially inside the
  // turnstile either way, so pricing them would only add a fixed serial
  // term to every arm. The 0.5 ms WORM flush keeps the epoch barrier the
  // other amortized cost, as in the original pipeline sweep. --cross-rate (basis points of cross-warehouse
  // NewOrder items / remote Payments) dials footprint fallbacks from
  // none (0) to every-slot (10000): fallback slots admit exclusively, so
  // the A/B gain decays toward 1.0 as the rate rises.
  auto env = TpccEnv::Create(
      BenchDir("write_scaling"), Mode::kLogConsistent,
      /*cache_pages=*/192, scale, /*seed=*/1234,
      /*tsb=*/false, /*tsb_threshold=*/0.5,
      /*io_latency_micros=*/0, /*async_shipping=*/true,
      /*worm_flush_latency_micros=*/500, write_threads,
      [scheduler_on](DbOptions* options) {
        options->io_read_latency_micros = 500;
        options->slot_scheduler = scheduler_on;
      });
  if (!env.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 env.status().ToString().c_str());
    return 1;
  }
  if (cross_bp >= 0) {
    env.value().workload->set_cross_rate_bp(static_cast<int>(cross_bp));
  }
  if (!env.value().Warmup(200).ok()) return 1;

  tpcc::MixStats stats;
  uint64_t per_slot = 5 * kMinute / 500;
  Timer timer;
  Status s = env.value().workload->RunMixConcurrent(
      slots, write_threads, env.value().clock.get(), per_slot, &stats);
  out->elapsed_seconds = timer.Seconds();
  if (!s.ok()) {
    std::fprintf(stderr, "mix failed: %s\n", s.ToString().c_str());
    return 1;
  }

  out->write_threads = write_threads;
  out->mode = env.value().db->scheduler_mode();
  out->rollbacks = stats.rollbacks;
  auto snapshot = obs::MetricsRegistry::Global().TakeSnapshot();
  for (const auto& h : snapshot.histograms) {
    if (h.name == "db.commit_us") {
      out->commits = h.count;
    } else if (h.name == "db.commit_critical_path.sequence_us") {
      out->sequence_p95_us = h.p95;
    } else if (h.name == "txn.epoch.flush_us") {
      out->epoch_flush_p95_us = h.p95;
    }
  }
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "txn.epoch.count") out->epochs = value;
    if (name == "txn.partition.latch_acquires") out->latch_acquires = value;
    if (name == "txn.partition.latch_waits") out->latch_waits = value;
    if (name == "worm.flushes") out->worm_flushes = value;
    if (name == "txn.scheduler.admitted_concurrent")
      out->admitted_concurrent = value;
    if (name == "txn.scheduler.serialized") out->serialized = value;
    if (name == "txn.scheduler.footprint_fallbacks")
      out->footprint_fallbacks = value;
    if (name == "txn.scheduler.conflict_waits") out->conflict_waits = value;
  }
  if (::getenv("WRITE_SCALING_DEBUG") != nullptr) {
    for (const auto& [name, value] : snapshot.counters) {
      if (value > 0) std::printf("  [ctr] %-36s %llu\n", name.c_str(),
                                 (unsigned long long)value);
    }
  }
  out->commits_per_sec =
      out->elapsed_seconds > 0 ? out->commits / out->elapsed_seconds : 0;

  // Capture L before the audit supersedes this epoch's files: the
  // byte-identity assertion is the whole point of the sequencer.
  if (!env.value().db->FlushAll().ok()) return 1;
  std::ifstream log_in(BenchDir("write_scaling") + "/worm/" + LogFileName(0),
                       std::ios::binary);
  out->log_content.assign(std::istreambuf_iterator<char>(log_in),
                          std::istreambuf_iterator<char>());
  out->log_bytes = out->log_content.size();

  auto report = env.value().db->Audit();
  out->audit_ok = report.ok() && report.value().ok();
  if (!out->audit_ok) {
    std::fprintf(stderr, "audit failed at write_threads=%u: %s\n",
                 write_threads,
                 report.ok() ? report.value().problems[0].c_str()
                             : report.status().ToString().c_str());
  }
  return 0;
}

int RunWriteScalingSweep(uint64_t slots, int64_t cross_bp) {
  std::printf("=== write scaling: N pipeline writers, full mix "
              "(%llu slots, cross-rate %lld bp) ===\n",
              static_cast<unsigned long long>(slots),
              static_cast<long long>(cross_bp));
  std::printf("%13s %10s %10s %9s %12s %8s %12s %10s %10s %8s %7s %6s\n",
              "write_threads", "mode", "elapsed_s", "commits",
              "commits_per_s", "epochs", "worm_flushes", "concurrent",
              "fallbacks", "L_bytes", "speedup", "gain");

  // Both scheduler arms at each thread count: "turnstile" is PR 6's
  // exclusive admission, "disjoint" adds concurrent execution for
  // disjoint-footprint slots. At one writer there is no pipeline, so the
  // serial point serves as the shared baseline.
  std::vector<WriteScalingResult> sweep;
  bool all_identical = true;
  bool all_audits_ok = true;
  double gain_4t = 0;
  double baseline_cps = 0;
  for (uint32_t n : {1u, 2u, 4u}) {
    double turnstile_cps = 0;
    for (bool scheduler_on : {false, true}) {
      if (n == 1 && !scheduler_on) continue;  // no pipeline to A/B
      WriteScalingResult r;
      if (RunWriteScalingPoint(n, scheduler_on, slots, cross_bp, &r) != 0) {
        return 1;
      }
      if (!sweep.empty()) {
        r.log_identical = r.log_content == sweep.front().log_content;
        all_identical = all_identical && r.log_identical;
      }
      all_audits_ok = all_audits_ok && r.audit_ok;
      if (baseline_cps == 0) baseline_cps = r.commits_per_sec;
      if (!scheduler_on) turnstile_cps = r.commits_per_sec;
      double speedup = r.commits_per_sec / baseline_cps;
      double gain =
          turnstile_cps > 0 && scheduler_on && n > 1
              ? r.commits_per_sec / turnstile_cps
              : 0;
      if (n == 4 && scheduler_on) gain_4t = gain;
      std::printf(
          "%13u %10s %10.3f %9llu %12.1f %8llu %12llu %10llu %10llu %8zu "
          "%6.2fx %5.2fx\n",
          r.write_threads, r.mode, r.elapsed_seconds,
          static_cast<unsigned long long>(r.commits), r.commits_per_sec,
          static_cast<unsigned long long>(r.epochs),
          static_cast<unsigned long long>(r.worm_flushes),
          static_cast<unsigned long long>(r.admitted_concurrent),
          static_cast<unsigned long long>(r.footprint_fallbacks),
          r.log_bytes, speedup, gain);
      sweep.push_back(std::move(r));
    }
  }

  double speedup_4v1 =
      sweep.back().commits_per_sec / sweep.front().commits_per_sec;
  std::printf("commit throughput at 4 writers (disjoint): %.2fx of 1 "
              "writer; %.2fx of 4-writer turnstile\n",
              speedup_4v1, gain_4t);
  std::printf("compliance log byte-identical across all runs: %s\n",
              all_identical ? "yes" : "NO — DIVERGED");

  std::string json = "{\"bench\":\"write_scaling\",\"slots\":" +
                     std::to_string(slots) +
                     ",\"cross_rate_bp\":" + std::to_string(cross_bp) +
                     ",\"warehouses\":8,\"cache_pages\":192,"
                     "\"io_read_latency_micros\":500,"
                     "\"worm_flush_latency_micros\":500,\"sweep\":[";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const WriteScalingResult& r = sweep[i];
    char buf[768];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"write_threads\":%u,\"mode\":\"%s\","
                  "\"elapsed_seconds\":%.6f,"
                  "\"commits\":%llu,\"commits_per_sec\":%.1f,"
                  "\"epochs\":%llu,\"sequence_p95_us\":%.1f,"
                  "\"epoch_flush_p95_us\":%.1f,\"latch_acquires\":%llu,"
                  "\"latch_waits\":%llu,\"worm_flushes\":%llu,"
                  "\"rollbacks\":%llu,\"admitted_concurrent\":%llu,"
                  "\"serialized\":%llu,\"footprint_fallbacks\":%llu,"
                  "\"conflict_waits\":%llu,\"log_bytes\":%zu,"
                  "\"log_identical\":%s,\"audit_ok\":%s}",
                  i == 0 ? "" : ",", r.write_threads, r.mode,
                  r.elapsed_seconds,
                  static_cast<unsigned long long>(r.commits),
                  r.commits_per_sec,
                  static_cast<unsigned long long>(r.epochs),
                  r.sequence_p95_us, r.epoch_flush_p95_us,
                  static_cast<unsigned long long>(r.latch_acquires),
                  static_cast<unsigned long long>(r.latch_waits),
                  static_cast<unsigned long long>(r.worm_flushes),
                  static_cast<unsigned long long>(r.rollbacks),
                  static_cast<unsigned long long>(r.admitted_concurrent),
                  static_cast<unsigned long long>(r.serialized),
                  static_cast<unsigned long long>(r.footprint_fallbacks),
                  static_cast<unsigned long long>(r.conflict_waits),
                  r.log_bytes, r.log_identical ? "true" : "false",
                  r.audit_ok ? "true" : "false");
    json += buf;
  }
  json += "],\"speedup_4v1\":" + std::to_string(speedup_4v1) +
          ",\"gain_4t_disjoint_vs_turnstile\":" + std::to_string(gain_4t) +
          ",\"log_identical_all\":" + (all_identical ? "true" : "false") +
          ",\"audits_ok\":" + (all_audits_ok ? "true" : "false") + "}\n";
  std::FILE* f = std::fopen("BENCH_write_scaling.json", "w");
  if (f == nullptr) return 1;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("metrics artifact: BENCH_write_scaling.json\n");
  return (all_identical && all_audits_ok) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--read-threads") == 0) {
    return RunReadScalingSweep(ArgOr(argc, argv, 2, 1500));
  }
  if (argc > 1 && std::strcmp(argv[1], "--write-threads") == 0) {
    // The env overrides would skew individual sweep points.
    ::unsetenv("COMPLYDB_WRITE_THREADS");
    ::unsetenv("COMPLYDB_COMPLIANCE_ASYNC");
    ::unsetenv("COMPLYDB_SLOT_SCHEDULER");
    int64_t cross_bp = StripInt64Flag(&argc, argv, "--cross-rate", -1);
    return RunWriteScalingSweep(ArgOr(argc, argv, 2, 1500), cross_bp);
  }
  if (argc > 1 && std::strcmp(argv[1], "--commit-path") == 0) {
    std::string trace_path = StripTraceJsonFlag(&argc, argv, "commit_path");
    // 2000 NewOrders grow the database past the 192-page cache, the
    // disk-resident regime where lazy-timestamping reads miss and the
    // sync path pays a WORM round trip per READ_HASH inside commit.
    return RunCommitPathSweep(ArgOr(argc, argv, 2, 2000), trace_path);
  }
  std::string metrics_path = StripMetricsJsonFlag(&argc, argv, "fig3_runtime");
  Timer run_timer;
  uint64_t total = ArgOr(argc, argv, 1, 2000);
  uint64_t step = ArgOr(argc, argv, 2, 500);

  // (a) multi-warehouse, medium cache: the paper's 10 WH / 256 MB point.
  // (b) same DB, large cache (512 MB analogue): smaller overhead.
  // (c) 1 WH, cache >= DB (memory-resident): overhead dominated by the
  //     regret-interval dirty-page flushing.
  // 120 us per page I/O approximates the paper's NFS round trip; config
  // (c) keeps it too — its I/O happens only at regret-interval flushes,
  // which is exactly the effect Fig. 3(c) isolates.
  Config configs[] = {
      {"(a) multi-WH, medium cache", 2, 192, 120},
      {"(b) multi-WH, large cache", 2, 384, 120},
      {"(c) 1 WH, memory resident", 1, 4096, 120},
  };
  for (const Config& config : configs) {
    int rc = RunConfig(config, total, step);
    if (rc != 0) return rc;
  }
  std::printf("\nExpected shape: (b) overhead < (a) overhead; (c) largest "
              "relative slowdown, bounded (~30%% in the paper).\n");
  Status ms = WriteMetricsJson(metrics_path, "fig3_runtime",
                               run_timer.Seconds());
  if (!ms.ok()) {
    std::fprintf(stderr, "%s\n", ms.ToString().c_str());
    return 1;
  }
  return 0;
}

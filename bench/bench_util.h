#ifndef COMPLYDB_BENCH_BENCH_UTIL_H_
#define COMPLYDB_BENCH_BENCH_UTIL_H_

// Shared plumbing for the figure/table reproduction harnesses. Each bench
// binary prints the same rows/series the paper reports (§VII); absolute
// numbers differ from the 2009 testbed, the *shapes* are the deliverable.

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>

#include "db/compliant_db.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "tpcc/workload.h"

namespace complydb {
namespace bench {

inline constexpr uint64_t kMinute = 60ull * 1'000'000;

/// Which compliance configuration a run uses (the three lines of Fig. 3).
enum class Mode { kNative, kLogConsistent, kLogConsistentHashOnRead };

inline const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kNative:
      return "native";
    case Mode::kLogConsistent:
      return "log-consistent";
    case Mode::kLogConsistentHashOnRead:
      return "log-consistent+hash-on-read";
  }
  return "?";
}

struct Timer {
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }
  /// Restarts the timer — call after warm-up iterations so the measured
  /// window excludes cold caches and lazy initialization.
  void Reset() { start = std::chrono::steady_clock::now(); }
};

/// Simulated storage latency, in microseconds (0 = free). The paper's
/// database and its WORM compliance store both sat on network filers;
/// each page read, page write and durable WORM flush models one round
/// trip to them.
struct IoLatency {
  uint64_t read_micros = 0;
  uint64_t write_micros = 0;
  uint64_t worm_flush_micros = 0;
};

/// One TPC-C environment: fresh directory, simulated clock, loaded tables.
struct TpccEnv {
  std::unique_ptr<SimulatedClock> clock;
  std::unique_ptr<CompliantDB> db;
  std::unique_ptr<tpcc::Workload> workload;

  /// `tweak`, when set, runs over the assembled DbOptions right before
  /// Open — the escape hatch for knobs too bench-specific to deserve a
  /// positional parameter (scheduler on/off, ...).
  static Result<TpccEnv> Create(
      const std::string& dir, Mode mode, size_t cache_pages,
      const tpcc::Scale& scale, uint64_t seed, bool tsb = false,
      double tsb_threshold = 0.5, const IoLatency& latency = {},
      bool async_shipping = false, uint32_t write_threads = 1,
      const std::function<void(DbOptions*)>& tweak = nullptr) {
    std::filesystem::remove_all(dir);
    TpccEnv env;
    env.clock = std::make_unique<SimulatedClock>();
    DbOptions options;
    options.dir = dir;
    options.cache_pages = cache_pages;
    options.clock = env.clock.get();
    options.compliance.enabled = mode != Mode::kNative;
    options.compliance.hash_on_read =
        mode == Mode::kLogConsistentHashOnRead;
    options.compliance.regret_interval_micros = 5 * kMinute;
    options.compliance.async_shipping = async_shipping;
    options.tsb_enabled = tsb;
    options.tsb_split_threshold = tsb_threshold;
    options.write_threads = write_threads;
    if (tweak) tweak(&options);

    auto open = CompliantDB::Open(options);
    if (!open.ok()) return open.status();
    env.db.reset(open.value());
    env.db->disk()->set_read_latency_micros(latency.read_micros);
    env.db->disk()->set_write_latency_micros(latency.write_micros);
    env.db->worm()->set_flush_latency_micros(latency.worm_flush_micros);
    env.workload =
        std::make_unique<tpcc::Workload>(env.db.get(), scale, seed);
    CDB_RETURN_IF_ERROR(env.workload->CreateOrAttachTables());
    CDB_RETURN_IF_ERROR(env.workload->Load());
    return env;
  }

  /// Runs `n` mix transactions, advancing simulated time so regret-
  /// interval work (dirty-page forcing, stamping, witnesses) happens at a
  /// realistic cadence (~one interval per 500 transactions).
  Status RunTxns(uint64_t n) {
    tpcc::MixStats stats;
    uint64_t per_txn = 5 * kMinute / 500;
    for (uint64_t i = 0; i < n; ++i) {
      CDB_RETURN_IF_ERROR(workload->RunMix(1, &stats));
      clock->AdvanceMicros(per_txn);
    }
    return Status::OK();
  }

  /// Warm-up: runs `n` mix transactions, then zeroes the process-wide
  /// metrics and the span ring so the measured region starts clean while
  /// the buffer cache and WORM files stay warm.
  Status Warmup(uint64_t n) {
    CDB_RETURN_IF_ERROR(RunTxns(n));
    obs::MetricsRegistry::Global().ResetAll();
    obs::SpanRing::Global().Reset();
    return Status::OK();
  }
};

inline uint64_t ArgOr(int argc, char** argv, int index, uint64_t fallback) {
  if (argc > index) return std::strtoull(argv[index], nullptr, 10);
  return fallback;
}

inline std::string BenchDir(const std::string& name) {
  const char* base = std::getenv("COMPLYDB_BENCH_DIR");
  return std::string(base != nullptr ? base : "/tmp") + "/complydb_bench_" +
         name;
}

/// Strips `--metrics-json[=path]` out of argv *before* positional parsing
/// so ArgOr indices are unaffected. Returns the artifact path (default
/// `BENCH_<name>.json` in the working directory) or "" if the flag is
/// absent.
inline std::string StripMetricsJsonFlag(int* argc, char** argv,
                                        const std::string& name) {
  const std::string kFlag = "--metrics-json";
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    if (arg == kFlag) {
      path = "BENCH_" + name + ".json";
    } else if (arg.rfind(kFlag + "=", 0) == 0) {
      path = arg.substr(kFlag.size() + 1);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

/// Strips `--<flag>=<n>` (or `--<flag> <n>`) out of argv before
/// positional parsing and returns its integer value, or `fallback` when
/// the flag is absent.
inline int64_t StripInt64Flag(int* argc, char** argv,
                              const std::string& flag, int64_t fallback) {
  int64_t value = fallback;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    if (arg == flag && i + 1 < *argc) {
      value = std::strtoll(argv[++i], nullptr, 10);
    } else if (arg.rfind(flag + "=", 0) == 0) {
      value = std::strtoll(arg.c_str() + flag.size() + 1, nullptr, 10);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return value;
}

/// Strips `--trace-json[=path]` (or `--trace-json <path>`) out of argv
/// the same way. Returns the Chrome trace_event artifact path (default
/// `BENCH_<name>_trace.json`) or "" if the flag is absent.
inline std::string StripTraceJsonFlag(int* argc, char** argv,
                                      const std::string& name) {
  const std::string kFlag = "--trace-json";
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    if (arg == kFlag) {
      // A following non-flag, non-numeric token is the path; a bare flag
      // (or one followed by a positional count) keeps the default name.
      path = "BENCH_" + name + "_trace.json";
      if (i + 1 < *argc && argv[i + 1][0] != '-' &&
          !std::isdigit(static_cast<unsigned char>(argv[i + 1][0]))) {
        path = argv[++i];
      }
    } else if (arg.rfind(kFlag + "=", 0) == 0) {
      path = arg.substr(kFlag.size() + 1);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

/// Writes the per-run artifact: bench name, elapsed wall seconds, span
/// ring totals, and the full metrics registry (per-subsystem counters plus
/// p50/p95/p99 latency histograms). No-op when `path` is empty.
inline Status WriteMetricsJson(const std::string& path,
                               const std::string& name,
                               double elapsed_seconds) {
  if (path.empty()) return Status::OK();
  auto& ring = obs::SpanRing::Global();
  std::string json = "{\"bench\":\"" + name +
                     "\",\"elapsed_seconds\":" +
                     std::to_string(elapsed_seconds) +
                     ",\"spans_total\":" + std::to_string(ring.total()) +
                     ",\"spans_dropped\":" +
                     std::to_string(ring.dropped()) + ",\"metrics\":" +
                     obs::MetricsRegistry::Global().ToJson() + "}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("metrics json open " + path);
  size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (n != json.size()) return Status::IOError("metrics json write " + path);
  std::printf("metrics artifact: %s\n", path.c_str());
  return Status::OK();
}

}  // namespace bench
}  // namespace complydb

#endif  // COMPLYDB_BENCH_BENCH_UTIL_H_

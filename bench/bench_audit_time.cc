// §VII(c) audit time: the phases of the audit (previous snapshot, log
// replay, final-state scan, index check) after a TPC-C run, without and
// with hash-page-on-read verification, and the audit-effort reduction
// from WORM migration.
//
// Paper shapes: audit time is a tiny fraction of the run time that
// produced the log; hash-on-read adds a modest extra pass; migration
// removes historic pages from the audited set.
//
//   ./bench_audit_time [txns] [--threads=1,2,4,8]
//   ./bench_audit_time --incremental [steps] [txns-per-step]
//
// The --threads flag sweeps the parallel audit (sharded replay +
// chunked final-state scan) over the given worker counts on one store,
// reporting the speedup of the parallel phases over the serial
// reference. Timings land in the metrics artifact as
// audit_sweep.t<N>.* gauges (microseconds).
//
// The --incremental mode A/Bs the O(delta) incremental certification
// against a full chain replay at each growth step: after every batch of
// transactions it runs AuditIncremental (replays only the new sealed
// epochs) and AuditFullReplay (replays the whole chain from the epoch
// seed). The expected shape is incremental cost staying flat as |L|
// grows while full-replay cost grows linearly. Timings land as
// audit_incremental.step<i>.* gauges in BENCH_audit_incremental.json.

#include <string>
#include <vector>

#include "audit/auditor.h"
#include "bench_util.h"

using namespace complydb;
using namespace complydb::bench;

namespace {

int AuditAfterRun(Mode mode, uint64_t txns, bool tsb) {
  tpcc::Scale scale;
  // 120 us simulated storage latency prices the run like the paper's NFS
  // testbed; the audit pays the same price for its sequential page scan.
  auto env = TpccEnv::Create(BenchDir("audit"), mode, 256, scale,
                             /*seed=*/11, tsb, 0.5, IoLatency{120, 120});
  if (!env.ok()) {
    std::fprintf(stderr, "setup: %s\n", env.status().ToString().c_str());
    return 1;
  }
  Timer run_timer;
  if (!env.value().RunTxns(txns).ok()) return 1;
  double run_seconds = run_timer.Seconds();

  auto report = env.value().db->Audit();
  if (!report.ok()) {
    std::fprintf(stderr, "audit: %s\n", report.status().ToString().c_str());
    return 1;
  }
  const AuditReport& r = report.value();
  std::printf("%-30s %8s %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %8llu %8llu\n",
              ModeName(mode), tsb ? "tsb" : "-", run_seconds,
              r.timings.total_seconds, r.timings.snapshot_seconds,
              r.timings.replay_seconds, r.timings.final_state_seconds,
              r.timings.index_check_seconds,
              static_cast<unsigned long long>(r.pages_checked),
              static_cast<unsigned long long>(r.read_hashes_checked));
  if (!r.ok()) {
    std::fprintf(stderr, "AUDIT FAILED: %s\n", r.problems[0].c_str());
    return 1;
  }
  return 0;
}

// Pulls `--threads=a,b,c` out of argv (before positional parsing) and
// returns the sweep list; default 1,2,4,8.
std::vector<uint32_t> StripThreadsFlag(int* argc, char** argv) {
  std::vector<uint32_t> counts = {1, 2, 4, 8};
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      counts.clear();
      std::string list = arg.substr(10);
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        counts.push_back(static_cast<uint32_t>(
            std::strtoul(list.substr(pos, comma - pos).c_str(), nullptr,
                         10)));
        pos = comma + 1;
      }
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  if (counts.empty()) counts.push_back(1);
  return counts;
}

// Runs one TPC-C store, then audits it repeatedly (no snapshot write, so
// every run covers the identical epoch) at each worker count. The
// speedup column is serial / parallel over replay + final-state — the
// two phases the worker pool shards.
int ThreadSweep(uint64_t txns, const std::vector<uint32_t>& counts) {
  tpcc::Scale scale;
  auto env = TpccEnv::Create(BenchDir("audit_threads"),
                             Mode::kLogConsistentHashOnRead, 256, scale,
                             /*seed=*/11, /*tsb=*/false);
  if (!env.ok()) {
    std::fprintf(stderr, "setup: %s\n", env.status().ToString().c_str());
    return 1;
  }
  CompliantDB* db = env.value().db.get();
  if (!env.value().RunTxns(txns).ok()) return 1;
  if (!db->FlushAll().ok()) return 1;

  AuditOptions opts;
  opts.auditor_key = "auditor-secret-key";
  opts.verify_read_hashes = true;
  opts.identity_hash_check = true;
  opts.wal_path = db->wal_path();

  std::printf("\n=== parallel audit sweep (replay + final-state) ===\n");
  std::printf("%8s %9s %9s %9s %9s %9s\n", "threads", "audit_s", "replay_s",
              "final_s", "index_s", "speedup");
  double serial_work = 0;
  for (uint32_t n : counts) {
    opts.num_threads = n;
    Auditor auditor(opts, db->worm(), db->disk());
    auto report = auditor.Audit(db->epoch(), /*write_snapshot=*/false);
    if (!report.ok()) {
      std::fprintf(stderr, "audit: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    const AuditReport& r = report.value();
    if (!r.ok()) {
      std::fprintf(stderr, "AUDIT FAILED: %s\n", r.problems[0].c_str());
      return 1;
    }
    double work = r.timings.replay_seconds + r.timings.final_state_seconds;
    if (serial_work == 0) serial_work = work;
    std::printf("%8u %9.3f %9.3f %9.3f %9.3f %8.2fx\n", r.threads_used,
                r.timings.total_seconds, r.timings.replay_seconds,
                r.timings.final_state_seconds,
                r.timings.index_check_seconds,
                work > 0 ? serial_work / work : 1.0);

    std::string prefix = "audit_sweep.t" + std::to_string(n) + ".";
    auto& reg = obs::MetricsRegistry::Global();
    reg.GetGauge(prefix + "total_us")
        ->Set(static_cast<int64_t>(r.timings.total_seconds * 1e6));
    reg.GetGauge(prefix + "replay_us")
        ->Set(static_cast<int64_t>(r.timings.replay_seconds * 1e6));
    reg.GetGauge(prefix + "final_us")
        ->Set(static_cast<int64_t>(r.timings.final_state_seconds * 1e6));
    reg.GetGauge(prefix + "index_us")
        ->Set(static_cast<int64_t>(r.timings.index_check_seconds * 1e6));
  }
  return 0;
}

// Grows one store in steps; at each step certifies the new sealed epochs
// incrementally AND replays the whole chain, asserting both verdicts
// agree. The per-step delta is constant, so O(delta) shows up as a flat
// inc_s column while full_s grows with |L|.
int IncrementalSweep(uint64_t steps, uint64_t txns_per_step) {
  tpcc::Scale scale;
  auto env = TpccEnv::Create(BenchDir("audit_incremental"),
                             Mode::kLogConsistentHashOnRead, 256, scale,
                             /*seed=*/11, /*tsb=*/false);
  if (!env.ok()) {
    std::fprintf(stderr, "setup: %s\n", env.status().ToString().c_str());
    return 1;
  }
  CompliantDB* db = env.value().db.get();

  std::printf("\n=== incremental certification vs full replay ===\n");
  std::printf("%5s %12s %12s %10s %9s %9s %9s\n", "step", "log_bytes",
              "delta_bytes", "epochs", "inc_s", "full_s", "full/inc");
  auto& reg = obs::MetricsRegistry::Global();
  for (uint64_t i = 0; i < steps; ++i) {
    if (!env.value().RunTxns(txns_per_step).ok()) return 1;

    Timer inc_timer;
    auto inc = db->AuditIncremental(1);
    double inc_s = inc_timer.Seconds();
    if (!inc.ok()) {
      std::fprintf(stderr, "incremental: %s\n",
                   inc.status().ToString().c_str());
      return 1;
    }
    if (!inc.value().ok()) {
      std::fprintf(stderr, "INCREMENTAL AUDIT FAILED: %s\n",
                   inc.value().problems[0].c_str());
      return 1;
    }

    Timer full_timer;
    auto full = db->AuditFullReplay(1);
    double full_s = full_timer.Seconds();
    if (!full.ok()) {
      std::fprintf(stderr, "full replay: %s\n",
                   full.status().ToString().c_str());
      return 1;
    }
    if (!full.value().ok()) {
      std::fprintf(stderr, "FULL REPLAY FAILED: %s\n",
                   full.value().problems[0].c_str());
      return 1;
    }
    // Verdict equivalence is part of the contract, not just the tests.
    if (full.value().state_digest != inc.value().state_digest ||
        full.value().chain_root != inc.value().chain_root) {
      std::fprintf(stderr, "DIVERGENCE: incremental and full replay "
                           "disagree at step %llu\n",
                   static_cast<unsigned long long>(i));
      return 1;
    }

    auto stats = db->Stats();
    uint64_t log_bytes =
        stats.ok() ? stats.value().compliance_log_bytes : 0;
    std::printf("%5llu %12llu %12llu %10llu %9.4f %9.4f %8.2fx\n",
                static_cast<unsigned long long>(i),
                static_cast<unsigned long long>(log_bytes),
                static_cast<unsigned long long>(inc.value().bytes_replayed),
                static_cast<unsigned long long>(
                    inc.value().epochs_certified),
                inc_s, full_s, inc_s > 0 ? full_s / inc_s : 0.0);

    std::string prefix = "audit_incremental.step" + std::to_string(i) + ".";
    reg.GetGauge(prefix + "log_bytes")->Set(static_cast<int64_t>(log_bytes));
    reg.GetGauge(prefix + "delta_bytes")
        ->Set(static_cast<int64_t>(inc.value().bytes_replayed));
    reg.GetGauge(prefix + "inc_us")->Set(static_cast<int64_t>(inc_s * 1e6));
    reg.GetGauge(prefix + "full_us")
        ->Set(static_cast<int64_t>(full_s * 1e6));
  }
  std::printf("\nExpected shape: inc_s stays flat (O(delta): each step "
              "replays only its new epochs) while full_s grows with |L|.\n");
  return 0;
}

// Strips a bare `--incremental` flag.
bool StripIncrementalFlag(int* argc, char** argv) {
  bool found = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::string(argv[i]) == "--incremental") {
      found = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return found;
}

}  // namespace

int main(int argc, char** argv) {
  bool incremental = StripIncrementalFlag(&argc, argv);
  std::string metrics_path = StripMetricsJsonFlag(
      &argc, argv, incremental ? "audit_incremental" : "audit_time");
  std::vector<uint32_t> thread_counts = StripThreadsFlag(&argc, argv);

  if (incremental) {
    Timer inc_run_timer;
    uint64_t steps = ArgOr(argc, argv, 1, 6);
    uint64_t per_step = ArgOr(argc, argv, 2, 150);
    if (IncrementalSweep(steps, per_step) != 0) return 1;
    Status ms = WriteMetricsJson(metrics_path, "audit_incremental",
                                 inc_run_timer.Seconds());
    if (!ms.ok()) {
      std::fprintf(stderr, "%s\n", ms.ToString().c_str());
      return 1;
    }
    return 0;
  }
  Timer run_timer;
  uint64_t txns = ArgOr(argc, argv, 1, 1500);
  std::printf("=== §VII(c): audit time after %llu TPC-C transactions ===\n",
              static_cast<unsigned long long>(txns));
  std::printf("%-30s %8s %9s %9s %9s %9s %9s %9s %8s %8s\n", "mode", "tsb",
              "run_s", "audit_s", "snap_s", "replay_s", "final_s", "index_s",
              "pages", "rdhash");

  if (AuditAfterRun(Mode::kLogConsistent, txns, false) != 0) return 1;
  if (AuditAfterRun(Mode::kLogConsistentHashOnRead, txns, false) != 0) {
    return 1;
  }
  if (AuditAfterRun(Mode::kLogConsistent, txns, true) != 0) return 1;

  if (ThreadSweep(txns, thread_counts) != 0) return 1;

  std::printf("\nExpected shape: audit_s << run_s (paper: 351+104s audit vs "
              "2-3h run); hash-on-read adds replay cost; TSB shrinks the "
              "audited page set.\n");
  Status ms = WriteMetricsJson(metrics_path, "audit_time",
                               run_timer.Seconds());
  if (!ms.ok()) {
    std::fprintf(stderr, "%s\n", ms.ToString().c_str());
    return 1;
  }
  return 0;
}

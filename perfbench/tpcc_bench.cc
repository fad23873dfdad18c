// TPC-C benchmark program for CompliantDB: runs one closed-loop workload
// (tpcc_mem or tpcc_disk_hor; tpcc_mem_2w is tpcc_mem's 2-writer replica,
// see README.md) in this process and prints one JSON object with every
// end-to-end and per-layer figure, the correctness verdicts and the
// compliance-log digest. A run repeats one episode (set-up, write phase,
// snapshot reads, certification, verified reads, full audit) --episodes
// times on fresh databases and reports medians over the repetitions.
// run.py builds this program, picks the run length and formats the final
// result.
//
//   tpcc_bench --workload NAME --seed N --slots N --episodes N --dir DIR
//              [--trace 0|1] [--spans FILE] [--no-audit]
//              [--tamper stock|history]
//
// --dir must not exist yet; the caller deletes it afterwards.

#include <fcntl.h>
#include <sched.h>
#include <sys/mount.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "adversary/mala.h"
#include "audit/audit_cursor.h"
#include "common/crc32.h"
#include "compliance/compliance_log.h"
#include "compliance/records.h"
#include "crypto/sha256.h"
#include "db/compliant_db.h"
#include "db/snapshot_reader.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "tpcc/workload.h"

namespace complydb {
namespace {

constexpr uint64_t kMinute = 60ull * 1'000'000;
// Simulated time per slot: one regret interval (5 min) per 500 slots, the
// cadence of the repository's other TPC-C harnesses.
constexpr uint64_t kAdvancePerSlot = 5 * kMinute / 500;
constexpr const char* kTypeNames[5] = {"new_order", "payment", "order_status",
                                       "delivery", "stock_level"};

// The workloads; README.md explains their sizes.
struct WorkloadSpec {
  const char* name;
  uint32_t writers;
  bool hash_on_read;
  bool tsb;
  uint32_t warehouses;
  size_t cache_pages;
  uint64_t snapshot_reads;  // per episode, after its write phase
  const char* scheduler;  // expected scheduler_mode()
  const char* shipper;    // expected shipper_mode()
};

constexpr WorkloadSpec kWorkloads[] = {
    {"tpcc_mem", 1, false, true, 4, 32768, 1000, "serial", "sync"},
    {"tpcc_mem_2w", 2, false, true, 4, 32768, 0, "disjoint", "async"},
    {"tpcc_disk_hor", 1, true, false, 8, 128, 400, "serial", "sync"},
};

// Engine overrides read from the environment inside src/. Any of them would
// silently change what a workload measures.
constexpr const char* kEngineOverrides[] = {
    "COMPLYDB_WRITE_THREADS",  "COMPLYDB_SLOT_SCHEDULER",
    "COMPLYDB_COMPLIANCE_ASYNC", "COMPLYDB_AUDIT_THREADS",
    "COMPLYDB_SHA256_IMPL",    "COMPLYDB_TELEMETRY_PORT"};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Exits at once: engine threads may still be running, so no static
// destructor may run under them.
[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "tpcc_bench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

void Check(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

// Linear interpolation between order statistics.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------- spans

// The benchmark's own spans around each call it makes into a layer. Every
// span of one slot (or read, or rung) shares `id`; `parent` names the
// enclosing span, empty for a root. Kept in memory, written at exit.
struct Span {
  const char* name;
  const char* parent;
  uint64_t id;
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t tid;
};

class SpanLog {
 public:
  void SetEnabled(bool enabled) { enabled_ = enabled; }

  void Add(std::vector<Span>* local, const char* name, const char* parent,
           uint64_t id, uint64_t start_ns, uint64_t end_ns, uint32_t tid) {
    if (enabled_) local->push_back({name, parent, id, start_ns, end_ns, tid});
  }
  void Add(const char* name, const char* parent, uint64_t id,
           uint64_t start_ns, uint64_t end_ns) {
    Add(&main_, name, parent, id, start_ns, end_ns, 0);
  }
  void Merge(std::vector<Span>* local) {
    std::lock_guard<std::mutex> lock(mu_);
    main_.insert(main_.end(), local->begin(), local->end());
    local->clear();
  }

  // Chrome trace_event JSON (loads in Perfetto), plus a per-name summary
  // with self time: a span's duration minus that of its direct children,
  // and the run's metrics.
  void Write(const std::string& path, const std::string& metrics_json) const {
    std::ofstream out(path);
    if (!out) Die("cannot write spans to " + path);
    uint64_t t0 = UINT64_MAX;
    for (const auto& s : main_) t0 = std::min(t0, s.start_ns);
    std::map<std::pair<std::string, uint64_t>, uint64_t> child_ns;
    for (const auto& s : main_) {
      if (s.parent[0] != '\0') {
        child_ns[{s.parent, s.id}] += s.end_ns - s.start_ns;
      }
    }
    struct Agg {
      uint64_t count = 0;
      double total_us = 0;
      double self_us = 0;
    };
    std::map<std::string, Agg> agg;
    out << "{\"traceEvents\":[";
    bool first = true;
    char buf[512];
    for (const auto& s : main_) {
      double dur_us = (s.end_ns - s.start_ns) / 1e3;
      auto it = child_ns.find({s.name, s.id});
      double self_us = dur_us - (it == child_ns.end() ? 0 : it->second / 1e3);
      Agg& a = agg[s.name];
      ++a.count;
      a.total_us += dur_us;
      a.self_us += self_us;
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":\"%s\"}}",
                    first ? "" : ",\n", s.name, s.tid,
                    (s.start_ns - t0) / 1e3, dur_us,
                    static_cast<unsigned long long>(s.id), s.parent);
      out << buf;
      first = false;
    }
    out << "],\n\"summary\":{";
    first = true;
    for (const auto& [name, a] : agg) {
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\":{\"count\":%llu,\"total_us\":%.3f,"
                    "\"self_us\":%.3f}",
                    first ? "" : ",", name.c_str(),
                    static_cast<unsigned long long>(a.count), a.total_us,
                    a.self_us);
      out << buf;
      first = false;
    }
    out << "},\n\"metrics\":" << metrics_json << "}\n";
  }

 private:
  bool enabled_ = false;
  std::mutex mu_;
  std::vector<Span> main_;
};

SpanLog g_spans;

// Times `fn` as span `name` (id `id`, child of `parent`) when tracing.
template <typename Fn>
auto Traced(const char* name, const char* parent, uint64_t id, Fn&& fn) {
  uint64_t t0 = NowNs();
  auto r = fn();
  g_spans.Add(name, parent, id, t0, NowNs());
  return r;
}

// ------------------------------------------------------- registry deltas

// The metrics registry is process-wide and also accumulates load, warm-up,
// audits and the other set-ups, so every figure is a sum of deltas between
// snapshots bracketing the parts of one phase.
struct RegistryPoint {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, uint64_t> hist_sum_us;

  static RegistryPoint Take() {
    RegistryPoint p;
    auto snap = obs::MetricsRegistry::Global().TakeSnapshot();
    for (const auto& [name, value] : snap.counters) p.counters[name] = value;
    for (const auto& h : snap.histograms) p.hist_sum_us[h.name] = h.sum_us;
    return p;
  }
};

class RegistryDelta {
 public:
  // Adds what the registry gained from `a` to now.
  void AddSince(const RegistryPoint& a) {
    RegistryPoint b = RegistryPoint::Take();
    for (const auto& [name, v] : b.counters) counters_[name] += v - Find(a.counters, name);
    for (const auto& [name, v] : b.hist_sum_us) hist_sum_us_[name] += v - Find(a.hist_sum_us, name);
  }
  uint64_t Counter(const std::string& name) const { return Find(counters_, name); }
  uint64_t HistSum(const std::string& name) const { return Find(hist_sum_us_, name); }

 private:
  static uint64_t Find(const std::map<std::string, uint64_t>& m,
                       const std::string& name) {
    auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  }
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, uint64_t> hist_sum_us_;
};

// ------------------------------------------------------------ the env

// Run shape shared by every workload (README.md, "The run").
constexpr uint64_t kWarmupSlots = 500;
constexpr uint64_t kVerifiedReads = 5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  uint64_t slots = 0;     // measured slots per episode
  uint64_t episodes = 1;  // repetitions of the same episode
  std::string dir;
  bool trace = false;
  std::string spans_path;
  bool no_audit = false;  // stop each episode after its snapshot reads
  std::string tamper;  // table whose row Mala edits after the run, if any
};

struct Env {
  std::unique_ptr<SimulatedClock> clock;
  std::unique_ptr<CompliantDB> db;
  std::unique_ptr<tpcc::Workload> workload;
  DbOptions options;

  // The database holds a pointer to the clock: destroy it first.
  void Reset() {
    workload.reset();
    db.reset();
    clock.reset();
  }
};

DbOptions MakeDbOptions(const WorkloadSpec& spec, const std::string& dir,
                        Clock* clock) {
  DbOptions o;
  o.dir = dir;
  o.cache_pages = spec.cache_pages;
  o.clock = clock;
  o.compliance.enabled = true;
  o.compliance.hash_on_read = spec.hash_on_read;
  o.compliance.regret_interval_micros = 5 * kMinute;
  o.tsb_enabled = spec.tsb;
  o.write_threads = spec.writers;
  o.audit_threads = 1;
  return o;
}

struct SlotRun {
  std::vector<double> latency_us;  // by slot - begin
  tpcc::MixStats stats;
  uint64_t failed = 0;
  std::string first_error;
  double seconds = 0;
};

// RunMixConcurrent's slot loop (src/tpcc/), copied so that each slot can
// be timed: slot content is a pure function of (seed, slot), slots and
// tickets are handed out under one lock, and the clock advances inside the
// slot, so L is byte-identical at any writer count. A failed slot is
// counted and the run goes on.
SlotRun RunSlots(Env* env, uint64_t seed, uint64_t begin, uint64_t end,
                 uint32_t threads, bool time_slots) {
  SlotRun run;
  run.latency_us.assign(time_slots ? end - begin : 0, 0.0);
  std::mutex slot_mu;
  uint64_t next_slot = begin;
  std::mutex result_mu;
  CompliantDB* db = env->db.get();
  tpcc::Workload* wl = env->workload.get();
  SimulatedClock* clock = env->clock.get();
  const uint64_t base_now = db->Now();

  auto worker = [&](uint32_t tid) {
    tpcc::MixStats local;
    uint64_t failed = 0;
    std::string first_error;
    std::vector<Span> spans;
    while (true) {
      uint64_t slot = 0;
      uint64_t ticket = 0;
      uint64_t t0 = 0;
      tpcc::SlotParams params;
      std::unique_ptr<tpcc::TpccRandom> rng;
      {
        std::lock_guard<std::mutex> lock(slot_mu);
        if (next_slot >= end) break;
        slot = next_slot++;
        t0 = NowNs();
        rng = std::make_unique<tpcc::TpccRandom>(
            tpcc::Workload::SlotSeed(seed, slot));
        SlotFootprint footprint;
        wl->DrawSlotParams(tpcc::Workload::MixTypeForSlot(seed, slot),
                           rng.get(), &params, &footprint);
        params.now = base_now + (slot - begin) * kAdvancePerSlot;
        ticket = db->ReserveWriteSlot(footprint);
      }
      Status s = db->RunWriteSlot(
          ticket,
          [&]() -> Status {
            Status ts;
            switch (params.type) {
              case 0: {
                bool committed = false;
                ts = wl->NewOrder(&committed, rng.get(), params);
                if (ts.ok()) {
                  ++local.new_order;
                  if (!committed) ++local.rollbacks;
                }
                break;
              }
              case 1:
                ts = wl->Payment(rng.get(), params);
                if (ts.ok()) ++local.payment;
                break;
              case 2:
                ts = wl->OrderStatus(rng.get(), params);
                if (ts.ok()) ++local.order_status;
                break;
              case 3:
                ts = wl->Delivery(rng.get(), params);
                if (ts.ok()) ++local.delivery;
                break;
              case 4:
                ts = wl->StockLevel(rng.get(), params);
                if (ts.ok()) ++local.stock_level;
                break;
            }
            return ts;
          },
          [&]() { clock->AdvanceMicros(kAdvancePerSlot); });
      uint64_t t1 = NowNs();
      if (time_slots) {
        run.latency_us[slot - begin] = (t1 - t0) / 1e3;
        g_spans.Add(&spans, kTypeNames[params.type], "", slot, t0, t1, tid);
      }
      if (!s.ok()) {
        ++failed;
        if (first_error.empty()) first_error = s.ToString();
      }
    }
    std::lock_guard<std::mutex> lock(result_mu);
    run.stats.new_order += local.new_order;
    run.stats.payment += local.payment;
    run.stats.order_status += local.order_status;
    run.stats.delivery += local.delivery;
    run.stats.stock_level += local.stock_level;
    run.stats.rollbacks += local.rollbacks;
    run.failed += failed;
    if (run.first_error.empty()) run.first_error = first_error;
    g_spans.Merge(&spans);
  };

  const uint64_t start_ns = NowNs();
  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    for (uint32_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (auto& th : pool) th.join();
  }
  run.seconds = (NowNs() - start_ns) / 1e9;
  return run;
}

// The seed of the initial population. Every run loads the same database,
// as TPC-C prescribes one initial population; --seed draws the slot
// schedule, the snapshot reads and the verified-read keys. A seeded load
// added a per-seed spread of its own to throughput and audit times
// (README.md, "Noise").
constexpr uint64_t kLoadSeed = 1;

// Open + load + warm-up: the figure reported as setup_s. The caller has
// made sure `dir` does not exist, so no deletion is timed here.
Env SetUp(const WorkloadSpec& spec, const Options& opt, const std::string& dir,
          double* seconds) {
  uint64_t t0 = NowNs();
  Env env;
  env.clock = std::make_unique<SimulatedClock>();
  env.options = MakeDbOptions(spec, dir, env.clock.get());
  auto open = CompliantDB::Open(env.options);
  if (!open.ok()) Die("open: " + open.status().ToString());
  env.db.reset(open.value());
  tpcc::Scale scale;
  scale.warehouses = spec.warehouses;
  env.workload =
      std::make_unique<tpcc::Workload>(env.db.get(), scale, kLoadSeed);
  Check(env.workload->CreateOrAttachTables(), "create tables");
  Check(env.workload->Load(), "load");
  SlotRun warm = RunSlots(&env, opt.seed, 0, kWarmupSlots, spec.writers, false);
  if (warm.failed > 0) Die("warm-up slot failed: " + warm.first_error);
  *seconds = (NowNs() - t0) / 1e9;
  return env;
}


// The snapshot read transactions, one OrderStatusRO to three StockLevelRO,
// each in its own BeginSnapshot, from one seeded sequence. Every read's
// latency is kept, by read number, failed ones too (they are counted
// apart).
struct ReadPhase {
  explicit ReadPhase(uint64_t seed)
      : rng(tpcc::Workload::SlotSeed(seed ^ 0x7265616473ull, 0)) {}

  static bool IsOrderStatus(uint64_t read) { return read % 4 == 0; }

  void Run(Env* env, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      const bool order_status = IsOrderStatus(i);
      uint64_t r0 = NowNs();
      Status s;
      auto snap = env->db->BeginSnapshot();
      if (!snap.ok()) {
        s = snap.status();
      } else {
        std::unique_ptr<SnapshotReader> reader(snap.value());
        s = order_status ? env->workload->OrderStatusRO(*reader, &rng)
                         : env->workload->StockLevelRO(*reader, &rng);
      }
      uint64_t r1 = NowNs();
      g_spans.Add(order_status ? "read.order_status_ro" : "read.stock_level_ro",
                  "", i, r0, r1);
      latency_us.push_back((r1 - r0) / 1e3);
      if (!s.ok()) ++failed;
    }
  }

  tpcc::TpccRandom rng;
  uint64_t failed = 0;
  std::vector<double> latency_us;  // by read number
};

// Sum of DISTRICT next_o_id over every district.
uint64_t SumNextOrderIds(Env* env) {
  const auto& t = env->workload->tables();
  uint64_t sum = 0;
  for (uint32_t w = 1; w <= env->workload->scale().warehouses; ++w) {
    for (uint32_t d = 1; d <= env->workload->scale().districts_per_warehouse;
         ++d) {
      std::string raw;
      Check(env->db->Get(t.district, tpcc::DistrictKey(w, d), &raw),
            "district read");
      tpcc::DistrictRow row;
      Check(tpcc::DistrictRow::Decode(raw, &row), "district decode");
      sum += row.next_o_id;
    }
  }
  return sum;
}

std::string LogPath(Env* env) {
  return env->options.dir + "/worm/" +
         LogFileName(env->db->compliance_logger()->epoch());
}

std::string FileDigest(const std::string& path, uint64_t* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  Sha256 h;
  std::vector<char> buf(1 << 20);
  *bytes = 0;
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    std::streamsize n = in.gcount();
    if (n <= 0) break;
    h.Update(Slice(buf.data(), static_cast<size_t>(n)));
    *bytes += static_cast<uint64_t>(n);
  }
  return DigestHex(h.Finish());
}

std::string ReadPrefix(const std::string& path, size_t max_bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::string out(max_bytes, '\0');
  in.read(out.data(), static_cast<std::streamsize>(max_bytes));
  out.resize(static_cast<size_t>(in.gcount()));
  return out;
}

uint64_t CountFiles(const std::string& dir) {
  uint64_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) ++n;
  }
  return n;
}

bool WriteProcFile(const char* path, const std::string& text) {
  int fd = ::open(path, O_WRONLY);
  if (fd < 0) return false;
  bool ok = ::write(fd, text.data(), text.size()) ==
            static_cast<ssize_t>(text.size());
  ::close(fd);
  return ok;
}

// Mounts a RAM-backed filesystem (tmpfs) on `dir` inside a user and mount
// namespace of this process's own: no other process sees the mount, and it
// and its files vanish when this process exits. Returns false where the
// kernel refuses the namespaces or the mount; the run then stays on the
// filesystem `dir` is on. Must run before any thread is started.
bool MountPrivateTmpfs(const std::string& dir) {
  const uid_t uid = ::geteuid();
  const gid_t gid = ::getegid();
  if (::unshare(CLONE_NEWUSER | CLONE_NEWNS) != 0) return false;
  // An unprivileged process may write gid_map only after this.
  WriteProcFile("/proc/self/setgroups", "deny");
  if (!WriteProcFile("/proc/self/uid_map", "0 " + std::to_string(uid) + " 1") ||
      !WriteProcFile("/proc/self/gid_map", "0 " + std::to_string(gid) + " 1")) {
    Die("cannot map ids in the private user namespace");
  }
  return ::mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) == 0 &&
         ::mount("tmpfs", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
                 "size=4g,mode=0700") == 0;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

size_t ProofBytes(const InclusionProof& p) {
  size_t n = 0;
  for (const auto& e : p.chain) n += e.Encode().size();
  auto leaf = [](const InclusionProof::Leaf& l) {
    return 16 + l.record.size() + l.path.size() * sizeof(Sha256Digest);
  };
  n += leaf(p.tuple);
  if (p.has_stamp) n += leaf(p.stamp);
  return n;
}

// Median over `rounds` of the ns one round takes.
double MedianRoundNs(int rounds, const std::function<void()>& round) {
  std::vector<double> ns;
  for (int r = 0; r < rounds; ++r) {
    uint64_t t0 = NowNs();
    round();
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  return Percentile(ns, 0.5);
}

// ------------------------------------------------------------ JSON out

// Problem texts can hold raw key bytes: every byte outside printable ASCII
// is written as a \u00XX escape, so the output stays valid JSON.
std::string Quote(const std::string& v) {
  std::string out = "\"";
  for (char c : v) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x20 || u >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", u);
      out += buf;
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) { Raw(key, Quote(v)); }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += Quote(key) + ":" + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string StrList(const std::vector<std::string>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(v[i]);
  }
  return out + "]";
}

std::string NumList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(v[i]);
  }
  return out + "]";
}

// Program histograms reported, per measured slot, by the traced run.
constexpr std::pair<const char*, const char*> kTracedHistograms[] = {
    {"trace.commit_us_per_txn", "db.commit_us"},
    {"trace.commit_foreground_us_per_txn",
     "db.commit_critical_path.foreground_us"},
    {"trace.commit_queued_us_per_txn", "db.commit_critical_path.queued_us"},
    {"trace.commit_drain_us_per_txn", "db.commit_critical_path.drain_us"},
    {"trace.commit_worm_us_per_txn", "db.commit_critical_path.worm_us"},
    {"trace.commit_sequence_us_per_txn",
     "db.commit_critical_path.sequence_us"},
    {"trace.disk_read_us_per_txn", "storage.disk.read_us"},
    {"trace.worm_append_us_per_txn", "worm.append_us"},
    {"trace.write_stall_us_per_txn", "compliance.write_stall_us"},
};

void PrintResult(const JsonObject& info, const JsonObject& metrics,
                 const JsonObject& verdicts, uint64_t attempted,
                 uint64_t failed, bool correct) {
  JsonObject out;
  out.Raw("info", info.str());
  out.Raw("metrics", metrics.str());
  out.Raw("verdicts", verdicts.str());
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Bool("correct", correct);
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

// The known HISTORY-tree integrity defect (see README.md): on a clean run
// the full audit can report the live HISTORY B+-tree's index checks
// ("tree <id>: page <n>: entry <i>: separators out of order", "... separator
// exceeds child minimum ...", "... sibling link <a> != in-order successor
// <b>") and unstamped tuples on one of its leaves ("page <n>: unstamped
// tuple at audit ..."). Only those messages count as the defect; every
// other problem, such as a leaf whose content diverges from the replay of
// L, is unexpected and makes the run incorrect.
bool IsKnownHistoryDefect(const std::string& problem, uint32_t history_tree,
                          DiskManager* disk) {
  auto has = [&](const char* text) {
    return problem.find(text) != std::string::npos;
  };
  if (problem.rfind("tree " + std::to_string(history_tree) + ": page ", 0) ==
      0) {
    return has(": separators out of order") ||
           has(": separator exceeds child minimum") ||
           (has(": sibling link ") && has(" != in-order successor "));
  }
  unsigned long pgno = 0;
  int end = 0;
  if (std::sscanf(problem.c_str(), "page %lu: %n", &pgno, &end) != 1 ||
      problem.compare(end, std::string::npos,
                      "unstamped tuple at audit (lazy updates incomplete)") !=
          0) {
    return false;
  }
  Page page;
  return disk->ReadPage(static_cast<PageId>(pgno), &page).ok() &&
         page.tree_id() == history_tree;
}


// Per-layer counters reported per measured slot: (metric, registry counter).
constexpr std::pair<const char*, const char*> kPerTxnCounters[] = {
    {"crypto.sha256_buffers_per_txn", "crypto.sha256.batch.buffers"},
    {"storage.cache.misses_per_txn", "storage.cache.misses"},
    {"storage.cache.evictions_per_txn", "storage.cache.evictions"},
    {"storage.disk.reads_per_txn", "storage.disk.reads"},
    {"storage.disk.writes_per_txn", "storage.disk.writes"},
    {"storage.cache.page_forces_per_txn", "storage.cache.page_forces"},
    {"wal.appends_per_txn", "wal.appends"},
    {"wal.flush_bytes_per_txn", "wal.flush_bytes"},
    {"wal.fsyncs_per_txn", "wal.fsyncs"},
    {"worm.appends_per_txn", "worm.appends"},
    {"worm.flushes_per_txn", "worm.flushes"},
    {"btree.version_hops_per_txn", "btree.version_hops"},
    {"btree.key_splits_per_txn", "btree.key_splits"},
    {"btree.time_splits_per_txn", "btree.time_splits"},
    {"tsb.migrated_tuples_per_txn", "tsb.migrated_tuples"},
    {"compliance.records_per_txn", "compliance.records"},
    {"txn.stamped_versions_per_txn", "txn.stamped_versions"},
};

// Further write-phase counters the figures use; with one writer, these and
// the ones above repeat exactly from episode to episode.
constexpr const char* kOtherWriteCounters[] = {
    "storage.cache.hits",
    "worm.append_bytes",
    "txn.scheduler.admitted_concurrent",
    "txn.scheduler.serialized",
    "txn.scheduler.conflict_waits",
    "txn.epoch.count",
    "audit.epoch.sealed",
};

// ------------------------------------------------------------ episodes

// One episode: a fresh database (open, load, warm-up: the set-up), the
// write phase, the snapshot reads and, unless --no-audit, certification,
// the verified reads and the full audit. The episodes of a run repeat the
// same work at the same seed, so their samples compare one to one.
struct Episode {
  explicit Episode(uint64_t seed) : reads(seed) {}

  bool traced = false;
  double setup_s = 0;
  SlotRun run;
  ReadPhase reads;
  RegistryDelta write, read;  // registry deltas over the two phases
  uint64_t log_bytes = 0;
  uint64_t worm_files = 0;
  uint64_t db_pages_start = 0;
  uint64_t db_pages_end = 0;
  std::string l_digest;
  uint64_t l_bytes = 0;
  uint64_t committed_new_orders = 0;
  uint64_t next_o_id_advance = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Certification, verified reads and full audit (not with --no-audit).
  bool audited = false;
  double certify_s = 0;
  double audit_s = 0;
  std::vector<double> verified_us, build_us, verify_us;  // by proof
  double proof_bytes = 0;
  uint64_t proofs_failed = 0;
  uint64_t proofs_with_stamp = 0;  // proofs with a STAMP_TRANS leaf
  std::vector<std::string> problems;
  uint64_t unexpected_problems = 0;
  AuditTimings timings;
  uint64_t audit_records = 0;

  bool next_o_ok() const {
    return next_o_id_advance == committed_new_orders;
  }
  bool ok() const {
    return failed == 0 && next_o_ok() &&
           (!audited || (proofs_failed == 0 && unexpected_problems == 0));
  }
};

// The keys of the verified reads: STOCK rows the write phase updated, one
// per committed NewOrder (its first item, at its supply warehouse), from
// the last NewOrder back. Slot content is a pure function of (seed, slot),
// so the slots' parameters are drawn again here. A proof hashes every
// record of the sealed epoch that holds the row's version; a row the run
// never updated has its version in the load's epoch, the largest, and was
// proven at about twice the cost (≈235 against ≈120 ms on tpcc_disk_hor),
// so a p50 over a random mix of the two flipped from seed to seed.
std::vector<std::string> VerifiedReadKeys(Env* env, const Options& opt) {
  std::vector<std::string> keys;
  for (uint64_t slot = kWarmupSlots + opt.slots;
       slot-- > kWarmupSlots && keys.size() < kVerifiedReads;) {
    if (tpcc::Workload::MixTypeForSlot(opt.seed, slot) != 0) continue;
    tpcc::TpccRandom rng(tpcc::Workload::SlotSeed(opt.seed, slot));
    tpcc::SlotParams params;
    SlotFootprint footprint;
    env->workload->DrawSlotParams(0, &rng, &params, &footprint);
    if (params.rollback || params.item_qty.empty()) continue;
    const uint32_t item = params.item_qty.begin()->first;
    auto supply = params.supplies.find(item);
    keys.push_back(tpcc::StockKey(
        supply == params.supplies.end() ? params.w : supply->second, item));
  }
  return keys;
}

// The write phase, the snapshot reads, and unless --no-audit the audit
// part, on the freshly set-up `env`. `l_sample`, when given, receives the
// start of L for the rungs, read before certification starts a new epoch
// (and a new, empty L).
void RunEpisode(const WorkloadSpec& spec, const Options& opt, Env* env,
                Episode* ep, std::string* l_sample) {
  CompliantDB* db = env->db.get();
  ep->db_pages_start = db->disk()->PageCount();
  if (spec.hash_on_read && ep->db_pages_start < 10 * spec.cache_pages) {
    Die("database is " + std::to_string(ep->db_pages_start) +
        " pages, below 10x the " + std::to_string(spec.cache_pages) +
        "-page cache");
  }

  // ---- write phase
  const std::string worm_dir = env->options.dir + "/worm";
  const uint64_t next_o_before = SumNextOrderIds(env);
  const uint64_t log_before = db->compliance_logger()->LogSize();
  const uint64_t files_before = CountFiles(worm_dir);
  RegistryPoint at = RegistryPoint::Take();
  ep->run = RunSlots(env, opt.seed, kWarmupSlots, kWarmupSlots + opt.slots,
                     spec.writers, true);
  ep->write.AddSince(at);
  ep->log_bytes = db->compliance_logger()->LogSize() - log_before;
  ep->worm_files = CountFiles(worm_dir) - files_before;
  ep->committed_new_orders =
      ep->run.stats.new_order - ep->run.stats.rollbacks;
  ep->next_o_id_advance = SumNextOrderIds(env) - next_o_before;

  // ---- snapshot reads
  at = RegistryPoint::Take();
  ep->reads.Run(env, spec.snapshot_reads);
  ep->read.AddSince(at);
  ep->db_pages_end = db->disk()->PageCount();
  ep->attempted = opt.slots + spec.snapshot_reads;
  ep->failed = ep->run.failed + ep->reads.failed;
  const uint64_t misses = ep->write.Counter("storage.cache.misses") +
                          ep->read.Counter("storage.cache.misses");
  if (!spec.hash_on_read && misses > 0) {
    Die("tpcc_mem-class workload saw " + std::to_string(misses) +
        " cache misses in its measured phase; the cache must hold the "
        "whole database");
  }

  Check(db->FlushAll(), "flush");
  ep->l_digest = FileDigest(LogPath(env), &ep->l_bytes);
  if (l_sample != nullptr) *l_sample = ReadPrefix(LogPath(env), 8u << 20);
  if (opt.no_audit) return;
  ep->audited = true;

  // ---- certification (incremental audit of everything sealed so far)
  uint64_t t0 = NowNs();
  auto cert = Traced("certify", "", 0, [&] { return db->AuditIncremental(1); });
  ep->certify_s = (NowNs() - t0) / 1e9;
  ++ep->attempted;
  Sha256Digest root{};
  if (!cert.ok()) {
    ++ep->failed;
    ep->problems.push_back("certify: " + cert.status().ToString());
  } else {
    ep->problems = cert.value().problems;
    root = cert.value().chain_root;
  }

  // ---- verified point reads
  const uint32_t stock = env->workload->tables().stock;
  const std::vector<std::string> keys = VerifiedReadKeys(env, opt);
  for (uint64_t i = 0; i < keys.size(); ++i) {
    const std::string& key = keys[i];
    uint64_t r0 = NowNs();
    std::string value;
    uint64_t commit_time = 0;
    InclusionProof proof;
    Status s;
    auto snap = db->BeginSnapshot();
    if (!snap.ok()) {
      s = snap.status();
    } else {
      std::unique_ptr<SnapshotReader> reader(snap.value());
      s = reader->GetWithProof(stock, key, &value, &commit_time, &proof);
    }
    uint64_t r1 = NowNs();
    Status v = s.ok() ? VerifyInclusionProof(proof, root, stock, key, value,
                                             commit_time)
                      : s;
    uint64_t r2 = NowNs();
    g_spans.Add("read.verified", "", i, r0, r2);
    g_spans.Add("proof.build", "read.verified", i, r0, r1);
    g_spans.Add("proof.verify", "read.verified", i, r1, r2);
    ep->attempted += 2;
    if (!s.ok()) ++ep->failed;
    if (!v.ok()) {
      ++ep->failed;
      ++ep->proofs_failed;
    }
    ep->verified_us.push_back((r2 - r0) / 1e3);
    ep->build_us.push_back((r1 - r0) / 1e3);
    ep->verify_us.push_back((r2 - r1) / 1e3);
    if (i == 0) ep->proof_bytes = static_cast<double>(ProofBytes(proof));
    ep->proofs_with_stamp += proof.has_stamp;
  }

  // ---- full audit
  t0 = NowNs();
  auto audit = Traced("audit", "", 0, [&] { return db->Audit(1); });
  ep->audit_s = (NowNs() - t0) / 1e9;
  ++ep->attempted;
  if (!audit.ok()) {
    ++ep->failed;
    ep->problems.push_back("audit: " + audit.status().ToString());
  } else {
    ep->problems.insert(ep->problems.end(), audit.value().problems.begin(),
                        audit.value().problems.end());
    ep->timings = audit.value().timings;
    ep->audit_records = audit.value().log_records;
  }
  for (const auto& p : ep->problems) {
    if (!IsKnownHistoryDefect(p, env->workload->tables().history,
                              db->disk())) {
      ++ep->unexpected_problems;
    }
  }
}

// Sample-by-sample best over `eps`: entry i is the least, over the
// episodes, of sample i (slot i, read i or proof i) as `get` returns it.
// The episodes repeat the same work on the same data, so what a sample
// costs the program is in every episode, while the machine's slow
// stretches (README.md, "Noise") add to only some: the least is the
// program's cost with the least outside interference.
template <typename Get>
std::vector<double> BestBySample(const std::vector<const Episode*>& eps,
                                 Get get) {
  std::vector<double> out;
  if (eps.empty()) return out;
  for (size_t i = 0; i < get(*eps[0]).size(); ++i) {
    double best = get(*eps[0])[i];
    for (const Episode* ep : eps) best = std::min(best, get(*ep)[i]);
    out.push_back(best);
  }
  return out;
}

// Least over `eps` of one figure per episode.
template <typename Get>
double BestOf(const std::vector<const Episode*>& eps, Get get) {
  double best = get(*eps[0]);
  for (const Episode* ep : eps) best = std::min(best, get(*ep));
  return best;
}

// Median over `eps` of one figure per episode.
template <typename Get>
double MedianOf(const std::vector<const Episode*>& eps, Get get) {
  std::vector<double> v;
  for (const Episode* ep : eps) v.push_back(get(*ep));
  return Percentile(v, 0.5);
}

template <typename Get>
std::string ListOf(const std::deque<Episode>& eps, Get get) {
  std::vector<double> v;
  for (const Episode& ep : eps) v.push_back(get(ep));
  return NumList(v);
}

// Slots per second of the write phase. One writer: measured slots over
// the sum of the per-slot best latencies (a slot's latency covers the
// whole closed-loop turn). More writers: slots overlap, so measured slots
// over the shortest write-phase wall time.
double Throughput(const WorkloadSpec& spec, const Options& opt,
                  const std::vector<const Episode*>& eps,
                  const std::vector<double>& slot_median_us) {
  if (eps.empty()) return 0;
  if (spec.writers > 1) {
    return opt.slots / BestOf(eps, [](const Episode& e) {
             return e.run.seconds;
           });
  }
  double sum_us = 0;
  for (double us : slot_median_us) sum_us += us;
  return opt.slots * 1e6 / sum_us;
}

// True when every write-phase counter the figures use, the L growth, the
// WORM file count and the L digest repeat exactly across the episodes.
bool CountersRepeat(const std::deque<Episode>& eps) {
  const Episode& a = eps.front();
  for (const Episode& b : eps) {
    if (b.l_digest != a.l_digest || b.log_bytes != a.log_bytes ||
        b.worm_files != a.worm_files) {
      return false;
    }
    for (const auto& [metric, counter] : kPerTxnCounters) {
      if (b.write.Counter(counter) != a.write.Counter(counter)) return false;
    }
    for (const char* counter : kOtherWriteCounters) {
      if (b.write.Counter(counter) != a.write.Counter(counter)) return false;
    }
    if (b.read.Counter("storage.cache.misses") !=
        a.read.Counter("storage.cache.misses")) {
      return false;
    }
  }
  return true;
}

// Every figure. The time figures come from the timed episodes, sample by
// sample (BestBySample), or per episode (BestOf); setup_s is the median of
// the episodes' set-ups. The traced episodes give the trace.* figures.
// Counters repeat across episodes (CountersRepeat), so the first
// episode's stand for all.
void AddMetrics(const WorkloadSpec& spec, const Options& opt,
                const std::deque<Episode>& eps, JsonObject* metrics) {
  std::vector<const Episode*> timed, traced;
  for (const Episode& ep : eps) (ep.traced ? traced : timed).push_back(&ep);
  const Episode& first = eps.front();
  const double n = static_cast<double>(opt.slots);

  // ---- write phase
  const auto slot_us = [](const Episode& e) -> const std::vector<double>& {
    return e.run.latency_us;
  };
  const std::vector<double> slots = BestBySample(timed, slot_us);
  std::vector<double> by_type[5];
  for (uint64_t i = 0; i < slots.size(); ++i) {
    by_type[tpcc::Workload::MixTypeForSlot(opt.seed, kWarmupSlots + i)]
        .push_back(slots[i]);
  }
  metrics->Num("txns_per_s", Throughput(spec, opt, timed, slots));
  metrics->Num("txn_p99_us", Percentile(slots, 0.99));
  metrics->Num("new_order_p50_us", Percentile(by_type[0], 0.5));
  metrics->Num("new_order_p99_us", Percentile(by_type[0], 0.99));
  metrics->Num("log_bytes_per_txn", first.log_bytes / n);
  metrics->Num("worm_bytes_per_txn",
               first.write.Counter("worm.append_bytes") / n);
  metrics->Num("tpcc.payment_p50_us", Percentile(by_type[1], 0.5));
  metrics->Num("tpcc.order_status_p50_us", Percentile(by_type[2], 0.5));
  metrics->Num("tpcc.delivery_p50_us", Percentile(by_type[3], 0.5));
  metrics->Num("tpcc.stock_level_p50_us", Percentile(by_type[4], 0.5));
  metrics->Num("setup_s", MedianOf(timed, [](const Episode& e) {
                 return e.setup_s;
               }));

  const RegistryDelta& write = first.write;
  for (const auto& [metric, counter] : kPerTxnCounters) {
    metrics->Num(metric, write.Counter(counter) / n);
  }
  const double hits = write.Counter("storage.cache.hits");
  const double misses = write.Counter("storage.cache.misses");
  metrics->Num("storage.cache.hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 1.0);
  metrics->Num("worm.files_per_ktxn", first.worm_files * 1000.0 / n);
  const double concurrent = write.Counter("txn.scheduler.admitted_concurrent");
  const double serialized = write.Counter("txn.scheduler.serialized");
  metrics->Num("txn.scheduler.concurrent_frac",
               concurrent + serialized > 0
                   ? concurrent / (concurrent + serialized)
                   : 0.0);
  metrics->Num("txn.scheduler.conflict_waits_per_ktxn",
               write.Counter("txn.scheduler.conflict_waits") * 1000.0 / n);
  const double epochs = write.Counter("txn.epoch.count");
  metrics->Num("txn.epoch.slots_per_epoch", epochs > 0 ? n / epochs : 0.0);
  metrics->Num("audit.epoch.sealed_per_ktxn",
               write.Counter("audit.epoch.sealed") * 1000.0 / n);

  // ---- snapshot reads
  const std::vector<double> reads = BestBySample(
      timed, [](const Episode& e) -> const std::vector<double>& {
        return e.reads.latency_us;
      });
  std::vector<double> order_status_ro, stock_level_ro;
  for (uint64_t i = 0; i < reads.size(); ++i) {
    (ReadPhase::IsOrderStatus(i) ? order_status_ro : stock_level_ro)
        .push_back(reads[i]);
  }
  metrics->Num("snapshot_read_p50_us", Percentile(reads, 0.5));
  metrics->Num("snapshot_read_p99_us", Percentile(reads, 0.99));
  metrics->Num("tpcc.order_status_ro_p50_us", Percentile(order_status_ro, 0.5));
  metrics->Num("tpcc.stock_level_ro_p50_us", Percentile(stock_level_ro, 0.5));
  metrics->Num("read.cache_misses_per_read",
               first.read.Counter("storage.cache.misses") /
                   static_cast<double>(std::max<size_t>(reads.size(), 1)));

  // ---- traced episodes: their throughput, against the timed one, and the
  // busy and wait time the program's own histograms attribute to each
  // layer, per measured slot (recorded only when sampling is on).
  if (!traced.empty()) {
    const double timed_tps = Throughput(spec, opt, timed, slots);
    const double traced_tps =
        Throughput(spec, opt, traced, BestBySample(traced, slot_us));
    metrics->Num("trace.txns_per_s", traced_tps);
    metrics->Num("trace.timed_txns_per_s", timed_tps);
    metrics->Num("trace.overhead_pct", 100.0 * (1 - traced_tps / timed_tps));
    metrics->Num("trace.slot_us_per_txn", 1e6 / traced_tps);
    for (const auto& [name, hist] : kTracedHistograms) {
      metrics->Num(name, MedianOf(traced, [&](const Episode& e) {
                     return e.write.HistSum(hist) / n;
                   }));
    }
  }

  // ---- certification, verified reads and full audit
  std::vector<const Episode*> audited;
  for (const Episode* ep : timed) {
    if (ep->audited) audited.push_back(ep);
  }
  if (audited.empty()) return;
  const auto per_proof = [&](std::vector<double> Episode::*member) {
    return BestBySample(audited,
                          [member](const Episode& e) -> const std::vector<double>& {
                            return e.*member;
                          });
  };
  metrics->Num("verified_read_p50_us",
               Percentile(per_proof(&Episode::verified_us), 0.5));
  metrics->Num("audit.proof_build_ms",
               Percentile(per_proof(&Episode::build_us), 0.5) / 1e3);
  metrics->Num("audit.proof_verify_us",
               Percentile(per_proof(&Episode::verify_us), 0.5));
  metrics->Num("audit.proof_bytes", first.proof_bytes);
  metrics->Num("certify_s", BestOf(audited, [](const Episode& e) {
                 return e.certify_s;
               }));
  metrics->Num("audit_s", BestOf(audited, [](const Episode& e) {
                 return e.audit_s;
               }));
  metrics->Num("audit.problems", static_cast<double>(first.problems.size()));
  metrics->Num("audit.replay_ns_per_record",
               BestOf(audited, [](const Episode& e) {
                 return e.audit_records > 0
                            ? e.timings.replay_seconds * 1e9 / e.audit_records
                            : 0.0;
               }));
  metrics->Num("audit.phase.replay_s", BestOf(audited, [](const Episode& e) {
                 return e.timings.replay_seconds;
               }));
  metrics->Num("audit.phase.final_state_s",
               BestOf(audited, [](const Episode& e) {
                 return e.timings.final_state_seconds;
               }));
  metrics->Num("audit.phase.index_check_s",
               BestOf(audited, [](const Episode& e) {
                 return e.timings.index_check_seconds;
               }));
}


// ------------------------------------------------------------ main body

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--slots") o.slots = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--episodes") o.episodes = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--dir") o.dir = next();
    else if (a == "--trace") o.trace = next() == "1";
    else if (a == "--spans") o.spans_path = next();
    else if (a == "--no-audit") o.no_audit = true;
    else if (a == "--tamper") o.tamper = next();
    else Die("unknown argument " + a);
  }
  if (!o.tamper.empty() && o.tamper != "stock" && o.tamper != "history") {
    Die("--tamper takes stock or history");
  }
  if (o.workload.empty() || o.dir.empty() || o.slots == 0 ||
      o.episodes == 0 || (o.trace && o.episodes < 2)) {
    Die("usage: tpcc_bench --workload NAME --seed N --slots N --episodes N "
        "--dir DIR (--trace 1 needs 2 episodes or more)");
  }
  return o;
}

int Main(int argc, char** argv) {
  Options opt = ParseArgs(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (opt.workload == w.name) spec = &w;
  }
  if (spec == nullptr) Die("unknown workload " + opt.workload);

  // Config guard: refuse any engine override from the environment.
  for (const char* var : kEngineOverrides) {
    if (std::getenv(var) != nullptr) {
      Die(std::string("refusing to run: engine override ") + var +
          " is set in the environment");
    }
  }
  if (std::filesystem::exists(opt.dir)) Die(opt.dir + " already exists");
  std::filesystem::create_directories(opt.dir);
  // The run's files live in RAM, so the kernel's file work and writeback,
  // and the load other machines put on a shared disk, stay out of the
  // figures (README.md, "Filesystem and flush policy").
  const bool tmpfs = MountPrivateTmpfs(opt.dir);

  // ---- the episodes. Timed episodes keep counters but no latency
  // sampling or span ring. With --trace 1 every second episode is traced
  // instead: sampling and span ring on, and the first traced episode also
  // records the benchmark's own spans. The last episode's database stays
  // open for the rungs and the tamper check.
  std::deque<Episode> eps;
  std::string l_sample;
  Env env;
  for (uint64_t e = 0; e < opt.episodes; ++e) {
    const bool traced = opt.trace && e % 2 == 1;
    const bool last = e + 1 == opt.episodes;
    obs::SetSampling(traced);
    obs::SpanRing::Global().SetEnabled(traced);
    g_spans.SetEnabled(traced && e == 1);
    Episode& ep = eps.emplace_back(opt.seed);
    ep.traced = traced;
    const std::string dir = opt.dir + "/ep" + std::to_string(e);
    env = SetUp(*spec, opt, dir, &ep.setup_s);
    CompliantDB* db = env.db.get();
    if (e == 0) {
      std::fprintf(stderr,
                   "config: workload=%s write_threads=%u scheduler=%s "
                   "shipper=%s cache_pages=%zu warehouses=%u "
                   "hash_on_read=%d tsb=%d\n",
                   spec->name, db->write_threads(), db->scheduler_mode(),
                   db->shipper_mode(), db->cache()->capacity(),
                   spec->warehouses, spec->hash_on_read, spec->tsb);
      if (db->write_threads() != spec->writers ||
          std::strcmp(db->scheduler_mode(), spec->scheduler) != 0 ||
          std::strcmp(db->shipper_mode(), spec->shipper) != 0) {
        Die("engine configuration does not match the workload");
      }
    }
    RunEpisode(*spec, opt, &env, &ep,
               last && opt.trace ? &l_sample : nullptr);
    if (last) break;
    // Closing and deleting lie outside every timed region.
    Check(db->Close(), "close");
    env.Reset();
    std::filesystem::remove_all(dir);
  }
  CompliantDB* db = env.db.get();
  const Episode& first = eps.front();

  JsonObject metrics, verdicts, info;
  AddMetrics(*spec, opt, eps, &metrics);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool episodes_ok = true;
  for (const Episode& ep : eps) {
    attempted += ep.attempted;
    failed += ep.failed;
    episodes_ok = episodes_ok && ep.ok();
  }
  metrics.Num("ok_ops_frac",
              static_cast<double>(attempted - failed) / attempted);
  metrics.Num("peak_rss_mb", PeakRssMb());

  info.Str("workload", spec->name);
  info.Num("seed", static_cast<double>(opt.seed));
  info.Num("slots", static_cast<double>(opt.slots));
  info.Num("episodes", static_cast<double>(opt.episodes));
  info.Num("warmup_slots", static_cast<double>(kWarmupSlots));
  info.Str("l_digest", first.l_digest);
  info.Num("l_bytes", static_cast<double>(first.l_bytes));
  info.Num("write_threads", db->write_threads());
  info.Str("scheduler_mode", db->scheduler_mode());
  info.Str("shipper_mode", db->shipper_mode());
  info.Num("cache_pages", static_cast<double>(db->cache()->capacity()));
  info.Num("db_pages_start", static_cast<double>(first.db_pages_start));
  info.Num("db_pages_end", static_cast<double>(first.db_pages_end));
  info.Num("history_tree_id", env.workload->tables().history);
  info.Str("run_fs", tmpfs ? "tmpfs" : "disk");
  info.Num("committed_new_orders",
           static_cast<double>(first.committed_new_orders));
  info.Num("next_o_id_advance", static_cast<double>(first.next_o_id_advance));
  info.Num("rollbacks", static_cast<double>(first.run.stats.rollbacks));
  if (!first.run.first_error.empty()) {
    info.Str("first_slot_error", first.run.first_error);
  }
  info.Raw("episode_txns_per_s", ListOf(eps, [&](const Episode& e) {
             return opt.slots / e.run.seconds;
           }));
  info.Raw("setup_s_each", ListOf(eps, [](const Episode& e) {
             return e.setup_s;
           }));

  bool slots_ok = true;
  bool next_o_ok = true;
  for (const Episode& ep : eps) {
    slots_ok = slots_ok && ep.run.failed == 0;
    next_o_ok = next_o_ok && ep.next_o_ok();
  }
  const bool counters_repeat = CountersRepeat(eps);
  verdicts.Bool("slots_ok", slots_ok);
  verdicts.Bool("next_o_id_matches_new_orders", next_o_ok);
  verdicts.Bool("episodes_repeat_counters_and_l", counters_repeat);

  if (first.audited) {
    info.Raw("certify_s_each", ListOf(eps, [](const Episode& e) {
               return e.certify_s;
             }));
    info.Raw("audit_s_each", ListOf(eps, [](const Episode& e) {
               return e.audit_s;
             }));
    bool proofs_ok = true;
    bool clean = true;
    uint64_t unexpected = 0;
    for (const Episode& ep : eps) {
      proofs_ok = proofs_ok && ep.proofs_failed == 0 &&
                  ep.verified_us.size() == kVerifiedReads;
      clean = clean && ep.problems.empty();
      unexpected += ep.unexpected_problems;
    }
    verdicts.Bool("proofs_verify", proofs_ok);
    verdicts.Bool("audit_clean", clean);
    verdicts.Raw("audit_problems_each", ListOf(eps, [](const Episode& e) {
                   return static_cast<double>(e.problems.size());
                 }));
    info.Num("proofs_with_stamp_leaf",
             static_cast<double>(first.proofs_with_stamp));
    verdicts.Num("audit_known_history_defect_problems",
                 static_cast<double>(first.problems.size() -
                                     first.unexpected_problems));
    verdicts.Num("audit_unexpected_problems", static_cast<double>(unexpected));
    verdicts.Raw("audit_problem_list", StrList(first.problems));
  }

  // ---- rungs: timed calls into single layers on data from the last
  // episode, after its audit
  if (opt.trace && first.audited) {
    g_spans.SetEnabled(true);
    const std::string& l = l_sample;
    uint64_t rung = 0;
    if (!l.empty()) {
      volatile uint32_t sink = 0;
      double ns = MedianRoundNs(5, [&] {
        sink = sink ^ Traced("rung.crc32", "", rung++, [&] { return Crc32(l); });
      });
      metrics.Num("common.crc32_ns_per_kb", ns / (l.size() / 1024.0));
      uint64_t records = 0;
      ns = MedianRoundNs(3, [&] {
        Traced("rung.record_decode", "", rung++, [&] {
          records = 0;
          size_t off = 0;
          CRecord rec;
          size_t consumed = 0;
          while (off < l.size() &&
                 CRecord::Decode(Slice(l.data() + off, l.size() - off), &rec,
                                 &consumed)
                     .ok()) {
            off += consumed;
            ++records;
          }
          return records;
        });
      });
      metrics.Num("compliance.record_decode_ns",
                  records > 0 ? ns / records : 0.0);
    }
    const std::string pages =
        ReadPrefix(db->db_path(), 256 * static_cast<size_t>(kPageSize));
    if (!pages.empty()) {
      volatile uint8_t sink = 0;
      double ns = MedianRoundNs(5, [&] {
        Traced("rung.sha256", "", rung++, [&] {
          for (size_t off = 0; off + kPageSize <= pages.size();
               off += kPageSize) {
            sink = sink ^ Sha256::Hash(Slice(pages.data() + off, kPageSize))[0];
          }
          return 0;
        });
      });
      metrics.Num("crypto.sha256_ns_per_kb", ns / (pages.size() / 1024.0));
    }
    // Cache fetch: a fixed page set spread over the file, read cold (after
    // DropAll) and then again while resident.
    BufferCache* cache = db->cache();
    const PageId page_count = db->disk()->PageCount();
    const size_t k = std::min<size_t>(64, cache->capacity() / 4);
    std::vector<PageId> set;
    for (size_t i = 0; i < k; ++i) {
      set.push_back(static_cast<PageId>(1 + i * (page_count - 1) / k));
    }
    auto fetch_all = [&](const char* name) {
      return Traced(name, "", rung++, [&] {
        for (PageId p : set) {
          Page* page = nullptr;
          Check(cache->FetchPage(p, &page, PageLatchMode::kShared), "fetch");
          cache->Unpin(p, false, PageLatchMode::kShared);
        }
        return 0;
      });
    };
    std::vector<double> miss_ns, hit_ns;
    for (int r = 0; r < 5; ++r) {
      Check(cache->DropAll(), "drop cache");
      uint64_t f0 = NowNs();
      fetch_all("rung.fetch_miss");
      uint64_t f1 = NowNs();
      fetch_all("rung.fetch_hit");
      uint64_t f2 = NowNs();
      miss_ns.push_back(static_cast<double>(f1 - f0) / k);
      hit_ns.push_back(static_cast<double>(f2 - f1) / k);
    }
    metrics.Num("storage.cache.fetch_miss_ns", Percentile(miss_ns, 0.5));
    metrics.Num("storage.cache.fetch_hit_ns", Percentile(hit_ns, 0.5));
    // B+-tree point reads on resident STOCK keys.
    Btree* stock_tree = db->tree(env.workload->tables().stock);
    const uint32_t get_keys = 200;
    auto get_all = [&] {
      for (uint32_t i = 1; i <= get_keys; ++i) {
        TupleData t;
        Check(stock_tree->GetLatest(tpcc::StockKey(1, i), &t), "stock get");
      }
    };
    get_all();
    double ns = MedianRoundNs(5, [&] {
      Traced("rung.btree_get", "", rung++, [&] {
        get_all();
        return 0;
      });
    });
    metrics.Num("btree.get_ns", ns / get_keys);
    // Compliance flush: dirty the same page set, FlushAll, per page written.
    std::vector<double> flush_us;
    for (int r = 0; r < 5; ++r) {
      for (PageId p : set) {
        Page* page = nullptr;
        Check(cache->FetchPage(p, &page, PageLatchMode::kExclusive), "fetch");
        cache->Unpin(p, true, PageLatchMode::kExclusive);
      }
      RegistryPoint at = RegistryPoint::Take();
      uint64_t f0 = NowNs();
      Traced("rung.flush_all", "", rung++, [&] { return db->FlushAll(); });
      uint64_t f1 = NowNs();
      RegistryDelta fd;
      fd.AddSince(at);
      uint64_t written = fd.Counter("storage.disk.writes");
      if (written > 0) flush_us.push_back((f1 - f0) / 1e3 / written);
    }
    metrics.Num("compliance.flush_us_per_page", Percentile(flush_us, 0.5));
  }

  // ---- tamper self-check: Mala edits one row of the last episode's closed
  // data file (STOCK row (1, 1), or the first HISTORY row), then re-audit
  if (!opt.tamper.empty() && first.audited) {
    const uint32_t history = env.workload->tables().history;
    const uint32_t ttree =
        opt.tamper == "history" ? history : env.workload->tables().stock;
    std::string tkey = tpcc::StockKey(1, 1);
    if (ttree == history) {
      bool found = false;
      // Busy asks the scan to stop after the first key.
      Check(db->tree(history)->ScanCurrent([&](const TupleData& t) {
        tkey = t.key;
        found = true;
        return Status::Busy("first key found");
      }),
            "history scan");
      if (!found) Die("no HISTORY row to tamper with");
    }
    const DbOptions reopen = env.options;
    Check(db->Close(), "close");
    env.db.reset();
    Mala mala(reopen.dir + "/data.db");
    Check(mala.TamperTupleValue(ttree, tkey), "tamper");
    auto again = CompliantDB::Open(reopen);
    if (!again.ok()) Die("reopen: " + again.status().ToString());
    env.db.reset(again.value());
    std::vector<std::string> tampered;
    auto c2 = env.db->AuditIncremental(1);
    if (c2.ok()) tampered = c2.value().problems;
    auto a2 = env.db->Audit(1);
    if (a2.ok()) {
      tampered.insert(tampered.end(), a2.value().problems.begin(),
                      a2.value().problems.end());
    }
    // The audit names the altered tuple's key in its divergence finding.
    const std::string names_key = "key '" + tkey + "'";
    uint64_t naming_key = 0;
    uint64_t unexpected = 0;
    for (const auto& p : tampered) {
      naming_key += p.find(names_key) != std::string::npos;
      unexpected += !IsKnownHistoryDefect(p, history, env.db->disk());
    }
    verdicts.Num("tamper_audit_problems", static_cast<double>(tampered.size()));
    verdicts.Num("tamper_problems_naming_key", static_cast<double>(naming_key));
    verdicts.Num("tamper_unexpected_problems", static_cast<double>(unexpected));
    verdicts.Raw("tamper_problem_list", StrList(tampered));
  }

  if (opt.trace && !opt.spans_path.empty()) {
    g_spans.Write(opt.spans_path, metrics.str());
  }

  PrintResult(info, metrics, verdicts, attempted, failed,
              episodes_ok && counters_repeat);
  env.Reset();
  return 0;
}

}  // namespace
}  // namespace complydb

int main(int argc, char** argv) { return complydb::Main(argc, argv); }

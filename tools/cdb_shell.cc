// Interactive shell over a complydb directory: transactions, time travel,
// retention, holds, vacuuming, and audits from a prompt.
//
//   cdb_shell <db-dir>
//
// The shell drives a simulated clock seeded from wall time, so `advance`
// can push past regret intervals and retention periods interactively.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "db/compliant_db.h"
#include "db/snapshot_reader.h"
#include "obs/span.h"
#include "obs/trace_export.h"

using namespace complydb;

namespace {

constexpr char kHelp[] =
    "commands:\n"
    "  create <table>                 create a relation\n"
    "  tables                         list relations\n"
    "  put <table> <key> <value>      insert/update (one-statement txn)\n"
    "  del <table> <key>              delete (end-of-life version)\n"
    "  get <table> <key>              current value\n"
    "  history <table> <key>          full version history\n"
    "  asof <table> <key> <micros>    value as of a commit time\n"
    "  scan <table> [limit]           current rows\n"
    "  retention <table> <days>       set the retention policy\n"
    "  vacuum <table>                 shred expired versions\n"
    "  hold <table> <prefix>          place a litigation hold\n"
    "  release <table> <prefix>       release a hold\n"
    "  advance <seconds>              advance the simulated clock\n"
    "  audit [threads]                run the full compliance audit (0 = "
    "all cores)\n"
    "  audit inc [threads]            certify sealed epochs incrementally "
    "(online)\n"
    "  audit status                   certification status (epoch, root, "
    "backlog)\n"
    "  vget <table> <key>             get + verify a Merkle inclusion "
    "proof\n"
    "  stats                          engine statistics\n"
    "  metrics [prom]                 metrics registry (JSON or Prometheus)\n"
    "  trace [--type <span>] [--causal <id>] [--last n]\n"
    "                                 newest matching spans (default 20)\n"
    "  trace export <file>            Chrome trace_event JSON of the spans\n"
    "                                 for chrome://tracing\n"
    "  help | quit\n";

std::vector<std::string> Tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

void PrintStatus(const Status& s) {
  std::printf("%s\n", s.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: cdb_shell <db-dir>\n");
    return 2;
  }
  SystemClock wall;
  SimulatedClock clock(wall.NowMicros());

  DbOptions options;
  options.dir = argv[1];
  options.clock = &clock;
  options.compliance.enabled = true;
  options.compliance.hash_on_read = true;

  auto open = CompliantDB::Open(options);
  if (!open.ok()) {
    std::fprintf(stderr, "open: %s\n", open.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<CompliantDB> db(open.value());
  std::printf("complydb shell — epoch %llu, %zu table(s). Type 'help'.\n",
              static_cast<unsigned long long>(db->epoch()),
              db->ListTables().size());

  std::string line;
  while (std::printf("cdb> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    auto args = Tokenize(line);
    if (args.empty()) continue;
    const std::string& cmd = args[0];

    auto table_id = [&](const std::string& name) -> Result<uint32_t> {
      return db->GetTable(name);
    };

    if (cmd == "quit" || cmd == "exit") {
      break;
    } else if (cmd == "help") {
      std::printf("%s", kHelp);
    } else if (cmd == "create" && args.size() == 2) {
      auto r = db->CreateTable(args[1]);
      PrintStatus(r.status());
    } else if (cmd == "tables") {
      for (const auto& name : db->ListTables()) {
        std::printf("%s\n", name.c_str());
      }
    } else if (cmd == "put" && args.size() >= 4) {
      auto t = table_id(args[1]);
      if (!t.ok()) { PrintStatus(t.status()); continue; }
      // Re-join the value (it may contain spaces).
      std::string value = line.substr(line.find(args[3], line.find(args[2]) +
                                                             args[2].size()));
      auto txn = db->Begin();
      if (!txn.ok()) { PrintStatus(txn.status()); continue; }
      Status s = db->Put(txn.value(), t.value(), args[2], value);
      if (s.ok()) s = db->Commit(txn.value());
      else (void)db->Abort(txn.value());
      PrintStatus(s);
    } else if (cmd == "del" && args.size() == 3) {
      auto t = table_id(args[1]);
      if (!t.ok()) { PrintStatus(t.status()); continue; }
      auto txn = db->Begin();
      if (!txn.ok()) { PrintStatus(txn.status()); continue; }
      Status s = db->Delete(txn.value(), t.value(), args[2]);
      if (s.ok()) s = db->Commit(txn.value());
      else (void)db->Abort(txn.value());
      PrintStatus(s);
    } else if (cmd == "get" && args.size() == 3) {
      auto t = table_id(args[1]);
      if (!t.ok()) { PrintStatus(t.status()); continue; }
      std::string value;
      Status s = db->Get(t.value(), args[2], &value);
      if (s.ok()) std::printf("%s\n", value.c_str());
      else PrintStatus(s);
    } else if (cmd == "history" && args.size() == 3) {
      auto t = table_id(args[1]);
      if (!t.ok()) { PrintStatus(t.status()); continue; }
      std::vector<TupleData> versions;
      Status s = db->GetHistory(t.value(), args[2], &versions);
      if (!s.ok()) { PrintStatus(s); continue; }
      for (const auto& v : versions) {
        std::printf("  @%llu %s%s\n",
                    static_cast<unsigned long long>(v.start),
                    v.eol ? "(deleted)" : v.value.c_str(),
                    v.stamped ? "" : " [unstamped]");
      }
      std::printf("(%zu versions)\n", versions.size());
    } else if (cmd == "asof" && args.size() == 4) {
      auto t = table_id(args[1]);
      if (!t.ok()) { PrintStatus(t.status()); continue; }
      uint64_t at = std::strtoull(args[3].c_str(), nullptr, 10);
      std::string value;
      Status s = db->GetAsOf(t.value(), args[2], at, &value);
      if (s.ok()) std::printf("%s\n", value.c_str());
      else PrintStatus(s);
    } else if (cmd == "scan" && args.size() >= 2) {
      auto t = table_id(args[1]);
      if (!t.ok()) { PrintStatus(t.status()); continue; }
      size_t limit = args.size() >= 3
                         ? std::strtoull(args[2].c_str(), nullptr, 10)
                         : 25;
      size_t shown = 0;
      (void)db->ScanCurrent(t.value(), "", "", [&](const TupleData& row) {
        if (shown++ >= limit) return Status::Busy("stop");
        std::printf("  %s = %s\n", row.key.c_str(), row.value.c_str());
        return Status::OK();
      });
    } else if (cmd == "retention" && args.size() == 3) {
      auto t = table_id(args[1]);
      if (!t.ok()) { PrintStatus(t.status()); continue; }
      uint64_t days = std::strtoull(args[2].c_str(), nullptr, 10);
      PrintStatus(db->SetRetention(t.value(),
                                   days * 24ull * 3600 * 1'000'000));
    } else if (cmd == "vacuum" && args.size() == 2) {
      auto t = table_id(args[1]);
      if (!t.ok()) { PrintStatus(t.status()); continue; }
      auto r = db->Vacuum(t.value());
      if (!r.ok()) { PrintStatus(r.status()); continue; }
      std::printf("candidates=%llu shredded=%llu held=%llu\n",
                  static_cast<unsigned long long>(r.value().candidates),
                  static_cast<unsigned long long>(r.value().shredded),
                  static_cast<unsigned long long>(r.value().held));
    } else if (cmd == "hold" && args.size() == 3) {
      auto t = table_id(args[1]);
      if (!t.ok()) { PrintStatus(t.status()); continue; }
      PrintStatus(db->PlaceHold(t.value(), args[2]));
    } else if (cmd == "release" && args.size() == 3) {
      auto t = table_id(args[1]);
      if (!t.ok()) { PrintStatus(t.status()); continue; }
      PrintStatus(db->ReleaseHold(t.value(), args[2]));
    } else if (cmd == "advance" && args.size() == 2) {
      uint64_t seconds = std::strtoull(args[1].c_str(), nullptr, 10);
      PrintStatus(db->AdvanceClock(seconds * 1'000'000ull));
    } else if (cmd == "audit" && args.size() >= 2 && args[1] == "status") {
      auto r = db->Certification();
      if (!r.ok()) { PrintStatus(r.status()); continue; }
      const auto& cs = r.value();
      if (!cs.enabled) {
        std::printf("incremental certification disabled\n");
        continue;
      }
      std::printf("audit epoch:        %llu\n",
                  static_cast<unsigned long long>(cs.audit_epoch));
      std::printf("certified epochs:   %llu of %llu sealed\n",
                  static_cast<unsigned long long>(cs.certified_seq),
                  static_cast<unsigned long long>(cs.sealed_seq));
      std::printf("certified L bytes:  %llu of %llu\n",
                  static_cast<unsigned long long>(cs.certified_offset),
                  static_cast<unsigned long long>(cs.log_size));
      std::printf("backlog:            %llu epoch(s), %llu byte(s)\n",
                  static_cast<unsigned long long>(cs.backlog_epochs),
                  static_cast<unsigned long long>(cs.backlog_bytes));
      std::printf("chain root:         %s\n",
                  cs.certified_seq == 0 ? "(none)"
                                        : DigestHex(cs.chain_root).c_str());
      std::printf("last incremental:   %.3fs\n",
                  cs.last_incremental_us / 1e6);
    } else if (cmd == "audit" && args.size() >= 2 && args[1] == "inc") {
      uint32_t threads = 1;
      if (args.size() >= 3) {
        threads = static_cast<uint32_t>(
            std::strtoul(args[2].c_str(), nullptr, 10));
      }
      auto r = db->AuditIncremental(threads);
      if (!r.ok()) { PrintStatus(r.status()); continue; }
      const IncrementalAuditReport& rep = r.value();
      std::printf("%s — %llu epoch(s) certified (through #%llu), "
                  "%llu records / %llu bytes replayed, %u thread%s, %.3fs\n",
                  rep.ok() ? "CERTIFIED" : "TAMPERING DETECTED",
                  static_cast<unsigned long long>(rep.epochs_certified),
                  static_cast<unsigned long long>(rep.certified_seq),
                  static_cast<unsigned long long>(rep.records_replayed),
                  static_cast<unsigned long long>(rep.bytes_replayed),
                  rep.threads_used, rep.threads_used == 1 ? "" : "s",
                  rep.seconds);
      if (rep.certified_seq > 0) {
        std::printf("  chain root: %s\n", DigestHex(rep.chain_root).c_str());
      }
      for (const auto& p : rep.problems) {
        std::printf("  - %s\n", p.c_str());
      }
    } else if (cmd == "vget" && args.size() == 3) {
      auto t = table_id(args[1]);
      if (!t.ok()) { PrintStatus(t.status()); continue; }
      auto cert = db->Certification();
      if (!cert.ok()) { PrintStatus(cert.status()); continue; }
      if (cert.value().certified_seq == 0) {
        std::printf("nothing certified yet — run 'audit inc' first\n");
        continue;
      }
      auto snap = db->BeginSnapshot();
      if (!snap.ok()) { PrintStatus(snap.status()); continue; }
      std::unique_ptr<SnapshotReader> reader(snap.value());
      std::string value;
      uint64_t commit_time = 0;
      InclusionProof proof;
      Status s = reader->GetWithProof(t.value(), args[2], &value,
                                      &commit_time, &proof);
      if (!s.ok()) { PrintStatus(s); continue; }
      // Client-side verification against the independently held root: the
      // shell plays the verifier, trusting only the certified chain root.
      Status v = VerifyInclusionProof(proof, cert.value().chain_root,
                                      t.value(), args[2], value, commit_time);
      if (v.ok()) {
        std::printf("%s\n", value.c_str());
        std::printf("  PROVEN @%llu under root %s (%zu chain epochs)\n",
                    static_cast<unsigned long long>(commit_time),
                    DigestHex(cert.value().chain_root).c_str(),
                    proof.chain.size());
      } else {
        std::printf("PROOF REJECTED: %s\n", v.ToString().c_str());
      }
    } else if (cmd == "audit") {
      uint32_t threads = 1;  // serial unless a count is given; 0 = all cores
      if (args.size() >= 2) {
        threads = static_cast<uint32_t>(
            std::strtoul(args[1].c_str(), nullptr, 10));
      }
      auto r = db->Audit(threads);
      if (!r.ok()) { PrintStatus(r.status()); continue; }
      const AuditReport& rep = r.value();
      std::printf("%s — %llu records, %llu tuples, %u thread%s, %.3fs\n",
                  rep.ok() ? "COMPLIANT" : "TAMPERING DETECTED",
                  static_cast<unsigned long long>(rep.log_records),
                  static_cast<unsigned long long>(rep.tuples_checked),
                  rep.threads_used, rep.threads_used == 1 ? "" : "s",
                  rep.timings.total_seconds);
      std::printf("  phases: summarize %.3fs, snapshot %.3fs, replay "
                  "%.3fs, final-state %.3fs, index %.3fs\n",
                  rep.timings.summarize_seconds,
                  rep.timings.snapshot_seconds, rep.timings.replay_seconds,
                  rep.timings.final_state_seconds,
                  rep.timings.index_check_seconds);
      for (const auto& p : rep.problems) {
        std::printf("  - %s\n", p.c_str());
      }
    } else if (cmd == "stats") {
      auto r = db->Stats();
      if (!r.ok()) { PrintStatus(r.status()); continue; }
      std::printf("epoch=%llu cache=%llu/%llu (%zu shards) log=%lluB "
                  "hist=%llu pages\n",
                  static_cast<unsigned long long>(r.value().epoch),
                  static_cast<unsigned long long>(r.value().cache_hits),
                  static_cast<unsigned long long>(r.value().cache_misses),
                  db->cache()->shards(),
                  static_cast<unsigned long long>(
                      r.value().compliance_log_bytes),
                  static_cast<unsigned long long>(
                      r.value().historical_pages));
      std::printf("config: write_threads=%u cache_shards=%zu shipper=%s\n",
                  db->write_threads(), db->cache()->shards(),
                  db->shipper_mode());
      if (auto* pipeline = db->write_pipeline();
          pipeline != nullptr && pipeline->scheduler() != nullptr) {
        auto* sched = pipeline->scheduler();
        std::printf("scheduler: mode=%s admitted_concurrent=%llu "
                    "serialized=%llu fallbacks=%llu conflict_waits=%llu "
                    "declared_hit_rate=%.2f\n",
                    db->scheduler_mode(),
                    static_cast<unsigned long long>(
                        sched->admitted_concurrent()),
                    static_cast<unsigned long long>(sched->serialized()),
                    static_cast<unsigned long long>(
                        sched->footprint_fallbacks()),
                    static_cast<unsigned long long>(
                        sched->conflict_waits()),
                    sched->declared_hit_rate());
      } else {
        std::printf("scheduler: mode=%s\n", db->scheduler_mode());
      }
    } else if (cmd == "metrics") {
      if (args.size() >= 2 && args[1] == "prom") {
        std::printf("%s", db->DumpMetricsPrometheus().c_str());
      } else {
        std::printf("%s\n", db->DumpMetricsJson().c_str());
      }
    } else if (cmd == "trace" && args.size() >= 2 && args[1] == "export") {
      if (args.size() != 3) {
        std::printf("usage: trace export <file>\n");
        continue;
      }
      Status s = obs::WriteChromeTraceFile(args[2]);
      if (s.ok()) {
        std::printf("wrote %s (open in chrome://tracing or "
                    "ui.perfetto.dev)\n", args[2].c_str());
      } else {
        PrintStatus(s);
      }
    } else if (cmd == "trace") {
      // trace [--type <span name>] [--causal <id>] [--last n]; a bare
      // number is the short spelling of --last.
      size_t n = 20;
      std::string type_filter;
      uint64_t causal_filter = 0;
      bool have_causal = false;
      bool bad = false;
      for (size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--type" && i + 1 < args.size()) {
          type_filter = args[++i];
        } else if (args[i] == "--causal" && i + 1 < args.size()) {
          causal_filter = std::strtoull(args[++i].c_str(), nullptr, 10);
          have_causal = true;
        } else if (args[i] == "--last" && i + 1 < args.size()) {
          n = std::strtoull(args[++i].c_str(), nullptr, 10);
        } else if (args[i].find_first_not_of("0123456789") ==
                   std::string::npos) {
          n = std::strtoull(args[i].c_str(), nullptr, 10);
        } else {
          std::printf("trace: unrecognized '%s'\n", args[i].c_str());
          bad = true;
          break;
        }
      }
      if (bad) continue;
      auto& ring = obs::SpanRing::Global();
      auto spans = ring.Snapshot();
      std::vector<const obs::Span*> matched;
      for (const auto& span : spans) {
        if (!type_filter.empty() &&
            type_filter != obs::SpanKindName(span.kind)) {
          continue;
        }
        if (have_causal && span.causal != causal_filter) continue;
        matched.push_back(&span);
      }
      size_t start = matched.size() > n ? matched.size() - n : 0;
      for (size_t i = start; i < matched.size(); ++i) {
        std::printf("%s\n", obs::FormatSpan(*matched[i]).c_str());
      }
      std::printf("(%zu shown of %zu matched, %llu total, %llu dropped)\n",
                  matched.size() - start, matched.size(),
                  static_cast<unsigned long long>(ring.total()),
                  static_cast<unsigned long long>(ring.dropped()));
    } else {
      std::printf("unrecognized; type 'help'\n");
    }
  }
  Status s = db->Close();
  if (!s.ok()) PrintStatus(s);
  return 0;
}

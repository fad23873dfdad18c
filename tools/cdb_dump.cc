// Inspect a complydb directory: list tables, dump current rows or full
// version histories, and show compliance-log statistics.
//
//   cdb_dump <db-dir> tables
//   cdb_dump <db-dir> scan <table> [limit]
//   cdb_dump <db-dir> history <table> <key>
//   cdb_dump <db-dir> log [limit]
//   cdb_dump <db-dir> stats

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "crypto/sha256.h"
#include "db/compliant_db.h"

using namespace complydb;

namespace {

const char* CRecordName(CRecordType type) {
  switch (type) {
    case CRecordType::kNewTuple: return "NEW_TUPLE";
    case CRecordType::kStampTrans: return "STAMP_TRANS";
    case CRecordType::kAbort: return "ABORT";
    case CRecordType::kUndo: return "UNDO";
    case CRecordType::kReadHash: return "READ";
    case CRecordType::kPageSplit: return "PAGE_SPLIT";
    case CRecordType::kRootGrow: return "ROOT_GROW";
    case CRecordType::kMigrate: return "MIGRATE";
    case CRecordType::kShredded: return "SHREDDED";
    case CRecordType::kStartRecovery: return "START_RECOVERY";
    case CRecordType::kHeartbeat: return "HEARTBEAT";
    case CRecordType::kStampPage: return "STAMP_PAGE";
    case CRecordType::kNewTree: return "NEW_TREE";
    case CRecordType::kIndexAdd: return "INDEX_ADD";
    case CRecordType::kIndexRemove: return "INDEX_REMOVE";
    case CRecordType::kReadHashIndex: return "READ_INDEX";
  }
  return "?";
}

std::string Printable(const std::string& s, size_t max = 48) {
  std::string out;
  for (char c : s) {
    if (out.size() >= max) {
      out += "...";
      break;
    }
    if (c >= 0x20 && c < 0x7f) {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x",
                    static_cast<unsigned char>(c));
      out += buf;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: cdb_dump <db-dir> tables\n"
                 "       cdb_dump <db-dir> scan <table> [limit]\n"
                 "       cdb_dump <db-dir> history <table> <key>\n"
                 "       cdb_dump <db-dir> log [limit]\n");
    return 2;
  }
  DbOptions options;
  options.dir = argv[1];
  options.read_only = true;  // inspection must not perturb the evidence
  auto open = CompliantDB::Open(options);
  if (!open.ok()) {
    std::fprintf(stderr, "open: %s\n", open.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<CompliantDB> db(open.value());
  std::string command = argv[2];

  if (command == "tables") {
    for (const auto& name : db->ListTables()) {
      auto id = db->GetTable(name);
      if (!id.ok()) continue;
      auto stats = db->tree(id.value())->CountPages();
      size_t tuples = 0;
      (void)db->tree(id.value())->ScanAll([&](PageId, const TupleData&) {
        ++tuples;
        return Status::OK();
      });
      std::printf("%-24s id=%u  leaf_pages=%zu  versions=%zu\n",
                  name.c_str(), id.value(),
                  stats.ok() ? stats.value().leaf_pages : 0, tuples);
    }
  } else if (command == "scan" && argc >= 4) {
    auto id = db->GetTable(argv[3]);
    if (!id.ok()) {
      std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
      return 2;
    }
    size_t limit = argc >= 5 ? std::strtoull(argv[4], nullptr, 10) : 50;
    size_t shown = 0;
    (void)db->ScanCurrent(id.value(), "", "", [&](const TupleData& t) {
      if (shown++ >= limit) return Status::Busy("stop");
      std::printf("%-32s = %s  (commit %llu)\n", Printable(t.key).c_str(),
                  Printable(t.value).c_str(),
                  static_cast<unsigned long long>(t.start));
      return Status::OK();
    });
    std::printf("(%zu rows shown)\n", shown > limit ? limit : shown);
  } else if (command == "history" && argc >= 5) {
    auto id = db->GetTable(argv[3]);
    if (!id.ok()) {
      std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
      return 2;
    }
    std::vector<TupleData> versions;
    Status s = db->GetHistory(id.value(), argv[4], &versions);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 2;
    }
    for (const auto& v : versions) {
      std::printf("start=%llu %s %s %s\n",
                  static_cast<unsigned long long>(v.start),
                  v.stamped ? "stamped " : "unstamped",
                  v.eol ? "DELETED" : Printable(v.value).c_str(),
                  v.eol ? "(end of life)" : "");
    }
    std::printf("(%zu versions)\n", versions.size());
  } else if (command == "log") {
    size_t limit = argc >= 4 ? std::strtoull(argv[3], nullptr, 10) : 50;
    auto* logger = db->compliance_logger();
    if (logger->log() == nullptr) {
      std::fprintf(stderr, "compliance logging disabled\n");
      return 2;
    }
    size_t shown = 0;
    std::map<std::string, size_t> counts;
    (void)logger->log()->Scan([&](const CRecord& rec, uint64_t off) {
      ++counts[CRecordName(rec.type)];
      if (shown++ < limit) {
        std::printf("@%-8llu %-14s tree=%u pgno=%u txn=%llu commit=%llu %s\n",
                    static_cast<unsigned long long>(off),
                    CRecordName(rec.type), rec.tree_id, rec.pgno,
                    static_cast<unsigned long long>(rec.txn_id),
                    static_cast<unsigned long long>(rec.commit_time),
                    Printable(rec.key, 24).c_str());
      }
      return Status::OK();
    });
    std::printf("--- totals (epoch %llu, %llu bytes) ---\n",
                static_cast<unsigned long long>(db->epoch()),
                static_cast<unsigned long long>(logger->log()->size()));
    for (const auto& [name, count] : counts) {
      std::printf("%-16s %zu\n", name.c_str(), count);
    }
  } else if (command == "stats") {
    auto stats = db->Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 2;
    }
    const auto& st = stats.value();
    std::printf("epoch:              %llu\n",
                static_cast<unsigned long long>(st.epoch));
    std::printf("cache hits/misses:  %llu / %llu (%.1f%% hit rate)\n",
                static_cast<unsigned long long>(st.cache_hits),
                static_cast<unsigned long long>(st.cache_misses),
                st.cache_hits + st.cache_misses == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(st.cache_hits) /
                          static_cast<double>(st.cache_hits +
                                              st.cache_misses));
    std::printf("disk reads/writes:  %llu / %llu\n",
                static_cast<unsigned long long>(st.disk_reads),
                static_cast<unsigned long long>(st.disk_writes));
    std::printf("wal bytes (epoch):  %llu\n",
                static_cast<unsigned long long>(st.wal_bytes));
    std::printf("compliance log:     %llu bytes, %llu records\n",
                static_cast<unsigned long long>(st.compliance_log_bytes),
                static_cast<unsigned long long>(st.compliance_log_records));
    std::printf("historical (WORM):  %llu pages, %llu tuples\n",
                static_cast<unsigned long long>(st.historical_pages),
                static_cast<unsigned long long>(st.historical_tuples));
    std::printf("worm violations:    %llu\n",
                static_cast<unsigned long long>(st.worm_violations));
    std::printf("%-24s %8s %8s %10s\n", "table", "leaves", "inner",
                "versions");
    for (const auto& t : st.tables) {
      std::printf("%-24s %8zu %8zu %10zu\n", t.name.c_str(), t.leaf_pages,
                  t.internal_pages, t.versions);
    }
  } else {
    std::fprintf(stderr, "unknown command\n");
    return 2;
  }
  (void)db->Close();
  return 0;
}

// Figure 4 (a)(b): effect of the time-split threshold on the number of
// live pages and WORM (historic) pages, for a STOCK-shaped relation
// (skewed: few hot keys updated many times) and an ORDER_LINE-shaped
// relation (uniform: each key updated at most once).
//
// Paper shapes to reproduce:
//  - STOCK: historic pages appear even at low thresholds (skew forces
//    time splits); live pages dip around the initial fill factor.
//  - ORDER_LINE: no historic pages below threshold 0.5; historic pages
//    climb rapidly at high thresholds while live pages shrink slowly.
//
//   ./bench_fig4_tsb [keys] [updates]

#include <vector>

#include "bench_util.h"
#include "tpcc/tpcc_random.h"

using namespace complydb;
using namespace complydb::bench;

namespace {

struct Shape {
  const char* label;
  bool skewed;  // STOCK-like vs ORDER_LINE-like
};

int RunShape(const Shape& shape, uint64_t keys, uint64_t updates) {
  std::printf("\n=== Fig 4 %s (%llu keys, %llu updates) ===\n", shape.label,
              static_cast<unsigned long long>(keys),
              static_cast<unsigned long long>(updates));
  std::printf("%10s %12s %15s\n", "threshold", "live_pages", "historic_pages");

  for (double threshold : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                           0.9, 1.0}) {
    std::string dir = BenchDir("fig4");
    std::filesystem::remove_all(dir);
    SimulatedClock clock;
    DbOptions options;
    options.dir = dir;
    options.cache_pages = 512;
    options.clock = &clock;
    options.compliance.enabled = true;
    options.compliance.regret_interval_micros = 5 * kMinute;
    options.tsb_enabled = true;
    options.tsb_split_threshold = threshold;

    auto open = CompliantDB::Open(options);
    if (!open.ok()) {
      std::fprintf(stderr, "open: %s\n", open.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<CompliantDB> db(open.value());
    auto table = db->CreateTable("relation");
    if (!table.ok()) return 1;
    uint32_t tid = table.value();
    tpcc::TpccRandom rng(99);

    auto put = [&](uint64_t k, int round) -> Status {
      auto txn = db->Begin();
      CDB_RETURN_IF_ERROR(txn.status());
      char key[24];
      std::snprintf(key, sizeof(key), "key%08llu",
                    static_cast<unsigned long long>(k));
      // Variable row sizes (like real relations) diversify page fill
      // factors, so the threshold sweep sees a spread of distinct-key
      // fractions instead of one cliff.
      std::string value = "r";
      value += std::to_string(round);
      value += '-';
      value += rng.AString(10, 90);
      CDB_RETURN_IF_ERROR(db->Put(txn.value(), tid, key, value));
      return db->Commit(txn.value());
    };

    // Initial load: every key once.
    for (uint64_t k = 0; k < keys; ++k) {
      if (!put(k, 0).ok()) return 1;
    }
    // Updates: skewed (NURand over keys — STOCK) or at-most-once uniform
    // in shuffled order (ORDER_LINE: deliveries lag orders, so a page's
    // updates arrive spread over time, already commit-stamped).
    std::vector<uint64_t> uniform_order(keys);
    for (uint64_t k = 0; k < keys; ++k) uniform_order[k] = k;
    for (uint64_t k = keys; k > 1; --k) {
      std::swap(uniform_order[k - 1], uniform_order[rng.raw()->Uniform(k)]);
    }
    for (uint64_t u = 0; u < updates; ++u) {
      uint64_t k;
      if (shape.skewed) {
        k = rng.ItemId(static_cast<uint32_t>(keys)) - 1;
      } else {
        if (u >= keys) break;  // at most one update per key
        k = uniform_order[u];
      }
      if (!put(k, 1 + static_cast<int>(u / keys)).ok()) return 1;
      clock.AdvanceMicros(kMinute / 100);
    }
    if (!db->FlushAll().ok()) return 1;

    auto stats = db->tree(tid)->CountPages();
    if (!stats.ok()) return 1;
    std::printf("%10.1f %12zu %15llu\n", threshold,
                stats.value().leaf_pages,
                static_cast<unsigned long long>(
                    db->historical()->page_count()));
    if (!db->Close().ok()) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path = StripMetricsJsonFlag(&argc, argv, "fig4_tsb");
  Timer run_timer;
  uint64_t keys = ArgOr(argc, argv, 1, 2000);
  uint64_t updates = ArgOr(argc, argv, 2, 8000);

  // STOCK in the paper: 400K updates on 100K tuples, heavily skewed.
  Shape stock{"(a) STOCK-shaped (skewed updates)", true};
  // ORDER_LINE: 118K updates on 100K tuples, each tuple at most once.
  Shape order_line{"(b) ORDER_LINE-shaped (uniform, <=1 update/key)", false};

  int rc = RunShape(stock, keys, updates);
  if (rc != 0) return rc;
  rc = RunShape(order_line, keys, keys);  // at-most-once => updates = keys
  if (rc != 0) return rc;

  std::printf("\nExpected shape: STOCK migrates pages even at threshold 0; "
              "ORDER_LINE migrates none below 0.5 and blows up historic "
              "pages at high thresholds.\n");
  Status ms = WriteMetricsJson(metrics_path, "fig4_tsb", run_timer.Seconds());
  if (!ms.ok()) {
    std::fprintf(stderr, "%s\n", ms.ToString().c_str());
    return 1;
  }
  return 0;
}

// Randomized end-to-end property tests: under arbitrary interleavings of
// transactions, aborts, deletes, clock jumps, crashes, vacuums, and
// audits, (1) reads always match a reference model, (2) every audit
// passes, and (3) version history is exact. Then, with a single random
// file-editor attack injected, the next audit must fail.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/mala.h"
#include "common/random.h"
#include "db/compliant_db.h"
#include "test_dir.h"

namespace complydb {
namespace {

constexpr uint64_t kMinute = 60ull * 1'000'000;

class ChaosTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  DbOptions MakeOptions() {
    DbOptions opts;
    opts.dir = dir_;
    opts.cache_pages = 48;  // small: plenty of eviction/steal traffic
    opts.clock = &clock_;
    opts.compliance.enabled = true;
    opts.compliance.hash_on_read = (GetParam() % 2) == 0;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    opts.tsb_enabled = (GetParam() % 3) == 0;
    opts.tsb_split_threshold = 0.5;
    return opts;
  }

  void Open() {
    auto r = CompliantDB::Open(MakeOptions());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    db_.reset(r.value());
  }

  SimulatedClock clock_;
  testutil::TestDir test_dir_;
  std::string dir_;
  std::unique_ptr<CompliantDB> db_;
};

TEST_P(ChaosTest, RandomWorkloadStaysAuditClean) {
  dir_ = test_dir_.Reset("chaos_" + std::to_string(GetParam()));
  Random rng(GetParam());
  Open();

  auto t = db_->CreateTable("chaos");
  ASSERT_TRUE(t.ok());
  uint32_t table = t.value();

  // Reference model: committed current value per key (nullopt = deleted
  // or never existed), plus full committed version history.
  std::map<std::string, std::optional<std::string>> model;
  std::map<std::string, std::vector<std::pair<std::string, bool>>> history;

  const int kSteps = 500;
  int audits = 0;
  for (int step = 0; step < kSteps; ++step) {
    uint64_t op = rng.Uniform(100);
    std::string key = "key" + std::to_string(rng.Uniform(60));

    if (op < 45) {
      // Committed single put.
      std::string value = rng.Bytes(1 + rng.Uniform(80));
      auto txn = db_->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(db_->Put(txn.value(), table, key, value).ok());
      ASSERT_TRUE(db_->Commit(txn.value()).ok());
      model[key] = value;
      history[key].emplace_back(value, false);
    } else if (op < 55) {
      // Committed delete (if live).
      if (model.count(key) > 0 && model[key].has_value()) {
        auto txn = db_->Begin();
        ASSERT_TRUE(txn.ok());
        ASSERT_TRUE(db_->Delete(txn.value(), table, key).ok());
        ASSERT_TRUE(db_->Commit(txn.value()).ok());
        model[key] = std::nullopt;
        history[key].emplace_back("", true);
      }
    } else if (op < 70) {
      // Multi-key transaction, committed or aborted.
      auto txn = db_->Begin();
      ASSERT_TRUE(txn.ok());
      std::map<std::string, std::string> writes;
      size_t n = 1 + rng.Uniform(5);
      for (size_t i = 0; i < n; ++i) {
        std::string k = "key" + std::to_string(rng.Uniform(60));
        if (writes.count(k) > 0) continue;
        std::string v = rng.Bytes(1 + rng.Uniform(60));
        ASSERT_TRUE(db_->Put(txn.value(), table, k, v).ok());
        writes[k] = v;
      }
      if (rng.OneIn(3)) {
        ASSERT_TRUE(db_->Abort(txn.value()).ok());
      } else {
        ASSERT_TRUE(db_->Commit(txn.value()).ok());
        for (auto& [k, v] : writes) {
          model[k] = v;
          history[k].emplace_back(v, false);
        }
      }
    } else if (op < 78) {
      // Time passes (regret-interval work fires).
      ASSERT_TRUE(db_->AdvanceClock(rng.Uniform(10 * kMinute)).ok());
    } else if (op < 86) {
      // Crash and recover.
      db_.reset();
      Open();
    } else if (op < 92) {
      // Verify a random read against the model.
      std::string got;
      Status s = db_->Get(table, key, &got);
      auto it = model.find(key);
      if (it != model.end() && it->second.has_value()) {
        ASSERT_TRUE(s.ok()) << "step " << step << " key " << key << ": "
                            << s.ToString();
        EXPECT_EQ(got, *it->second);
      } else {
        EXPECT_TRUE(s.IsNotFound()) << "step " << step << " key " << key;
      }
    } else {
      // Audit (must always pass on an honest run).
      auto report = db_->Audit();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_TRUE(report.value().ok())
          << "step " << step << ", audit #" << audits << ", first problem: "
          << report.value().problems[0];
      ++audits;
    }
  }

  // Final sweep: every key matches the model; history is exact.
  for (const auto& [key, expect] : model) {
    std::string got;
    Status s = db_->Get(table, key, &got);
    if (expect.has_value()) {
      ASSERT_TRUE(s.ok()) << key;
      EXPECT_EQ(got, *expect) << key;
    } else {
      EXPECT_TRUE(s.IsNotFound()) << key;
    }
    std::vector<TupleData> versions;
    ASSERT_TRUE(db_->GetHistory(table, key, &versions).ok());
    const auto& h = history[key];
    ASSERT_EQ(versions.size(), h.size()) << key;
    for (size_t i = 0; i < h.size(); ++i) {
      EXPECT_EQ(versions[i].value, h[i].first) << key << " version " << i;
      EXPECT_EQ(versions[i].eol, h[i].second) << key << " version " << i;
    }
  }
  auto final_report = db_->Audit();
  ASSERT_TRUE(final_report.ok());
  EXPECT_TRUE(final_report.value().ok())
      << "final audit, first problem: " << final_report.value().problems[0];
  EXPECT_GT(final_report.status().ok() ? 1 : 0, 0);

  // --- Now inject one random attack; the next audit must fail. ---------
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();
  Mala mala(dir_ + "/data.db");
  Status attack;
  switch (rng.Uniform(4)) {
    case 0: {
      // Tamper some live key's value.
      for (const auto& [key, expect] : model) {
        if (expect.has_value() && !expect->empty()) {
          attack = mala.TamperTupleValue(table, key);
          break;
        }
      }
      break;
    }
    case 1:
      attack = mala.SwapLeafEntries(table);
      break;
    case 2:
      attack = mala.InsertBackdatedTuple(table, "keyX-forged", "forged",
                                         kMinute);
      break;
    default:
      attack = mala.TamperInternalKey(table);
      break;
  }
  if (!attack.ok()) {
    // Some attacks need structure that this run didn't build (e.g., no
    // internal pages yet); that's fine — fall back to a value tamper.
    for (const auto& [key, expect] : model) {
      if (expect.has_value() && !expect->empty()) {
        attack = mala.TamperTupleValue(table, key);
        break;
      }
    }
  }
  ASSERT_TRUE(attack.ok()) << attack.ToString();

  Open();
  auto tampered_report = db_->Audit();
  ASSERT_TRUE(tampered_report.ok());
  EXPECT_FALSE(tampered_report.value().ok())
      << "the injected attack went undetected";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12, 13, 14, 15, 16));

}  // namespace
}  // namespace complydb

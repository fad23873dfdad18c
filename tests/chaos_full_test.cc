// Full-feature chaos: randomized interleavings of transactions, aborts,
// secondary-index lookups, retention changes, vacuums, litigation holds,
// clock jumps, crashes, and audits. Invariants: reads and index lookups
// always match the model, vacuums never touch current data or held keys,
// and every audit passes.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "common/random.h"
#include "db/compliant_db.h"
#include "test_dir.h"

namespace complydb {
namespace {

constexpr uint64_t kMinute = 60ull * 1'000'000;
constexpr uint64_t kDay = 24ull * 3600 * 1'000'000;

// Rows are "<tag>|<payload>"; the index extracts the tag.
Result<std::string> TagExtractor(Slice value) {
  std::string v = value.ToString();
  size_t pos = v.find('|');
  if (pos == std::string::npos) return Status::InvalidArgument("no tag");
  return v.substr(0, pos);
}

class ChaosFullTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  DbOptions MakeOptions() {
    DbOptions opts;
    opts.dir = dir_;
    opts.cache_pages = 48;
    opts.clock = &clock_;
    opts.compliance.enabled = true;
    opts.compliance.hash_on_read = (GetParam() % 2) == 1;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    return opts;
  }

  void Open() {
    auto r = CompliantDB::Open(MakeOptions());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    db_.reset(r.value());
    if (table_ != 0) {
      auto idx = db_->AttachIndex(table_, "by_tag", TagExtractor);
      ASSERT_TRUE(idx.ok()) << idx.status().ToString();
      index_ = idx.value();
    }
  }

  SimulatedClock clock_;
  testutil::TestDir test_dir_;
  std::string dir_;
  uint32_t table_ = 0;
  uint32_t index_ = 0;
  std::unique_ptr<CompliantDB> db_;
};

TEST_P(ChaosFullTest, EverythingEverywhereStaysAuditClean) {
  dir_ = test_dir_.Reset("chaosfull_" + std::to_string(GetParam()));
  Random rng(GetParam() * 7919);
  Open();

  auto t = db_->CreateTable("chaos");
  ASSERT_TRUE(t.ok());
  table_ = t.value();
  auto idx = db_->CreateIndex(table_, "by_tag", TagExtractor);
  ASSERT_TRUE(idx.ok());
  index_ = idx.value();
  ASSERT_TRUE(db_->SetRetention(table_, 30 * kDay).ok());

  const char* kTags[] = {"RED", "BLUE", "GREEN"};
  std::map<std::string, std::optional<std::string>> model;
  std::set<std::string> held;

  auto tag_of = [](const std::string& value) {
    return value.substr(0, value.find('|'));
  };

  const int kSteps = 400;
  for (int step = 0; step < kSteps; ++step) {
    uint64_t op = rng.Uniform(100);
    std::string key = "key" + std::to_string(rng.Uniform(40));

    if (op < 40) {
      std::string value = std::string(kTags[rng.Uniform(3)]) + "|" +
                          rng.Bytes(1 + rng.Uniform(50));
      auto txn = db_->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(db_->Put(txn.value(), table_, key, value).ok());
      if (rng.OneIn(5)) {
        ASSERT_TRUE(db_->Abort(txn.value()).ok());
      } else {
        ASSERT_TRUE(db_->Commit(txn.value()).ok());
        model[key] = value;
      }
    } else if (op < 48) {
      if (model.count(key) > 0 && model[key].has_value()) {
        auto txn = db_->Begin();
        ASSERT_TRUE(txn.ok());
        ASSERT_TRUE(db_->Delete(txn.value(), table_, key).ok());
        ASSERT_TRUE(db_->Commit(txn.value()).ok());
        model[key] = std::nullopt;
      }
    } else if (op < 58) {
      // Index lookup must match the model exactly.
      std::string tag = kTags[rng.Uniform(3)];
      std::set<std::string> expect;
      for (const auto& [k, v] : model) {
        if (v.has_value() && tag_of(*v) == tag) expect.insert(k);
      }
      std::set<std::string> got;
      ASSERT_TRUE(db_->ScanIndex(index_, tag,
                                 [&](Slice primary) {
                                   got.insert(primary.ToString());
                                   return Status::OK();
                                 })
                      .ok());
      EXPECT_EQ(got, expect) << "step " << step << " tag " << tag;
    } else if (op < 66) {
      // Point read vs model.
      std::string got;
      Status s = db_->Get(table_, key, &got);
      auto it = model.find(key);
      if (it != model.end() && it->second.has_value()) {
        ASSERT_TRUE(s.ok()) << "step " << step;
        EXPECT_EQ(got, *it->second);
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    } else if (op < 72) {
      // Holds come and go.
      if (held.count(key) > 0) {
        ASSERT_TRUE(db_->ReleaseHold(table_, key).ok());
        held.erase(key);
      } else {
        ASSERT_TRUE(db_->PlaceHold(table_, key).ok());
        held.insert(key);
      }
    } else if (op < 80) {
      // Time passes — sometimes far enough to expire history.
      uint64_t jump = rng.OneIn(4) ? (31 * kDay) : rng.Uniform(20 * kMinute);
      ASSERT_TRUE(db_->AdvanceClock(jump).ok());
    } else if (op < 86) {
      // Vacuum: never touches current values or held keys.
      auto before = model;
      auto vac = db_->Vacuum(table_);
      ASSERT_TRUE(vac.ok()) << vac.status().ToString();
      for (const auto& [k, v] : before) {
        std::string got;
        Status s = db_->Get(table_, k, &got);
        if (v.has_value()) {
          ASSERT_TRUE(s.ok()) << "vacuum destroyed current key " << k;
          EXPECT_EQ(got, *v);
        } else {
          EXPECT_TRUE(s.IsNotFound());
        }
      }
    } else if (op < 93) {
      db_.reset();  // crash
      Open();
    } else {
      auto report = db_->Audit();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_TRUE(report.value().ok())
          << "step " << step
          << ", first problem: " << report.value().problems[0];
    }
  }

  // Held keys must still have their full histories intact if they were
  // ever superseded while held (spot check: the audit passes).
  ASSERT_TRUE(db_->FlushAll().ok());
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok())
      << "final audit, first problem: " << report.value().problems[0];
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosFullTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12));

}  // namespace
}  // namespace complydb

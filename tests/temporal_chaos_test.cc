// Randomized temporal property test: under arbitrary interleavings of
// commits, aborts, deletes, clock jumps, crashes, and audits, AS-OF
// queries at ANY instant — exact commit boundaries, one tick either
// side, random times, and the far future — must match a reference
// timeline keyed by the real commit times, through the database and
// through a snapshot pinned at the end of the run.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "db/compliant_db.h"
#include "db/snapshot_reader.h"
#include "test_dir.h"

namespace complydb {
namespace {

constexpr uint64_t kMinute = 60ull * 1'000'000;

// Per-key committed timeline: (commit_time, value-or-deleted), times
// strictly increasing (commit ticks are monotonic; one write per key
// per transaction).
using Timeline = std::vector<std::pair<uint64_t, std::optional<std::string>>>;

// The state of `events` as of time `at`: the last event with time <= at.
std::optional<std::string> StateAsOf(const Timeline& events, uint64_t at) {
  std::optional<std::string> state;
  for (const auto& [time, value] : events) {
    if (time > at) break;
    state = value;
  }
  return state;
}

class TemporalChaosTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  DbOptions MakeOptions() {
    DbOptions opts;
    opts.dir = dir_;
    opts.cache_pages = 48;
    opts.clock = &clock_;
    opts.compliance.enabled = true;
    opts.compliance.hash_on_read = (GetParam() % 2) == 0;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    opts.tsb_enabled = (GetParam() % 2) == 1;  // exercise migrated history
    opts.tsb_split_threshold = 0.6;
    return opts;
  }

  void Open() {
    auto r = CompliantDB::Open(MakeOptions());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    db_.reset(r.value());
  }

  // Checks a read's outcome against the model's state.
  static void ExpectState(Status s, const std::string& got,
                          const std::optional<std::string>& expect,
                          const std::string& what) {
    if (expect.has_value()) {
      ASSERT_TRUE(s.ok()) << what << ": " << s.ToString();
      EXPECT_EQ(got, *expect) << what;
    } else {
      EXPECT_TRUE(s.IsNotFound()) << what << " should not exist, got "
                                  << got;
    }
  }

  // Checks GetAsOf against the model at one (key, time) point: the
  // database's, and the pinned snapshot's when `at` is at or before its
  // pin.
  void CheckAsOf(uint32_t table, const std::string& key,
                 const Timeline& events, uint64_t at) {
    std::optional<std::string> expect = StateAsOf(events, at);
    std::string what = "key " + key + " at " + std::to_string(at);
    std::string got;
    ExpectState(db_->GetAsOf(table, key, at, &got), got, expect, what);
    if (snap_ != nullptr && at <= snap_->snapshot_time()) {
      ExpectState(snap_->GetAsOf(table, key, at, &got), got, expect,
                  "snapshot " + what);
    }
  }

  SimulatedClock clock_;
  testutil::TestDir test_dir_;
  std::string dir_;
  std::unique_ptr<CompliantDB> db_;
  std::unique_ptr<SnapshotReader> snap_;  // released before db_
};

TEST_P(TemporalChaosTest, AsOfMatchesModelAtEveryInstant) {
  dir_ = test_dir_.Reset("tchaos_" + std::to_string(GetParam()));
  Random rng(GetParam() * 104729);
  Open();

  auto t = db_->CreateTable("ledger");
  ASSERT_TRUE(t.ok());
  uint32_t table = t.value();

  std::map<std::string, Timeline> model;
  uint64_t first_commit = 0, last_commit = 0;
  auto record = [&](const std::string& key,
                    std::optional<std::string> value) {
    uint64_t when = db_->txns()->last_commit_time();
    if (first_commit == 0) first_commit = when;
    last_commit = when;
    model[key].emplace_back(when, std::move(value));
  };

  const int kSteps = 250;
  for (int step = 0; step < kSteps; ++step) {
    uint64_t op = rng.Uniform(100);
    std::string key = "acct" + std::to_string(rng.Uniform(30));

    if (op < 40) {
      // Committed single put.
      std::string value = rng.Bytes(1 + rng.Uniform(70));
      auto txn = db_->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(db_->Put(txn.value(), table, key, value).ok());
      ASSERT_TRUE(db_->Commit(txn.value()).ok());
      record(key, value);
    } else if (op < 50) {
      // Committed delete of a live key.
      auto it = model.find(key);
      if (it != model.end() && !it->second.empty() &&
          it->second.back().second.has_value()) {
        auto txn = db_->Begin();
        ASSERT_TRUE(txn.ok());
        ASSERT_TRUE(db_->Delete(txn.value(), table, key).ok());
        ASSERT_TRUE(db_->Commit(txn.value()).ok());
        record(key, std::nullopt);
      }
    } else if (op < 62) {
      // Multi-key transaction: every key stamps the same commit time.
      auto txn = db_->Begin();
      ASSERT_TRUE(txn.ok());
      std::map<std::string, std::string> writes;
      size_t n = 1 + rng.Uniform(4);
      for (size_t i = 0; i < n; ++i) {
        std::string k = "acct" + std::to_string(rng.Uniform(30));
        if (writes.count(k) > 0) continue;
        std::string v = rng.Bytes(1 + rng.Uniform(50));
        ASSERT_TRUE(db_->Put(txn.value(), table, k, v).ok());
        writes[k] = v;
      }
      if (rng.OneIn(4)) {
        ASSERT_TRUE(db_->Abort(txn.value()).ok());  // invisible to AS-OF
      } else {
        ASSERT_TRUE(db_->Commit(txn.value()).ok());
        for (auto& [k, v] : writes) record(k, v);
      }
    } else if (op < 75) {
      ASSERT_TRUE(db_->AdvanceClock(1 + rng.Uniform(8 * kMinute)).ok());
    } else if (op < 84) {
      db_.reset();  // crash; recovery must re-stamp pending versions
      Open();
    } else if (op < 92) {
      // Mid-run spot check at a random past instant.
      if (last_commit > 0) {
        uint64_t at = first_commit + rng.Uniform(last_commit -
                                                 first_commit + 2);
        CheckAsOf(table, key, model[key], at);
      }
    } else {
      auto report = db_->Audit();  // epoch rotation must not lose history
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_TRUE(report.value().ok())
          << "step " << step
          << ", first problem: " << report.value().problems[0];
    }
  }
  ASSERT_GT(last_commit, 0u);
  auto snap = db_->BeginSnapshot();
  ASSERT_TRUE(snap.ok());
  snap_.reset(snap.value());
  ASSERT_GE(snap_->snapshot_time(), last_commit);

  // Exhaustive sweep: every key, at every commit boundary, one tick
  // either side of it, random interior instants, and the far future;
  // the snapshot's Get must see each key's state at its pin.
  for (const auto& [key, events] : model) {
    std::string got;
    ExpectState(snap_->Get(table, key, &got), got,
                StateAsOf(events, snap_->snapshot_time()),
                "snapshot Get of " + key);
    for (const auto& [time, value] : events) {
      CheckAsOf(table, key, events, time);
      CheckAsOf(table, key, events, time - 1);
      CheckAsOf(table, key, events, time + 1);
    }
    for (int i = 0; i < 12; ++i) {
      uint64_t at =
          first_commit - 1 + rng.Uniform(last_commit - first_commit + 3);
      CheckAsOf(table, key, events, at);
    }
    CheckAsOf(table, key, events, last_commit + 365ull * 24 * 3600 *
                                                     1'000'000);
  }

  // A key never written is absent at every instant.
  static const Timeline kEmpty;
  CheckAsOf(table, "never-written", kEmpty, first_commit);
  CheckAsOf(table, "never-written", kEmpty, last_commit);

  // And the whole run still audits clean (Audit is Busy while a snapshot
  // is open).
  snap_.reset();
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok())
      << "final audit, first problem: " << report.value().problems[0];
}

INSTANTIATE_TEST_SUITE_P(Seeds, TemporalChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace complydb

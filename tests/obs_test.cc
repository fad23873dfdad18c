#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "db/compliant_db.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "prom_parser.h"
#include "test_dir.h"
#include "tpcc/workload.h"

namespace complydb {
namespace obs {
namespace {

constexpr uint64_t kMinute = 60ull * 1'000'000;

// --- Histogram ----------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds exactly 0; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(1), 1);
  EXPECT_EQ(Histogram::BucketFor(2), 2);
  EXPECT_EQ(Histogram::BucketFor(3), 2);
  EXPECT_EQ(Histogram::BucketFor(4), 3);
  EXPECT_EQ(Histogram::BucketFor(7), 3);
  EXPECT_EQ(Histogram::BucketFor(8), 4);
  EXPECT_EQ(Histogram::BucketFor(1023), 10);
  EXPECT_EQ(Histogram::BucketFor(1024), 11);
  // Values past the top bucket clamp instead of overflowing.
  EXPECT_EQ(Histogram::BucketFor(~0ull), Histogram::kBuckets - 1);

  for (int b = 1; b < Histogram::kBuckets - 1; ++b) {
    EXPECT_EQ(Histogram::BucketFor(Histogram::BucketLower(b)), b);
    EXPECT_EQ(Histogram::BucketFor(Histogram::BucketUpper(b) - 1), b);
    EXPECT_EQ(Histogram::BucketFor(Histogram::BucketUpper(b)), b + 1);
  }
}

TEST(HistogramTest, CountSumMax) {
  Histogram h;
  h.Record(10);
  h.Record(100);
  h.Record(1000);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.SumMicros(), 1110u);
  EXPECT_EQ(h.MaxMicros(), 1000u);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.SumMicros(), 0u);
  EXPECT_EQ(h.MaxMicros(), 0u);
}

TEST(HistogramTest, QuantileExtraction) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);  // empty
  // 100 samples uniform over bucket [64, 128): quantiles interpolate
  // within the bucket, so p50 lands near the middle and p99 near the top.
  for (int i = 0; i < 100; ++i) h.Record(64 + (i * 64) / 100);
  double p50 = h.Quantile(0.5);
  double p99 = h.Quantile(0.99);
  EXPECT_GE(p50, 64.0);
  EXPECT_LT(p50, 128.0);
  EXPECT_GT(p99, p50);
  EXPECT_LE(p99, 128.0);

  // Bimodal: 90 fast samples at ~1us, 10 slow at ~1ms. p50 stays in the
  // fast bucket, p95+ jumps to the slow one.
  Histogram h2;
  for (int i = 0; i < 90; ++i) h2.Record(1);
  for (int i = 0; i < 10; ++i) h2.Record(1000);
  EXPECT_LT(h2.Quantile(0.5), 2.1);
  EXPECT_GE(h2.Quantile(0.95), 512.0);
}

TEST(HistogramTest, ConcurrentRecordsFrom8Threads) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t * 100 + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads * kPerThread));
  uint64_t bucket_total = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) bucket_total += h.BucketCount(b);
  EXPECT_EQ(bucket_total, h.Count());
}

// --- Counter / registry -------------------------------------------------

TEST(CounterTest, ConcurrentIncrementsFrom8Threads) {
  auto& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("obs_test.concurrent");
  c->Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(RegistryTest, StableAddressesAndSnapshot) {
  auto& reg = MetricsRegistry::Global();
  Counter* a = reg.GetCounter("obs_test.stable");
  Counter* b = reg.GetCounter("obs_test.stable");
  EXPECT_EQ(a, b);  // same name resolves to the same metric
  a->Reset();
  a->Inc(7);
  reg.GetHistogram("obs_test.stable_us")->Record(33);

  auto snap = reg.TakeSnapshot();
  bool found_counter = false, found_hist = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "obs_test.stable") {
      found_counter = true;
      EXPECT_EQ(value, 7u);
    }
  }
  for (const auto& h : snap.histograms) {
    if (h.name == "obs_test.stable_us") {
      found_hist = true;
      EXPECT_GE(h.count, 1u);
    }
  }
  EXPECT_TRUE(found_counter);
  EXPECT_TRUE(found_hist);

  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"obs_test.stable\": 7"), std::string::npos);
  std::string prom = reg.ToPrometheusText();
  EXPECT_NE(prom.find("complydb_obs_test_stable 7"), std::string::npos);
}

TEST(RegistryTest, GaugeRoundTrip) {
  auto& reg = MetricsRegistry::Global();
  Gauge* g = reg.GetGauge("obs_test.gauge");
  g->Set(-5);
  g->Add(15);
  EXPECT_EQ(g->Value(), 10);
}

// --- Prometheus exposition ----------------------------------------------

TEST(PromExportTest, EscapeLabelValue) {
  EXPECT_EQ(PromEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(PromEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(PromEscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(PromEscapeLabelValue("two\nlines"), "two\\nlines");
  EXPECT_EQ(PromEscapeLabelValue("\\\"\n"), "\\\\\\\"\\n");
}

TEST(PromExportTest, MetricNameSanitization) {
  EXPECT_EQ(PromMetricName("db.commit_us"), "complydb_db_commit_us");
  EXPECT_EQ(PromMetricName("a-b.c"), "complydb_a_b_c");
}

TEST(PromExportTest, StrictParserAcceptsRegistryOutput) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("obs_test.prom_counter")->Inc(3);
  reg.GetGauge("obs_test.prom_gauge")->Set(-2);
  Histogram* h = reg.GetHistogram("obs_test.prom_us");
  for (uint64_t v : {1ull, 5ull, 100ull, 10000ull}) h->Record(v);

  testutil::PromParser parser;
  ASSERT_TRUE(parser.Parse(reg.ToPrometheusText())) << parser.error();

  auto& fams = parser.families();
  auto counter = fams.find("complydb_obs_test_prom_counter");
  ASSERT_NE(counter, fams.end());
  EXPECT_EQ(counter->second.type, "counter");
  EXPECT_GE(parser.Value("complydb_obs_test_prom_counter"), 3.0);

  auto gauge = fams.find("complydb_obs_test_prom_gauge");
  ASSERT_NE(gauge, fams.end());
  EXPECT_EQ(gauge->second.type, "gauge");
  EXPECT_DOUBLE_EQ(parser.Value("complydb_obs_test_prom_gauge"), -2.0);

  auto hist = fams.find("complydb_obs_test_prom_us");
  ASSERT_NE(hist, fams.end());
  EXPECT_EQ(hist->second.type, "histogram");
  // Quantiles live in a separate gauge family, not inside the histogram.
  auto quant = fams.find("complydb_obs_test_prom_us_quantile");
  ASSERT_NE(quant, fams.end());
  EXPECT_EQ(quant->second.type, "gauge");
  EXPECT_EQ(quant->second.samples.size(), 3u);  // p50/p95/p99
}

TEST(PromExportTest, StrictParserRejectsMalformedInput) {
  testutil::PromParser p;
  // Sample without a preceding TYPE.
  EXPECT_FALSE(p.Parse("orphan_metric 1\n"));
  // Unknown type keyword.
  EXPECT_FALSE(p.Parse("# TYPE m widget\nm 1\n"));
  // Negative counter.
  EXPECT_FALSE(p.Parse("# TYPE m counter\nm -1\n"));
  // Bad escape in a label value.
  EXPECT_FALSE(p.Parse("# TYPE m gauge\nm{l=\"a\\t\"} 1\n"));
  // Unterminated label set.
  EXPECT_FALSE(p.Parse("# TYPE m gauge\nm{l=\"a\" 1\n"));
  // Histogram bucket counts must be cumulative.
  EXPECT_FALSE(p.Parse(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n"
      "h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n"));
  // +Inf bucket must equal _count.
  EXPECT_FALSE(p.Parse(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 6\n"));
  // le bounds must increase.
  EXPECT_FALSE(p.Parse(
      "# TYPE h histogram\n"
      "h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\n"
      "h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n"));
  // A well-formed histogram passes.
  EXPECT_TRUE(p.Parse(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 2\nh_bucket{le=\"4\"} 3\n"
      "h_bucket{le=\"+Inf\"} 4\nh_sum 11\nh_count 4\n"))
      << p.error();
}

// --- SpanRing / commit decomposition ------------------------------------

TEST(SpanRingTest, WraparoundKeepsNewest) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "span emission compiled out";
  SpanRing ring(32);
  EXPECT_EQ(ring.capacity(), 32u);
  for (uint64_t i = 0; i < 100; ++i) {
    ring.Emit(SpanKind::kWalFsync, /*causal=*/i, /*start_us=*/i * 10,
              /*end_us=*/i * 10 + 5, /*arg=*/i);
  }
  EXPECT_EQ(ring.total(), 100u);
  EXPECT_EQ(ring.dropped(), 100u - 32u);
  auto spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 32u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].seq, 68 + i);
    EXPECT_EQ(spans[i].causal, 68 + i);
    EXPECT_EQ(spans[i].end_us - spans[i].start_us, 5u);
  }
}

TEST(SpanRingTest, DisabledEmitsNothing) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "span emission compiled out";
  SpanRing ring(16);
  ring.SetEnabled(false);
  ring.Emit(SpanKind::kCommit, 1, 10, 20);
  EXPECT_EQ(ring.total(), 0u);
  ring.SetEnabled(true);
  ring.Emit(SpanKind::kCommit, 1, 10, 20);
  EXPECT_EQ(ring.total(), 1u);
}

TEST(SpanRingTest, ConcurrentEmitsAreRaceFree) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "span emission compiled out";
  SpanRing ring(256);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ring.Emit(SpanKind::kShipperDrain, t, i, i + 1);
      }
    });
  }
  for (int i = 0; i < 10; ++i) (void)ring.Snapshot();
  for (auto& t : threads) t.join();
  EXPECT_EQ(ring.total(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(ring.Snapshot().size(), ring.capacity());
}

TEST(SpanRingTest, SnapshotNeverReturnsTornSpans) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "span emission compiled out";
  // A tiny ring makes emitters overwrite the slots a snapshot is reading.
  // Every emitted span satisfies causal == start == arg and
  // end == start + 1, so a span stitched from two emits breaks them.
  SpanRing ring(4);
  constexpr int kEmitters = 3;
  std::atomic<bool> stop{false};
  std::vector<std::thread> emitters;
  for (int t = 0; t < kEmitters; ++t) {
    emitters.emplace_back([&ring, &stop, t] {
      for (uint64_t v = t; !stop.load(std::memory_order_relaxed);
           v += kEmitters) {
        ring.Emit(SpanKind::kShipperDrain, v, v, v + 1, v);
      }
    });
  }
  uint64_t returned = 0;
  uint64_t torn = 0;
  const uint64_t deadline = MonotonicMicros() + 10'000'000;
  while (returned < 100000 && MonotonicMicros() < deadline) {
    for (const Span& s : ring.Snapshot()) {
      ++returned;
      if (s.causal != s.start_us || s.arg != s.start_us ||
          s.end_us != s.start_us + 1 || s.kind != SpanKind::kShipperDrain) {
        ++torn;
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : emitters) t.join();
  EXPECT_EQ(torn, 0u) << "of " << returned << " returned spans";
  EXPECT_GT(returned, 0u);
}

TEST(SpanTest, NamesEverySpanKind) {
  for (int i = 0; i < static_cast<int>(SpanKind::kSpanKindCount); ++i) {
    Span s;
    s.kind = static_cast<SpanKind>(i);
    std::string line = FormatSpan(s);
    EXPECT_FALSE(line.empty());
    EXPECT_EQ(line.find('?'), std::string::npos) << "unnamed span kind " << i;
  }
  // The maintenance kinds keep the names the docs and shell filters use.
  EXPECT_STREQ(SpanKindName(SpanKind::kRegretTick), "regret.tick");
  EXPECT_STREQ(SpanKindName(SpanKind::kVacuumShred), "vacuum.shred");
  for (int i = 0; i <= static_cast<int>(AuditPhase::kTotal); ++i) {
    EXPECT_STRNE(AuditPhaseName(static_cast<AuditPhase>(i)), "?");
  }
}

TEST(SpanTest, FormatClampsNegativeDuration) {
  Span s;
  s.start_us = 100;
  s.end_us = 40;  // a torn or clock-skewed span must not print 2^64 - 60
  EXPECT_NE(FormatSpan(s).find("dur=0us"), std::string::npos)
      << FormatSpan(s);
}

TEST(SpanTest, CommitDecompositionSumsToTotal) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
  auto& reg = MetricsRegistry::Global();
  reg.ResetAll();
  SpanRing::Global().Reset();
  {
    ScopedCommitSpan span(/*txn_id=*/42);
    span.set_commit_time(777);
    // Simulate the shipper layers attributing intervals to this commit.
    // The attributed time must fit inside the real elapsed span (the
    // residual only clamps when attribution exceeds the total), so burn
    // real wall time before closing.
    uint64_t t0 = MonotonicMicros();
    RecordQueuedInterval(t0, t0 + 100);
    RecordDrainInterval(t0 + 100, t0 + 150, /*bytes=*/64, /*batch_id=*/9);
    RecordWormFlushInterval(t0 + 150, t0 + 200, /*batch_id=*/9);
    while (MonotonicMicros() - t0 < 300) {
      std::this_thread::yield();
    }
  }
  auto spans = SpanRing::Global().Snapshot();
  const Span* commit = nullptr;
  uint64_t seg_sum = 0;
  int segments = 0;
  for (const auto& s : spans) {
    if (s.kind == SpanKind::kCommit) {
      commit = &s;
      EXPECT_EQ(s.causal, 42u);
      EXPECT_EQ(s.arg, 777u);
    } else if (s.kind == SpanKind::kCommitForeground ||
               s.kind == SpanKind::kCommitQueued ||
               s.kind == SpanKind::kCommitDrain ||
               s.kind == SpanKind::kCommitWormFlush) {
      EXPECT_EQ(s.causal, 42u);
      seg_sum += s.end_us - s.start_us;
      ++segments;
    }
  }
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(segments, 4);
  EXPECT_EQ(seg_sum, commit->end_us - commit->start_us);

  // The four critical-path histograms each saw exactly this commit, and
  // their sums reproduce the same identity.
  uint64_t hist_sum = 0;
  for (const char* name :
       {"db.commit_critical_path.foreground_us",
        "db.commit_critical_path.queued_us",
        "db.commit_critical_path.drain_us",
        "db.commit_critical_path.worm_us"}) {
    Histogram* h = reg.GetHistogram(name);
    EXPECT_EQ(h->Count(), 1u) << name;
    hist_sum += h->SumMicros();
  }
  EXPECT_EQ(hist_sum, commit->end_us - commit->start_us);
  EXPECT_EQ(reg.GetHistogram("db.commit_critical_path.queued_us")
                ->SumMicros(),
            100u);
  EXPECT_EQ(reg.GetHistogram("db.commit_critical_path.drain_us")->SumMicros(),
            50u);
  EXPECT_EQ(reg.GetHistogram("db.commit_critical_path.worm_us")->SumMicros(),
            50u);
}

TEST(SpanTest, UnattributedIntervalsBecomeShipperSpans) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "metrics compiled out";
  SpanRing::Global().Reset();
  ASSERT_FALSE(ActiveCommitSegments()->active);
  uint64_t now = MonotonicMicros();
  RecordDrainInterval(now - 90, now - 50, /*bytes=*/128, /*batch_id=*/7);
  RecordWormFlushInterval(now - 50, now - 10, /*batch_id=*/7);
  auto spans = SpanRing::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].kind, SpanKind::kShipperDrain);
  EXPECT_EQ(spans[0].causal, 7u);
  EXPECT_EQ(spans[0].arg, 128u);
  EXPECT_EQ(spans[1].kind, SpanKind::kShipperWormFlush);
  EXPECT_EQ(spans[1].causal, 7u);
}

// --- Chrome trace export ------------------------------------------------

TEST(TraceExportTest, EmitsValidChromeJson) {
  std::vector<Span> spans;
  Span s;
  s.seq = 1;
  s.kind = SpanKind::kCommit;
  s.causal = 5;
  s.start_us = 1000;
  s.end_us = 1400;
  s.arg = 99;
  s.tid = 3;
  spans.push_back(s);
  s.seq = 2;
  s.kind = SpanKind::kAuditPhase;
  s.causal = 2;
  s.arg = static_cast<uint64_t>(AuditPhase::kReplay);
  spans.push_back(s);

  // A span whose end precedes its start exports with dur 0.
  s.seq = 3;
  s.kind = SpanKind::kRegretTick;
  s.start_us = 2000;
  s.end_us = 1990;
  spans.push_back(s);

  std::string json = ChromeTraceJson(spans);
  while (!json.empty() && json.back() == '\n') json.pop_back();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // The commit span: a complete event with duration 400 us.
  EXPECT_NE(json.find("\"name\":\"commit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":400"), std::string::npos);
  // The audit span names its phase.
  EXPECT_NE(json.find("audit.phase.replay"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"regret.tick\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0,"), std::string::npos);
  EXPECT_EQ(json.find("\"dur\":-"), std::string::npos);
  // One process track: a single process_name record, every event on pid 1.
  size_t metas = 0;
  for (size_t at = json.find("process_name"); at != std::string::npos;
       at = json.find("process_name", at + 1)) {
    ++metas;
  }
  EXPECT_EQ(metas, 1u);
  EXPECT_EQ(json.find("\"pid\":2"), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"i\""), std::string::npos);
  // Braces and brackets balance (cheap structural sanity, no JSON lib).
  int depth = 0, sq = 0;
  bool in_str = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_str) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (c == '"') in_str = true;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (c == '[') ++sq;
    if (c == ']') --sq;
    EXPECT_GE(depth, 0);
    EXPECT_GE(sq, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(sq, 0);
}

// --- integration: a TPC-C run populates the pipeline metrics ------------

TEST(ObsIntegrationTest, TpccRunProducesPipelineMetrics) {
  testutil::TestDir test_dir("obs_tpcc");
  const std::string& dir = test_dir.path();
  auto& reg = MetricsRegistry::Global();
  reg.ResetAll();
  SpanRing::Global().Reset();

  SimulatedClock clock;
  DbOptions opts;
  opts.dir = dir;
  opts.cache_pages = 256;
  opts.clock = &clock;
  opts.compliance.enabled = true;
  opts.compliance.regret_interval_micros = 5 * kMinute;

  auto open = CompliantDB::Open(opts);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  std::unique_ptr<CompliantDB> db(open.value());

  tpcc::Scale scale;
  scale.warehouses = 1;
  scale.districts_per_warehouse = 2;
  scale.customers_per_district = 10;
  scale.items = 50;
  scale.initial_orders_per_district = 10;
  tpcc::Workload workload(db.get(), scale, 42);
  ASSERT_TRUE(workload.CreateOrAttachTables().ok());
  ASSERT_TRUE(workload.Load().ok());

  tpcc::MixStats stats;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(workload.RunMix(1, &stats).ok());
    clock.AdvanceMicros(kMinute);
    ASSERT_TRUE(db->AdvanceClock(0).ok());
  }
  ASSERT_TRUE(db->FlushAll().ok());

  // The whole pipeline reported in: compliance appends, WAL fsyncs,
  // transactions, WORM appends, regret ticks.
  EXPECT_GT(reg.GetCounter("compliance.records")->Value(), 0u);
  EXPECT_GT(reg.GetCounter("wal.fsyncs")->Value(), 0u);
  EXPECT_GT(reg.GetCounter("wal.appends")->Value(), 0u);
  EXPECT_GT(reg.GetCounter("txn.commits")->Value(), 0u);
  EXPECT_GT(reg.GetCounter("worm.appends")->Value(), 0u);
  EXPECT_GT(reg.GetCounter("db.regret_ticks")->Value(), 0u);
  EXPECT_GT(reg.GetCounter("storage.cache.hits")->Value(), 0u);
  if (kMetricsCompiledIn) {
    EXPECT_GT(reg.GetHistogram("wal.fsync_us")->Count(), 0u);
    // The span ring saw the commits, their WAL fsyncs and the ticks.
    uint64_t commits = 0, fsyncs = 0, ticks = 0;
    for (const Span& s : SpanRing::Global().Snapshot()) {
      commits += s.kind == SpanKind::kCommit;
      fsyncs += s.kind == SpanKind::kWalFsync;
      ticks += s.kind == SpanKind::kRegretTick;
    }
    EXPECT_GT(commits, 0u);
    EXPECT_GT(fsyncs, 0u);
    EXPECT_GT(ticks, 0u);
  }

  // Per-instance counters still back the facade's DbStats (Stats() itself
  // touches the cache, so compare against a floor taken before the call).
  uint64_t hits_before = db->cache()->hits();
  uint64_t reads_before = db->disk()->reads();
  auto db_stats = db->Stats();
  ASSERT_TRUE(db_stats.ok());
  EXPECT_GE(db_stats.value().cache_hits, hits_before);
  EXPECT_GE(db_stats.value().disk_reads, reads_before);
  EXPECT_GT(db_stats.value().cache_hits, 0u);

  // The exporters render the populated registry.
  std::string json = db->DumpMetricsJson();
  EXPECT_NE(json.find("\"wal.fsyncs\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  std::string prom = db->DumpMetricsPrometheus();
  EXPECT_NE(prom.find("complydb_wal_fsyncs"), std::string::npos);
  testutil::PromParser parser;
  EXPECT_TRUE(parser.Parse(prom)) << parser.error();

  ASSERT_TRUE(db->Close().ok());
}

// A regret tick (causal = audit epoch, arg = pages forced) and a vacuum
// pass (causal = tree id, arg = tuples shredded) each record a span.
TEST(ObsIntegrationTest, RegretTickAndVacuumEmitSpans) {
  if (!kMetricsCompiledIn) GTEST_SKIP() << "span emission compiled out";
  constexpr uint64_t kDay = 24 * 60 * kMinute;
  testutil::TestDir test_dir("obs_spans");
  SimulatedClock clock;
  DbOptions opts;
  opts.dir = test_dir.path();
  opts.cache_pages = 64;
  opts.clock = &clock;
  opts.compliance.enabled = true;
  opts.compliance.regret_interval_micros = 5 * kMinute;
  auto open = CompliantDB::Open(opts);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  std::unique_ptr<CompliantDB> db(open.value());
  auto table = db->CreateTable("docs");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(db->SetRetention(table.value(), kDay).ok());
  auto put = [&](const std::string& value) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db->Put(txn.value(), table.value(), "doc", value).ok());
    ASSERT_TRUE(db->Commit(txn.value()).ok());
  };
  auto spans_of = [](SpanKind kind) {
    std::vector<Span> out;
    for (const Span& s : SpanRing::Global().Snapshot()) {
      if (s.kind == kind) out.push_back(s);
    }
    return out;
  };

  // Dirty pages, then cross the regret interval twice: the first tick
  // marks the dirty pages, the second forces them.
  put("v1");
  ASSERT_TRUE(db->AdvanceClock(5 * kMinute).ok());
  SpanRing::Global().Reset();
  uint64_t writes_before = db->disk()->writes();
  ASSERT_TRUE(db->AdvanceClock(5 * kMinute).ok());
  auto ticks = spans_of(SpanKind::kRegretTick);
  ASSERT_EQ(ticks.size(), 1u);
  EXPECT_EQ(ticks[0].causal, db->epoch());
  EXPECT_GT(ticks[0].arg, 0u);
  EXPECT_EQ(ticks[0].arg, db->disk()->writes() - writes_before);
  EXPECT_GE(ticks[0].end_us, ticks[0].start_us);

  // Supersede v1, audit, and let it expire: the vacuum pass shreds it.
  clock.AdvanceMicros(kMinute);
  put("v2");
  auto audit = db->Audit();
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  ASSERT_TRUE(audit.value().ok());
  clock.AdvanceMicros(2 * kDay);
  SpanRing::Global().Reset();
  auto vacuum = db->Vacuum(table.value());
  ASSERT_TRUE(vacuum.ok()) << vacuum.status().ToString();
  ASSERT_EQ(vacuum.value().shredded, 1u);
  auto passes = spans_of(SpanKind::kVacuumShred);
  ASSERT_FALSE(passes.empty());
  EXPECT_EQ(passes[0].causal, table.value());
  EXPECT_EQ(passes[0].arg, 1u);

  ASSERT_TRUE(db->Close().ok());
}

}  // namespace
}  // namespace obs
}  // namespace complydb

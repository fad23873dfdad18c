#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>

namespace complydb {
namespace obs {

namespace {
std::atomic<bool> g_sampling{true};

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::string PromMetricName(const std::string& name) {
  std::string out = "complydb_";
  for (char c : name) {
    out.push_back((c == '.' || c == '-') ? '_' : c);
  }
  return out;
}

std::string PromEscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

bool SamplingEnabled() {
  return g_sampling.load(std::memory_order_relaxed);
}

void SetSampling(bool enabled) {
  g_sampling.store(enabled, std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const {
  uint64_t buckets[kBuckets];
  uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    buckets[i] = BucketCount(i);
    total += buckets[i];
  }
  if (total == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target sample, 1-based; ceil so that q=0.5 of 2 samples
  // picks the first.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (cumulative + buckets[i] >= rank) {
      double lower = static_cast<double>(BucketLower(i));
      double upper = static_cast<double>(BucketUpper(i));
      double within =
          static_cast<double>(rank - cumulative) / static_cast<double>(buckets[i]);
      return lower + (upper - lower) * within;
    }
    cumulative += buckets[i];
  }
  return static_cast<double>(MaxMicros());
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_us_.store(0, std::memory_order_relaxed);
  max_us_.store(0, std::memory_order_relaxed);
}

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  // Deques give stable addresses; the maps index them by name.
  std::deque<Counter> counter_pool;
  std::deque<Gauge> gauge_pool;
  std::deque<Histogram> histogram_pool;
  std::map<std::string, Counter*> counters;
  std::map<std::string, Gauge*> gauges;
  std::map<std::string, Histogram*> histograms;
};

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::MetricsRegistry() : impl_(new Impl()) {}

MetricsRegistry::~MetricsRegistry() { delete impl_; }

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->counters.find(name);
  if (it != impl_->counters.end()) return it->second;
  impl_->counter_pool.emplace_back();
  Counter* c = &impl_->counter_pool.back();
  impl_->counters[name] = c;
  return c;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->gauges.find(name);
  if (it != impl_->gauges.end()) return it->second;
  impl_->gauge_pool.emplace_back();
  Gauge* g = &impl_->gauge_pool.back();
  impl_->gauges[name] = g;
  return g;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->histograms.find(name);
  if (it != impl_->histograms.end()) return it->second;
  impl_->histogram_pool.emplace_back();
  Histogram* h = &impl_->histogram_pool.back();
  impl_->histograms[name] = h;
  return h;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, c] : impl_->counters) c->Reset();
  for (auto& [name, g] : impl_->gauges) g->Reset();
  for (auto& [name, h] : impl_->histograms) h->Reset();
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Snapshot snap;
  snap.counters.reserve(impl_->counters.size());
  for (const auto& [name, c] : impl_->counters) {
    snap.counters.emplace_back(name, c->Value());
  }
  snap.gauges.reserve(impl_->gauges.size());
  for (const auto& [name, g] : impl_->gauges) {
    snap.gauges.emplace_back(name, g->Value());
  }
  snap.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, h] : impl_->histograms) {
    HistogramSnapshot hs;
    hs.name = name;
    // The count is the sum of the buckets as read: a Record racing this
    // snapshot then never leaves the +Inf bucket below a finite one.
    hs.buckets.resize(Histogram::kBuckets);
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      hs.buckets[i] = h->BucketCount(i);
      hs.count += hs.buckets[i];
    }
    hs.sum_us = h->SumMicros();
    hs.max_us = h->MaxMicros();
    hs.p50 = h->Quantile(0.50);
    hs.p95 = h->Quantile(0.95);
    hs.p99 = h->Quantile(0.99);
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

std::string MetricsRegistry::ToJson() const {
  Snapshot snap = TakeSnapshot();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + std::to_string(v);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + std::to_string(v);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& h : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + h.name + "\": {\"count\": " + std::to_string(h.count) +
           ", \"sum_us\": " + std::to_string(h.sum_us) +
           ", \"max_us\": " + std::to_string(h.max_us) +
           ", \"p50_us\": " + FormatDouble(h.p50) +
           ", \"p95_us\": " + FormatDouble(h.p95) +
           ", \"p99_us\": " + FormatDouble(h.p99) + ", \"buckets\": [";
    // Trailing zero buckets are elided; bucket i covers [2^(i-1), 2^i).
    int last = Histogram::kBuckets - 1;
    while (last > 0 && h.buckets[last] == 0) --last;
    for (int i = 0; i <= last; ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.buckets[i]);
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::string MetricsRegistry::ToPrometheusText() const {
  Snapshot snap = TakeSnapshot();
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    std::string p = PromMetricName(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    std::string p = PromMetricName(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + std::to_string(v) + "\n";
  }
  for (const auto& h : snap.histograms) {
    std::string p = PromMetricName(h.name);
    out += "# TYPE " + p + " histogram\n";
    uint64_t cumulative = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      cumulative += h.buckets[i];
      out += p + "_bucket{le=\"" +
             std::to_string(Histogram::BucketUpper(i)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += p + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += p + "_sum " + std::to_string(h.sum_us) + "\n";
    out += p + "_count " + std::to_string(h.count) + "\n";
    // Quantile estimates live in their own gauge family: a histogram
    // family may only carry _bucket/_sum/_count samples, and a strict
    // parser (tests/prom_parser.h) rejects anything else.
    out += "# TYPE " + p + "_quantile gauge\n";
    out += p + "_quantile{quantile=\"0.5\"} " + FormatDouble(h.p50) + "\n";
    out += p + "_quantile{quantile=\"0.95\"} " + FormatDouble(h.p95) + "\n";
    out += p + "_quantile{quantile=\"0.99\"} " + FormatDouble(h.p99) + "\n";
  }
  return out;
}

}  // namespace obs
}  // namespace complydb

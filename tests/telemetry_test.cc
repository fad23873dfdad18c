#include "obs/telemetry_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "db/compliant_db.h"
#include "obs/metrics.h"
#include "prom_parser.h"
#include "test_dir.h"
#include "tpcc/workload.h"

namespace complydb {
namespace obs {
namespace {

constexpr uint64_t kMinute = 60ull * 1'000'000;

/// Minimal blocking HTTP GET against 127.0.0.1:`port`. Returns the whole
/// response (status line + headers + body) or "" on connect failure.
std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  const char* p = req.data();
  size_t left = req.size();
  while (left > 0) {
    ssize_t n = ::send(fd, p, left, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

int StatusCode(const std::string& response) {
  // "HTTP/1.0 200 OK\r\n..."
  size_t sp = response.find(' ');
  if (sp == std::string::npos) return -1;
  return std::atoi(response.c_str() + sp + 1);
}

std::string Body(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(TelemetryServerTest, ServesRoutesOnEphemeralPort) {
  auto start = TelemetryServer::Start(0);
  ASSERT_TRUE(start.ok()) << start.status().ToString();
  std::unique_ptr<TelemetryServer> server = start.TakeValue();
  ASSERT_GT(server->port(), 0);

  std::string health = HttpGet(server->port(), "/healthz");
  EXPECT_EQ(StatusCode(health), 200);
  EXPECT_EQ(Body(health), "ok\n");

  MetricsRegistry::Global().GetCounter("telemetry_test.pings")->Inc(5);
  std::string metrics = HttpGet(server->port(), "/metrics");
  EXPECT_EQ(StatusCode(metrics), 200);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  testutil::PromParser parser;
  EXPECT_TRUE(parser.Parse(Body(metrics))) << parser.error();
  if (kMetricsCompiledIn) {
    EXPECT_GE(parser.Value("complydb_telemetry_test_pings"), 5.0);
  }
  EXPECT_NE(Body(metrics).find("complydb_build_info"), std::string::npos);

  std::string json = HttpGet(server->port(), "/metrics.json");
  EXPECT_EQ(StatusCode(json), 200);
  EXPECT_NE(Body(json).find("\"counters\""), std::string::npos);

  std::string trace = HttpGet(server->port(), "/trace");
  EXPECT_EQ(StatusCode(trace), 200);
  EXPECT_NE(Body(trace).find("\"traceEvents\""), std::string::npos);

  EXPECT_EQ(StatusCode(HttpGet(server->port(), "/nope")), 404);
  EXPECT_GE(server->requests_served(), 5u);
  server->Stop();
}

TEST(TelemetryServerTest, PortCollisionFailsCleanly) {
  auto first = TelemetryServer::Start(0);
  ASSERT_TRUE(first.ok());
  auto second = TelemetryServer::Start(first.value()->port());
  EXPECT_FALSE(second.ok());
}

TEST(TelemetryServerTest, StopIsIdempotent) {
  auto start = TelemetryServer::Start(0);
  ASSERT_TRUE(start.ok());
  auto server = start.TakeValue();
  server->Stop();
  server->Stop();
  // Connections after Stop are refused, not hung.
  EXPECT_EQ(HttpGet(server->port(), "/healthz"), "");
}

// The acceptance check: /metrics stays parseable strict Prometheus text
// while a TPC-C load is committing underneath it.
TEST(TelemetryServerTest, MetricsParseableDuringTpccLoad) {
  testutil::TestDir test_dir("telemetry_tpcc");
  const std::string& dir = test_dir.path();

  SimulatedClock clock;
  DbOptions opts;
  opts.dir = dir;
  opts.cache_pages = 256;
  opts.clock = &clock;
  opts.compliance.enabled = true;
  opts.compliance.regret_interval_micros = 5 * kMinute;
  opts.telemetry_port = 0;  // opt-in, ephemeral

  // Clear the env override so the test controls the port choice.
  ::unsetenv("COMPLYDB_TELEMETRY_PORT");
  auto open = CompliantDB::Open(opts);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  std::unique_ptr<CompliantDB> db(open.value());
  // Port 0 means "disabled" for the DB-level knob; start one explicitly
  // beside the DB the way the bench smoke does.
  auto start = TelemetryServer::Start(0);
  ASSERT_TRUE(start.ok()) << start.status().ToString();
  auto server = start.TakeValue();

  tpcc::Scale scale;
  scale.warehouses = 1;
  scale.districts_per_warehouse = 2;
  scale.customers_per_district = 10;
  scale.items = 50;
  scale.initial_orders_per_district = 10;
  tpcc::Workload workload(db.get(), scale, 7);
  ASSERT_TRUE(workload.CreateOrAttachTables().ok());
  ASSERT_TRUE(workload.Load().ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> scrape_failed{false};
  std::string scrape_error;
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::string response = HttpGet(server->port(), "/metrics");
      if (StatusCode(response) != 200) {
        scrape_error = "non-200 from /metrics";
        scrape_failed.store(true);
        return;
      }
      testutil::PromParser parser;
      if (!parser.Parse(Body(response))) {
        scrape_error = parser.error();
        scrape_failed.store(true);
        return;
      }
    }
  });

  tpcc::MixStats stats;
  for (int i = 0; i < 60 && !scrape_failed.load(); ++i) {
    ASSERT_TRUE(workload.RunMix(1, &stats).ok());
    clock.AdvanceMicros(kMinute);
  }
  stop.store(true);
  scraper.join();
  EXPECT_FALSE(scrape_failed.load()) << scrape_error;

  // The load actually showed up in what the endpoint serves.
  std::string response = HttpGet(server->port(), "/metrics");
  ASSERT_EQ(StatusCode(response), 200);
  testutil::PromParser parser;
  ASSERT_TRUE(parser.Parse(Body(response))) << parser.error();
  if (kMetricsCompiledIn) {
    EXPECT_GT(parser.Value("complydb_txn_commits"), 0.0);
  }

  server->Stop();
  ASSERT_TRUE(db->Close().ok());
}

// The DB-level knob: a non-zero telemetry_port starts a server inside
// CompliantDB::Open and tears it down on Close.
TEST(TelemetryServerTest, DbOptionStartsServer) {
  testutil::TestDir test_dir("telemetry_dbopt");
  const std::string& dir = test_dir.path();
  ::unsetenv("COMPLYDB_TELEMETRY_PORT");

  // Grab an ephemeral port, free it, and hand it to the DB. (Racy in
  // principle; fine for a loopback test.)
  uint16_t port;
  {
    auto probe = TelemetryServer::Start(0);
    ASSERT_TRUE(probe.ok());
    port = probe.value()->port();
  }

  DbOptions opts;
  opts.dir = dir;
  opts.cache_pages = 64;
  opts.telemetry_port = port;
  auto open = CompliantDB::Open(opts);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  std::unique_ptr<CompliantDB> db(open.value());
  ASSERT_NE(db->telemetry(), nullptr);
  EXPECT_EQ(db->telemetry()->port(), port);
  EXPECT_EQ(StatusCode(HttpGet(port, "/healthz")), 200);
  ASSERT_TRUE(db->Close().ok());
}

}  // namespace
}  // namespace obs
}  // namespace complydb

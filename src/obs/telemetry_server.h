#ifndef COMPLYDB_OBS_TELEMETRY_SERVER_H_
#define COMPLYDB_OBS_TELEMETRY_SERVER_H_

// Minimal embedded HTTP/1.0 telemetry endpoint — the deliberate seed of
// the ROADMAP's network serving layer. One poll-loop thread, POSIX
// sockets only, loopback bind, connection-per-request:
//
//   GET /metrics       Prometheus text exposition of the global registry
//   GET /metrics.json  the same registry as JSON
//   GET /trace         Chrome trace_event JSON of the span ring
//   GET /healthz       "ok" liveness probe
//
// Opt-in: CompliantDB starts one when DbOptions.telemetry_port (or the
// COMPLYDB_TELEMETRY_PORT environment override) is non-zero. Tests pass
// port 0 for a kernel-assigned ephemeral port and read it back via
// port(). Serving never touches engine state — it renders the process-
// wide obs singletons, so it stays safe while transactions run.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "common/status.h"

namespace complydb {
namespace obs {

class TelemetryServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the serving
  /// thread. Fails if the port is taken.
  static Result<std::unique_ptr<TelemetryServer>> Start(uint16_t port);

  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// The bound port (resolves ephemeral binds).
  uint16_t port() const { return port_; }

  /// Stops the serving thread and closes the listener. Idempotent; also
  /// run by the destructor.
  void Stop();

  /// Requests served so far (tests / smoke checks).
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  TelemetryServer() = default;
  void Loop();
  void HandleConnection(int fd);

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> requests_{0};
  std::thread thread_;
};

}  // namespace obs
}  // namespace complydb

#endif  // COMPLYDB_OBS_TELEMETRY_SERVER_H_

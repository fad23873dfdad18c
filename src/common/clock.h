#ifndef COMPLYDB_COMMON_CLOCK_H_
#define COMPLYDB_COMMON_CLOCK_H_

#include <atomic>
#include <cstdint>
#include <memory>

namespace complydb {

/// Time source used for commit times, regret-interval bookkeeping, WORM
/// create times, and retention checks. All times are microseconds.
///
/// Two implementations: SystemClock (wall clock) and SimulatedClock
/// (manually advanced). Tests and benchmarks use the simulated clock so
/// that regret intervals can elapse instantly and runs are deterministic —
/// the paper's 5-minute regret interval becomes a single Advance() call.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in microseconds since an arbitrary epoch.
  virtual uint64_t NowMicros() = 0;
};

/// Real wall-clock time (CLOCK_REALTIME).
class SystemClock : public Clock {
 public:
  uint64_t NowMicros() override;
};

/// Manually advanced clock. Starts at a nonzero epoch so that time 0 can
/// mean "never" in file formats. The counter is atomic because other
/// threads (pipeline writers, the epoch sealer) read it while the driving
/// thread advances time.
class SimulatedClock : public Clock {
 public:
  explicit SimulatedClock(uint64_t start_micros = 1'000'000)
      : now_(start_micros) {}

  uint64_t NowMicros() override {
    return now_.load(std::memory_order_relaxed);
  }

  void AdvanceMicros(uint64_t d) {
    now_.fetch_add(d, std::memory_order_relaxed);
  }
  void AdvanceSeconds(uint64_t s) {
    now_.fetch_add(s * 1'000'000ull, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> now_;
};

}  // namespace complydb

#endif  // COMPLYDB_COMMON_CLOCK_H_

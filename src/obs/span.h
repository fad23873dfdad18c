#ifndef COMPLYDB_OBS_SPAN_H_
#define COMPLYDB_OBS_SPAN_H_

// Span tracing for the compliance pipeline: the one event record the
// engine keeps. A span is a closed interval [start_us, end_us) carrying a
// *causal key* — the txn id for commit-path work, the shipper batch id
// for background drains, the epoch for audit phases and regret ticks, the
// tree id for TSB migration and vacuum — so a slow commit can be
// decomposed after the fact into where the time actually went:
//
//   commit (txn)            — the whole client-visible CompliantDB::Commit
//     commit.foreground     — engine work on the calling thread (residual)
//     commit.queued         — blocked on the shipper durability barrier
//     commit.drain          — WORM appends of an inline-stolen drain
//     commit.worm_flush     — the fflush / simulated filer round trip
//
// The four segment durations are also recorded into the
// `db.commit_critical_path.{foreground,queued,drain,worm}_us` histogram
// family when a commit span closes, and always sum exactly to the commit
// span's duration (foreground is the residual).
//
// Propagation is by thread-local CommitSegments: CompliantDB::Commit
// activates the slot (ScopedCommitSpan); the WAL, shipper, and WORM
// layers attribute their intervals to it when active. A drain performed
// by the background shipper thread has no active slot and is emitted as
// `shipper.drain` / `shipper.worm_flush` spans keyed by batch id instead
// (the committing thread's wait shows up as commit.queued).
//
// Instants that bracket no work (txn begin/abort, compliance appends,
// page forces, WORM appends) are not spans: the registry counters in
// docs/OBSERVABILITY.md count them.
//
// Span timestamps are MonotonicMicros (latencies are about the hardware,
// not the simulated workload clock), so they share a timebase with the
// latency histograms.
//
// Everything here compiles out under COMPLYDB_DISABLE_METRICS: Emit and
// the RAII helpers become empty, and SpansEnabled() is constant-false so
// call sites skip their clock reads.

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace complydb {
namespace obs {

enum class SpanKind : uint8_t {
  kCommit = 0,        // causal = txn id, arg = commit time (micros)
  kCommitForeground,  // causal = txn id; residual (see file comment)
  kCommitQueued,      // causal = txn id; one barrier wait interval
  kCommitDrain,       // causal = txn id, arg = bytes appended
  kCommitWormFlush,   // causal = txn id
  kCommitTicket,      // causal = txn id; the whole OnCommit group ticket
  kCommitSequence,    // causal = pipeline ticket; turnstile admission wait
  kEpochFlush,        // causal = epoch seq, arg = commits in the epoch
  kEpochWait,         // causal = epoch seq; riding another slot's barrier
  kWalFsync,          // causal = txn id (0 outside a commit), arg = lsn
  kShipperDrain,      // causal = batch id, arg = bytes appended
  kShipperWormFlush,  // causal = batch id
  kAuditPhase,        // causal = epoch, arg = AuditPhase
  kTsbMigrate,        // causal = tree id, arg = live page id
  kEpochSeal,         // causal = sealed-epoch seq, arg = L bytes sealed
  kAuditIncremental,  // causal = audit epoch, arg = epochs certified
  kSchedulerAdmit,    // causal = pipeline ticket, arg = partition key
  kRegretTick,        // causal = audit epoch, arg = pages forced
  kVacuumShred,       // causal = tree id, arg = tuples shredded
  kSpanKindCount,
};

const char* SpanKindName(SpanKind kind);

/// Audit phases carried in kAuditPhase spans (matches AuditTimings).
enum class AuditPhase : uint8_t {
  kSnapshot = 0,
  kSummarize,
  kReplay,
  kFinalState,
  kIndexCheck,
  kTotal,
};

const char* AuditPhaseName(AuditPhase phase);

struct Span {
  uint64_t seq = 0;  // global emission (close) order
  uint64_t causal = 0;
  uint64_t start_us = 0;
  uint64_t end_us = 0;
  uint64_t arg = 0;
  SpanKind kind = SpanKind::kCommit;
  uint32_t tid = 0;  // small dense per-thread id (ThreadTraceId)
};

/// Small dense id of the calling thread, for span attribution and the
/// Chrome exporter's tid field. Stable for the thread's lifetime.
uint32_t ThreadTraceId();

/// Bounded lock-free ring of *closed* spans (diagnostics, not an audit
/// trail — the compliance log is the authoritative record). The ring
/// wraps: the newest spans win and `dropped()` counts the overwritten.
class SpanRing {
 public:
  /// `capacity` is rounded up to a power of two.
  explicit SpanRing(size_t capacity = 16384);
  ~SpanRing();

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  /// The process-wide ring the subsystems emit into.
  static SpanRing& Global();

  /// Records one closed span. Lock-free: each slot is a seqlock, and a
  /// writer that finds its slot mid-write by a writer one lap ahead
  /// gives the span up rather than wait.
  void Emit(SpanKind kind, uint64_t causal, uint64_t start_us,
            uint64_t end_us, uint64_t arg = 0);

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  size_t capacity() const { return capacity_; }
  /// Total spans ever emitted.
  uint64_t total() const { return next_.load(std::memory_order_relaxed); }
  /// Spans overwritten by wraparound.
  uint64_t dropped() const {
    uint64_t n = total();
    return n > capacity_ ? n - capacity_ : 0;
  }

  /// Copies the retained spans, oldest first. A slot overwritten or
  /// mid-write while it is read is left out, never returned torn.
  std::vector<Span> Snapshot() const;

  /// Forgets all spans (bench warm-up).
  void Reset() { next_.store(0, std::memory_order_relaxed); }

 private:
  struct Slot;

  size_t capacity_;  // power of two
  Slot* slots_;
  std::atomic<uint64_t> next_{0};
  std::atomic<bool> enabled_{true};
};

/// True when span emission would actually do something; call sites use it
/// to skip clock reads on the hot path.
inline bool SpansEnabled() {
  return kMetricsCompiledIn && SamplingEnabled() &&
         SpanRing::Global().enabled();
}

/// Thread-local accumulator for the commit in flight on this thread.
/// Activated by ScopedCommitSpan; the shipper/WORM layers add their
/// measured intervals to it so the close can compute the residual.
struct CommitSegments {
  uint64_t txn_id = 0;
  uint64_t queued_us = 0;
  uint64_t drain_us = 0;
  uint64_t worm_us = 0;
  bool active = false;
};

/// The calling thread's slot. Never null; check `active`.
CommitSegments* ActiveCommitSegments();

/// Attribute one measured interval to the active commit (emitting a
/// commit.* span) or, with no commit on this thread, to the shipper batch
/// (emitting a shipper.* span keyed by `batch_id`). No-ops when spans are
/// disabled — callers gate their clock reads on SpansEnabled().
void RecordQueuedInterval(uint64_t start_us, uint64_t end_us);
void RecordDrainInterval(uint64_t start_us, uint64_t end_us, uint64_t bytes,
                         uint64_t batch_id);
void RecordWormFlushInterval(uint64_t start_us, uint64_t end_us,
                             uint64_t batch_id);

/// RAII commit span: activates the thread's CommitSegments slot, and on
/// destruction emits the commit span plus its four segments and records
/// the db.commit_critical_path.* histograms.
class ScopedCommitSpan {
 public:
  explicit ScopedCommitSpan(uint64_t txn_id);
  ~ScopedCommitSpan();

  ScopedCommitSpan(const ScopedCommitSpan&) = delete;
  ScopedCommitSpan& operator=(const ScopedCommitSpan&) = delete;

  /// The commit time becomes the span's arg once known.
  void set_commit_time(uint64_t commit_time) { arg_ = commit_time; }

 private:
  bool active_ = false;
  uint64_t start_us_ = 0;
  uint64_t arg_ = 0;
};

/// RAII span for simple bracketed work (WAL fsync, TSB migration, regret
/// ticks, vacuum passes). Emits on destruction; `causal`/`arg` may be filled late.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, uint64_t causal = 0, uint64_t arg = 0)
      : kind_(kind),
        causal_(causal),
        arg_(arg),
        start_us_(SpansEnabled() ? MonotonicMicros() : 0) {}
  ~ScopedSpan() {
    if (start_us_ != 0) {
      SpanRing::Global().Emit(kind_, causal_, start_us_, MonotonicMicros(),
                              arg_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_causal(uint64_t causal) { causal_ = causal; }
  void set_arg(uint64_t arg) { arg_ = arg; }

 private:
  SpanKind kind_;
  uint64_t causal_;
  uint64_t arg_;
  uint64_t start_us_;
};

/// One-line rendering for the shell / debugging.
std::string FormatSpan(const Span& span);

}  // namespace obs
}  // namespace complydb

#endif  // COMPLYDB_OBS_SPAN_H_

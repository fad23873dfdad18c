#include "obs/span.h"

#include <cstdio>
#include <string>

namespace complydb {
namespace obs {

namespace {
constexpr uint64_t kUnpublished = ~0ull;
constexpr uint64_t kWriting = ~0ull - 1;

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// The four histograms a closing commit span feeds. Resolved once; the
// family is documented in docs/OBSERVABILITY.md.
struct CriticalPathMetrics {
  Histogram* foreground_us;
  Histogram* queued_us;
  Histogram* drain_us;
  Histogram* worm_us;
  CriticalPathMetrics() {
    auto& reg = MetricsRegistry::Global();
    foreground_us = reg.GetHistogram("db.commit_critical_path.foreground_us");
    queued_us = reg.GetHistogram("db.commit_critical_path.queued_us");
    drain_us = reg.GetHistogram("db.commit_critical_path.drain_us");
    worm_us = reg.GetHistogram("db.commit_critical_path.worm_us");
  }
};
CriticalPathMetrics& Cp() {
  static CriticalPathMetrics m;
  return m;
}
}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCommit: return "commit";
    case SpanKind::kCommitForeground: return "commit.foreground";
    case SpanKind::kCommitQueued: return "commit.queued";
    case SpanKind::kCommitDrain: return "commit.drain";
    case SpanKind::kCommitWormFlush: return "commit.worm_flush";
    case SpanKind::kCommitTicket: return "commit.ticket";
    case SpanKind::kCommitSequence: return "commit.sequence";
    case SpanKind::kEpochFlush: return "epoch.flush";
    case SpanKind::kEpochWait: return "epoch.wait";
    case SpanKind::kWalFsync: return "wal.fsync";
    case SpanKind::kShipperDrain: return "shipper.drain";
    case SpanKind::kShipperWormFlush: return "shipper.worm_flush";
    case SpanKind::kAuditPhase: return "audit.phase";
    case SpanKind::kTsbMigrate: return "tsb.migrate";
    case SpanKind::kEpochSeal: return "audit.epoch.seal";
    case SpanKind::kAuditIncremental: return "audit.incremental";
    case SpanKind::kSchedulerAdmit: return "txn.scheduler.admit";
    case SpanKind::kRegretTick: return "regret.tick";
    case SpanKind::kVacuumShred: return "vacuum.shred";
    case SpanKind::kSpanKindCount: break;
  }
  return "?";
}

const char* AuditPhaseName(AuditPhase phase) {
  switch (phase) {
    case AuditPhase::kSnapshot: return "snapshot";
    case AuditPhase::kSummarize: return "summarize";
    case AuditPhase::kReplay: return "replay";
    case AuditPhase::kFinalState: return "final_state";
    case AuditPhase::kIndexCheck: return "index_check";
    case AuditPhase::kTotal: return "total";
  }
  return "?";
}

uint32_t ThreadTraceId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed) + 1;
  return id;
}

// Each slot is a seqlock over all-atomic fields, so concurrent
// Emit/Snapshot are data-race-free and a reader never returns a slot
// whose fields come from two different spans. `seq` holds the published
// span's sequence number, kUnpublished before the first write, and
// kWriting while a writer owns the slot.
struct SpanRing::Slot {
  std::atomic<uint64_t> seq{kUnpublished};
  std::atomic<uint64_t> causal{0};
  std::atomic<uint64_t> start_us{0};
  std::atomic<uint64_t> end_us{0};
  std::atomic<uint64_t> arg{0};
  std::atomic<uint8_t> kind{0};
  std::atomic<uint32_t> tid{0};
};

SpanRing::SpanRing(size_t capacity)
    : capacity_(RoundUpPow2(capacity == 0 ? 1 : capacity)),
      slots_(new Slot[capacity_]) {}

SpanRing::~SpanRing() { delete[] slots_; }

SpanRing& SpanRing::Global() {
  static SpanRing* ring = new SpanRing(16384);
  return *ring;
}

void SpanRing::Emit(SpanKind kind, uint64_t causal, uint64_t start_us,
                    uint64_t end_us, uint64_t arg) {
#if !defined(COMPLYDB_DISABLE_METRICS)
  if (!enabled()) return;
  const uint32_t tid = ThreadTraceId();
  uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq & (capacity_ - 1)];
  // Invalidate: claim the slot unless a writer a lap behind or ahead
  // still owns it, in which case this span is given up (it counts as
  // dropped once the ring wraps past it).
  uint64_t cur = slot.seq.load(std::memory_order_relaxed);
  do {
    if (cur == kWriting) return;
  } while (!slot.seq.compare_exchange_weak(cur, kWriting,
                                           std::memory_order_relaxed));
  // Orders the claim before the field stores: a reader that sees any new
  // field value then sees seq != the one it started from.
  std::atomic_thread_fence(std::memory_order_release);
  slot.causal.store(causal, std::memory_order_relaxed);
  slot.start_us.store(start_us, std::memory_order_relaxed);
  slot.end_us.store(end_us, std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  slot.kind.store(static_cast<uint8_t>(kind), std::memory_order_relaxed);
  slot.tid.store(tid, std::memory_order_relaxed);
  slot.seq.store(seq, std::memory_order_release);  // publish
#else
  (void)kind;
  (void)causal;
  (void)start_us;
  (void)end_us;
  (void)arg;
#endif
}

std::vector<Span> SpanRing::Snapshot() const {
  uint64_t end = next_.load(std::memory_order_relaxed);
  uint64_t begin = end > capacity_ ? end - capacity_ : 0;
  std::vector<Span> out;
  out.reserve(end - begin);
  for (uint64_t seq = begin; seq < end; ++seq) {
    const Slot& slot = slots_[seq & (capacity_ - 1)];
    if (slot.seq.load(std::memory_order_acquire) != seq) {
      continue;  // overwritten, mid-write, or given up
    }
    Span s;
    s.seq = seq;
    s.causal = slot.causal.load(std::memory_order_relaxed);
    s.start_us = slot.start_us.load(std::memory_order_relaxed);
    s.end_us = slot.end_us.load(std::memory_order_relaxed);
    s.arg = slot.arg.load(std::memory_order_relaxed);
    s.kind = static_cast<SpanKind>(slot.kind.load(std::memory_order_relaxed));
    s.tid = slot.tid.load(std::memory_order_relaxed);
    // Re-check after the reads: a writer that claimed the slot meanwhile
    // may have torn the fields.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq) continue;
    out.push_back(s);
  }
  return out;
}

CommitSegments* ActiveCommitSegments() {
  thread_local CommitSegments segments;
  return &segments;
}

void RecordQueuedInterval(uint64_t start_us, uint64_t end_us) {
  CommitSegments* seg = ActiveCommitSegments();
  if (!seg->active) return;  // only a commit ever waits on the barrier
  seg->queued_us += end_us - start_us;
  SpanRing::Global().Emit(SpanKind::kCommitQueued, seg->txn_id, start_us,
                          end_us);
}

void RecordDrainInterval(uint64_t start_us, uint64_t end_us, uint64_t bytes,
                         uint64_t batch_id) {
  CommitSegments* seg = ActiveCommitSegments();
  if (seg->active) {
    seg->drain_us += end_us - start_us;
    SpanRing::Global().Emit(SpanKind::kCommitDrain, seg->txn_id, start_us,
                            end_us, bytes);
  } else {
    SpanRing::Global().Emit(SpanKind::kShipperDrain, batch_id, start_us,
                            end_us, bytes);
  }
}

void RecordWormFlushInterval(uint64_t start_us, uint64_t end_us,
                             uint64_t batch_id) {
  CommitSegments* seg = ActiveCommitSegments();
  if (seg->active) {
    seg->worm_us += end_us - start_us;
    SpanRing::Global().Emit(SpanKind::kCommitWormFlush, seg->txn_id,
                            start_us, end_us);
  } else {
    SpanRing::Global().Emit(SpanKind::kShipperWormFlush, batch_id, start_us,
                            end_us);
  }
}

ScopedCommitSpan::ScopedCommitSpan(uint64_t txn_id) {
  if (!SpansEnabled()) return;
  CommitSegments* seg = ActiveCommitSegments();
  if (seg->active) return;  // nested commit cannot happen; be safe anyway
  seg->txn_id = txn_id;
  seg->queued_us = 0;
  seg->drain_us = 0;
  seg->worm_us = 0;
  seg->active = true;
  active_ = true;
  start_us_ = MonotonicMicros();
}

ScopedCommitSpan::~ScopedCommitSpan() {
  if (!active_) return;
  uint64_t end = MonotonicMicros();
  CommitSegments* seg = ActiveCommitSegments();
  seg->active = false;
  uint64_t total = end - start_us_;
  uint64_t accounted = seg->queued_us + seg->drain_us + seg->worm_us;
  // Clock granularity can leave accounted a hair past total; the residual
  // clamps to zero rather than wrapping.
  uint64_t foreground = total > accounted ? total - accounted : 0;
  auto& ring = SpanRing::Global();
  ring.Emit(SpanKind::kCommit, seg->txn_id, start_us_, end, arg_);
  // The residual is anchored at the span start; its *duration* is the
  // deliverable (the segment intervals above carry the real timestamps).
  ring.Emit(SpanKind::kCommitForeground, seg->txn_id, start_us_,
            start_us_ + foreground);
  Cp().foreground_us->Record(foreground);
  Cp().queued_us->Record(seg->queued_us);
  Cp().drain_us->Record(seg->drain_us);
  Cp().worm_us->Record(seg->worm_us);
}

std::string FormatSpan(const Span& span) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "#%llu [%llu..%llu] %-19s causal=%llu dur=%lluus arg=%llu "
                "tid=%u",
                static_cast<unsigned long long>(span.seq),
                static_cast<unsigned long long>(span.start_us),
                static_cast<unsigned long long>(span.end_us),
                SpanKindName(span.kind),
                static_cast<unsigned long long>(span.causal),
                static_cast<unsigned long long>(
                    span.end_us > span.start_us ? span.end_us - span.start_us
                                                : 0),
                static_cast<unsigned long long>(span.arg),
                span.tid);
  return buf;
}

}  // namespace obs
}  // namespace complydb

#include "txn/epoch_pipeline.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/span.h"

namespace complydb {

namespace {
struct PipelineMetrics {
  obs::Histogram* sequence_us;
  obs::Histogram* epoch_size;
  obs::Histogram* epoch_flush_us;
  obs::Counter* epoch_count;
  obs::Counter* latch_acquires;
  obs::Counter* latch_waits;
  PipelineMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    sequence_us = reg.GetHistogram("db.commit_critical_path.sequence_us");
    epoch_size = reg.GetHistogram("txn.epoch.size");
    epoch_flush_us = reg.GetHistogram("txn.epoch.flush_us");
    epoch_count = reg.GetCounter("txn.epoch.count");
    latch_acquires = reg.GetCounter("txn.partition.latch_acquires");
    latch_waits = reg.GetCounter("txn.partition.latch_waits");
  }
};
PipelineMetrics& Pm() {
  static PipelineMetrics m;
  return m;
}
}  // namespace

// The slot open on this thread, if any. `owner` doubles as the validity
// flag and lets one thread interleave slots of different pipelines
// (tests open several databases) without cross-talk.
struct CommitPipeline::SlotContext {
  CommitPipeline* owner = nullptr;
  uint64_t ticket = 0;
  bool implicit = false;
  uint64_t max_offset = 0;
  std::vector<std::pair<uint32_t, std::mutex*>> latches;
  // Scheduler execute phase (disjoint from owner: a thread executes a
  // slot body *before* it owns the turnstile).
  CommitPipeline* exec_owner = nullptr;
  SlotWriteBuffer* exec_buffer = nullptr;
};

CommitPipeline::SlotContext& CommitPipeline::Tls() {
  static thread_local SlotContext ctx;
  return ctx;
}

CommitPipeline::CommitPipeline(BarrierFn barrier)
    : barrier_(std::move(barrier)) {}

CommitPipeline::~CommitPipeline() = default;

uint64_t CommitPipeline::ReserveTicket() {
  return ReserveTicket(SlotScheduler::Admission::kExclusive, 0);
}

uint64_t CommitPipeline::ReserveTicket(SlotScheduler::Admission admission,
                                       uint64_t partition) {
  std::lock_guard<std::mutex> lock(mu_);
  reserved_.fetch_add(1, std::memory_order_acq_rel);
  const uint64_t ticket = next_ticket_++;
  // Under mu_: conflict-table entries appear in ticket order, so a later
  // ticket's WaitAdmissible can never miss an earlier reservation.
  if (scheduler_ != nullptr) {
    scheduler_->Register(ticket, admission, partition);
  }
  return ticket;
}

void CommitPipeline::EnableScheduler() {
  scheduler_ = std::make_unique<SlotScheduler>();
}

void CommitPipeline::BeginExecute(uint64_t ticket, SlotWriteBuffer* buf) {
  scheduler_->WaitAdmissible(ticket);
  SlotContext& ctx = Tls();
  ctx.exec_owner = this;
  ctx.exec_buffer = buf;
}

void CommitPipeline::EndExecute() {
  SlotContext& ctx = Tls();
  if (ctx.exec_owner != this) return;
  ctx.exec_owner = nullptr;
  ctx.exec_buffer = nullptr;
}

SlotWriteBuffer* CommitPipeline::ExecBuffer() const {
  const SlotContext& ctx = Tls();
  return ctx.exec_owner == this ? ctx.exec_buffer : nullptr;
}

void CommitPipeline::OpenSlot(uint64_t ticket, bool implicit) {
  const bool sample = obs::kMetricsCompiledIn && obs::SamplingEnabled();
  const uint64_t t0 = sample ? obs::MonotonicMicros() : 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return next_to_admit_ == ticket; });
  }
  if (sample) {
    const uint64_t t1 = obs::MonotonicMicros();
    Pm().sequence_us->Record(t1 - t0);
    if (obs::SpansEnabled()) {
      obs::SpanRing::Global().Emit(obs::SpanKind::kCommitSequence, ticket, t0,
                                   t1);
    }
  }
  SlotContext& ctx = Tls();
  ctx.owner = this;
  ctx.ticket = ticket;
  ctx.implicit = implicit;
  ctx.max_offset = 0;
  ctx.latches.clear();
}

Status CommitPipeline::CloseSlot() {
  SlotContext& ctx = Tls();
  if (ctx.owner != this) {
    return Status::InvalidArgument("no open commit slot on this thread");
  }
  const uint64_t target = ctx.max_offset;
  const uint64_t ticket = ctx.ticket;
  for (auto& held : ctx.latches) held.second->unlock();
  ctx.latches.clear();
  ctx.owner = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++next_to_admit_;
    while (!abandoned_.empty() && *abandoned_.begin() == next_to_admit_) {
      abandoned_.erase(abandoned_.begin());
      ++next_to_admit_;
    }
  }
  cv_.notify_all();
  // Only after the slot's writes are applied and the turnstile has moved
  // past it may conflicting slots start executing.
  if (scheduler_ != nullptr) scheduler_->Release(ticket);
  // The turnstile is free: the epoch wait below overlaps with the next
  // slots' engine work. Only after the barrier is this slot done.
  Status s = WaitEpochDurable(target);
  completed_.fetch_add(1, std::memory_order_acq_rel);
  return s;
}

void CommitPipeline::Abandon(uint64_t ticket) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ticket == next_to_admit_) {
      ++next_to_admit_;
      while (!abandoned_.empty() && *abandoned_.begin() == next_to_admit_) {
        abandoned_.erase(abandoned_.begin());
        ++next_to_admit_;
      }
    } else {
      abandoned_.insert(ticket);
    }
  }
  cv_.notify_all();
  if (scheduler_ != nullptr) scheduler_->Release(ticket);
  completed_.fetch_add(1, std::memory_order_acq_rel);
}

bool CommitPipeline::InSlot() const { return Tls().owner == this; }

bool CommitPipeline::InImplicitSlot() const {
  const SlotContext& ctx = Tls();
  return ctx.owner == this && ctx.implicit;
}

void CommitPipeline::NoteCommitOffset(uint64_t offset) {
  SlotContext& ctx = Tls();
  if (ctx.owner != this) return;
  ctx.max_offset = std::max(ctx.max_offset, offset);
  commits_in_window_.fetch_add(1, std::memory_order_relaxed);
}

void CommitPipeline::AcquirePartitionLatch(uint32_t tree_id) {
  SlotContext& ctx = Tls();
  if (ctx.owner != this) return;
  for (const auto& held : ctx.latches) {
    if (held.first == tree_id) return;
  }
  std::mutex* latch = nullptr;
  {
    std::lock_guard<std::mutex> lock(latch_table_mu_);
    auto& slot = latches_[tree_id];
    if (slot == nullptr) slot = std::make_unique<std::mutex>();
    latch = slot.get();
  }
  if (!latch->try_lock()) {
    Pm().latch_waits->Inc();
    latch->lock();
  }
  Pm().latch_acquires->Inc();
  ctx.latches.emplace_back(tree_id, latch);
}

Status CommitPipeline::WaitEpochDurable(uint64_t offset) {
  if (!barrier_ || offset == 0) return Status::OK();
  std::unique_lock<std::mutex> lock(epoch_mu_);
  if (!epoch_status_.ok()) return epoch_status_;
  if (offset > pending_target_) pending_target_ = offset;
  while (durable_target_ < offset) {
    if (!leader_active_) {
      // Become the epoch leader: flush through everything pending so
      // every slot that closed inside this window rides one barrier.
      leader_active_ = true;
      const uint64_t batch_target = pending_target_;
      const uint64_t seq = epoch_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
      const uint64_t batch = commits_in_window_.exchange(0);
      lock.unlock();
      Status s;
      {
        obs::ScopedSpan span(obs::SpanKind::kEpochFlush, seq, batch);
        obs::ScopedLatencyTimer timer(Pm().epoch_flush_us);
        s = barrier_(batch_target);
      }
      Pm().epoch_count->Inc();
      Pm().epoch_size->Record(batch);
      lock.lock();
      leader_active_ = false;
      if (s.ok()) {
        durable_target_ = std::max(durable_target_, batch_target);
      } else if (epoch_status_.ok()) {
        epoch_status_ = s;
      }
      epoch_cv_.notify_all();
      if (!s.ok()) return s;
    } else {
      // Member: ride the in-flight epoch. Attribute the wait to the
      // active commit span if one is open (implicit slots close inside
      // CompliantDB::Commit), otherwise emit a standalone epoch.wait.
      const bool spans = obs::SpansEnabled();
      const uint64_t t0 = spans ? obs::MonotonicMicros() : 0;
      const uint64_t seq = epoch_seq_.load(std::memory_order_relaxed);
      epoch_cv_.wait(lock, [&] {
        return durable_target_ >= offset || !leader_active_ ||
               !epoch_status_.ok();
      });
      if (spans) {
        const uint64_t t1 = obs::MonotonicMicros();
        if (obs::ActiveCommitSegments()->active) {
          obs::RecordQueuedInterval(t0, t1);
        } else {
          obs::SpanRing::Global().Emit(obs::SpanKind::kEpochWait, seq, t0, t1);
        }
      }
      if (!epoch_status_.ok()) return epoch_status_;
    }
  }
  return Status::OK();
}

}  // namespace complydb

#include "server/applier.h"

#include <algorithm>

#include "util/logging.h"

namespace myraft::server {

Applier::Applier(std::string member, binlog::BinlogManager* log,
                 storage::MiniEngine* engine, Clock* clock, uint32_t workers,
                 uint64_t txn_cost_micros, metrics::MetricRegistry* metrics,
                 trace::Tracer* tracer)
    : member_(std::move(member)),
      log_(log),
      engine_(engine),
      clock_(clock),
      txn_cost_micros_(txn_cost_micros),
      tracer_(tracer),
      slot_free_at_(std::max<uint32_t>(1, workers), 0),
      transactions_applied_(
          metrics->GetCounter("server.applier_transactions_applied")),
      dependency_stalls_(
          metrics->GetCounter("server.applier_dependency_stalls")),
      conflict_stalls_(metrics->GetCounter("server.applier_conflict_stalls")),
      lag_entries_(metrics->GetGauge("server.applier_lag_entries")),
      lag_hist_(metrics->GetHistogram("server.applier_lag_hist")),
      concurrency_(metrics->GetHistogram("server.applier_concurrency")) {
  if (engine_ != nullptr) Reset(engine_->LastAppliedOpId().index + 1);
}

uint64_t Applier::NextDeadlineMicros() const {
  if (window_.empty()) return 0;
  const auto& front = *window_.begin();
  if (front.first != next_apply_index_) return 0;
  // A deadline in the past means the last pump stalled on something other
  // than a busy slot (e.g. a commit failure); leave retries to the
  // periodic tick instead of hot-looping the host.
  return front.second.ready_at_micros > clock_->NowMicros()
             ? front.second.ready_at_micros
             : 0;
}

void Applier::Run(uint64_t horizon) {
  if (engine_ == nullptr) return;
  // A freshly provisioned member may have an engine ahead of a purged log
  // prefix.
  const uint64_t first = log_->FirstIndex();
  if (first > 0 && next_apply_index_ < first && window_.empty() &&
      engine_->LastAppliedOpId().index + 1 >= first) {
    next_apply_index_ = std::max(next_apply_index_, first);
    next_dispatch_index_ = std::max(next_dispatch_index_, next_apply_index_);
  }
  const uint64_t now = clock_->NowMicros();
  // Both passes only move their cursor forward: repeat until neither does.
  uint64_t cursors = 0;
  do {
    cursors = next_apply_index_ + next_dispatch_index_;
    Retire(now);
    Dispatch(horizon, now);
  } while (next_apply_index_ + next_dispatch_index_ != cursors);
  const uint64_t lag =
      horizon >= next_apply_index_ ? horizon - next_apply_index_ + 1 : 0;
  lag_entries_->Set((int64_t)lag);
  lag_hist_->Record((int64_t)lag);
}

void Applier::Retire(uint64_t now) {
  while (!window_.empty() && window_.begin()->first == next_apply_index_) {
    Task& task = window_.begin()->second;
    if (task.ready_at_micros > now) break;  // worker still busy
    if (task.is_txn && !task.skip) {
      Status s = engine_->CommitPrepared(task.xid, task.opid, task.gtid);
      if (!s.ok()) {
        MYRAFT_LOG(Error) << member_ << ": applier commit failed at "
                          << task.opid.ToString() << ": " << s;
        break;
      }
      transactions_applied_->Increment();
    }
    if (tracer_ != nullptr && task.trace_span != 0) {
      tracer_->EndSpan(task.trace_span);
    }
    window_.erase(window_.begin());
    ++next_apply_index_;
  }
}

void Applier::Dispatch(uint64_t horizon, uint64_t now) {
  // The window cap keeps a dispatch backlog ready for the worker slots
  // without letting prepared-but-unretired state grow unboundedly.
  const size_t window_cap = slot_free_at_.size() * 2 + 2;
  while (next_dispatch_index_ <= horizon && window_.size() < window_cap) {
    if (!log_->HasEntry(next_dispatch_index_)) break;  // not received
    if (!dispatch_head_.has_value() ||
        dispatch_head_->opid.index != next_dispatch_index_) {
      dispatch_head_.reset();
      auto entry = log_->ReadEntry(next_dispatch_index_);
      if (!entry.ok()) {
        MYRAFT_LOG(Error) << member_
                          << ": applier read failed: " << entry.status();
        break;
      }
      if (entry->type != EntryType::kTransaction) {
        // No-ops, config changes and rotate events only advance the cursor.
        window_.emplace(next_dispatch_index_, Task{.opid = entry->id});
        ++next_dispatch_index_;
        continue;
      }
      auto parsed = binlog::ParseTransactionPayload(entry->payload);
      if (!parsed.ok()) {
        MYRAFT_LOG(Error) << member_ << ": apply parse failed at "
                          << entry->id.ToString() << ": " << parsed.status();
        break;
      }
      dispatch_head_ = std::move(*parsed);  // its OpId is the entry's
    }
    const binlog::ParsedTransaction& txn = *dispatch_head_;
    const OpId& opid = txn.opid;
    // Dependency gate: schedulable once everything up to last_committed
    // has engine-committed. An unstamped transaction depends on its
    // immediate predecessor: serial order.
    const uint64_t dep =
        txn.sequence_number == 0 ? opid.index - 1 : txn.last_committed;
    if (next_apply_index_ <= dep) {
      dependency_stalls_->Increment();
      break;
    }
    Task task{.opid = opid, .is_txn = true, .xid = txn.xid, .gtid = txn.gtid};
    // Idempotence: skip transactions the engine already has (e.g.
    // replayed after the crash-recovery rollback of §A.2 case 3).
    if (engine_->ExecutedGtids().Contains(txn.gtid)) {
      task.skip = true;
    } else {
      Result<storage::TxnId> engine_txn = engine_->Execute(txn.ops);
      Status s = engine_txn.status();
      if (s.IsAborted()) {
        // Conflict gate: an in-window task holds one of the rows, so the
        // stamp was too optimistic. Retried once the holder retires.
        conflict_stalls_->Increment();
        break;
      }
      if (s.ok()) s = engine_->Prepare(*engine_txn, txn.xid);
      if (!s.ok()) {
        MYRAFT_LOG(Error) << member_ << ": apply failed at "
                          << opid.ToString() << ": " << s;
        if (engine_txn.ok()) (void)engine_->Rollback(*engine_txn);
        break;  // cursor not advanced: retried on the next pump
      }
      // Charge the modelled apply cost to the least-busy virtual slot.
      auto slot = std::min_element(slot_free_at_.begin(), slot_free_at_.end());
      *slot = std::max(now, *slot) + txn_cost_micros_;
      task.ready_at_micros = *slot;
      if (tracer_ != nullptr && txn.trace_id != 0) {
        // Stitch to the originating commit via the GTID-body context.
        task.trace_span = tracer_->BeginSpan(
            "applier", "apply", txn.trace_id, txn.trace_span_id, "opid", opid,
            "slot", slot - slot_free_at_.begin());
      }
      concurrency_->Record((int64_t)std::count_if(
          slot_free_at_.begin(), slot_free_at_.end(),
          [now](uint64_t t) { return t > now; }));
    }
    window_.emplace(next_dispatch_index_, std::move(task));
    dispatch_head_.reset();
    ++next_dispatch_index_;
  }
}

void Applier::Reset(uint64_t next) {
  for (auto& [index, task] : window_) {
    if (task.is_txn && !task.skip) {
      Status s = engine_->RollbackPrepared(task.xid);
      if (!s.ok()) {
        MYRAFT_LOG(Error) << member_ << ": applier reset rollback: " << s;
      }
    }
    if (tracer_ != nullptr && task.trace_span != 0) {
      tracer_->EndSpan(task.trace_span, "cancelled");
    }
  }
  window_.clear();
  dispatch_head_.reset();
  std::fill(slot_free_at_.begin(), slot_free_at_.end(), 0);
  next_apply_index_ = next;
  next_dispatch_index_ = next;
}

}  // namespace myraft::server

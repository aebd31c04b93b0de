#include "server/mysql_server.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace myraft::server {

namespace {

/// Modelled cost of the promotion orchestration tail (§3.3 steps 3-5:
/// rewiring replication logs, re-enabling writes, publishing to service
/// discovery) once the no-op has committed and the applier is caught up.
/// Production promotions average ~200 ms end to end (Table 2).
constexpr uint64_t kPromotionOrchestrationMicros = 120'000;

}  // namespace

Result<std::unique_ptr<MySqlServer>> MySqlServer::Create(
    Env* env, MySqlServerOptions options, const raft::QuorumEngine* quorum,
    Clock* clock, Random* rng, raft::RaftOutbox* outbox,
    ServiceDiscovery* discovery) {
  if (clock == nullptr || outbox == nullptr) {
    return Status::InvalidArgument("server: clock and outbox are required");
  }
  auto server = std::unique_ptr<MySqlServer>(
      new MySqlServer(env, std::move(options), clock));
  MYRAFT_RETURN_NOT_OK(server->Init(quorum, rng, outbox, discovery));
  return server;
}

Status MySqlServer::Init(const raft::QuorumEngine* quorum, Random* rng,
                         raft::RaftOutbox* outbox,
                         ServiceDiscovery* discovery) {
  discovery_ = discovery;
  rng_ = rng;
  MYRAFT_RETURN_NOT_OK(env_->CreateDirIfMissing(options_.data_dir));

  metrics_ = options_.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<metrics::MetricRegistry>();
    metrics_ = owned_metrics_.get();
  }
  m_.writes_accepted = metrics_->GetCounter("server.writes_accepted");
  m_.writes_rejected_read_only =
      metrics_->GetCounter("server.writes_rejected_read_only");
  m_.writes_rejected_conflict =
      metrics_->GetCounter("server.writes_rejected_conflict");
  m_.writes_committed = metrics_->GetCounter("server.writes_committed");
  m_.writes_aborted_on_demotion =
      metrics_->GetCounter("server.writes_aborted_on_demotion");
  m_.applier_transactions_applied =
      metrics_->GetCounter("server.applier_transactions_applied");
  m_.applier_dependency_stalls =
      metrics_->GetCounter("server.applier_dependency_stalls");
  m_.applier_conflict_stalls =
      metrics_->GetCounter("server.applier_conflict_stalls");
  m_.promotions_completed =
      metrics_->GetCounter("server.promotions_completed");
  m_.demotions = metrics_->GetCounter("server.demotions");
  m_.engine_checkpoints = metrics_->GetCounter("server.engine_checkpoints");
  m_.commit_stage_flush_us =
      metrics_->GetHistogram("server.commit_stage_flush_us");
  m_.commit_stage_consensus_wait_us =
      metrics_->GetHistogram("server.commit_stage_consensus_wait_us");
  m_.commit_stage_engine_commit_us =
      metrics_->GetHistogram("server.commit_stage_engine_commit_us");
  m_.promotion_latency_us =
      metrics_->GetHistogram("server.promotion_latency_us");
  m_.applier_lag_entries = metrics_->GetGauge("server.applier_lag_entries");
  m_.applier_lag_hist = metrics_->GetHistogram("server.applier_lag_hist");
  m_.applier_concurrency =
      metrics_->GetHistogram("server.applier_concurrency");
  m_.reads_served = metrics_->GetCounter("server.reads_served");
  m_.reads_gated = metrics_->GetCounter("server.reads_gated");
  m_.read_wait_us = metrics_->GetHistogram("server.read_wait_us");
  applier_free_at_.assign(std::max<uint32_t>(1, options_.applier_workers), 0);

  binlog::BinlogManagerOptions binlog_options;
  binlog_options.dir = options_.data_dir + "/log";
  // Every member boots as a replica; logs start in relay-log persona and
  // are rewired on promotion (§3.2).
  binlog_options.persona = binlog::kRelayLogPersona;
  binlog_options.server_id = options_.numeric_server_id;
  binlog_options.clock = clock_;
  binlog_options.metrics = metrics_;
  binlog_options.tracer = options_.tracer;
  auto manager = binlog::BinlogManager::Open(env_, binlog_options);
  if (!manager.ok()) return manager.status().WithPrefix("opening binlog");
  binlog_ = std::move(*manager);

  if (options_.kind == MemberKind::kMySql) {
    storage::EngineOptions engine_options;
    engine_options.dir = options_.data_dir + "/engine";
    engine_options.clock = clock_;
    auto engine = storage::MiniEngine::Open(env_, engine_options);
    if (!engine.ok()) return engine.status().WithPrefix("opening engine");
    engine_ = std::move(*engine);
    // §3.3 demotion step 5 / §A.2: the applier cursor starts right after
    // the last transaction committed in the engine.
    next_apply_index_ = engine_->LastAppliedOpId().index + 1;
    next_dispatch_index_ = next_apply_index_;
  }

  log_adapter_ = std::make_unique<BinlogLogAdapter>(
      binlog_.get(),
      [this](const binlog::GtidSet& removed) { OnGtidsTruncated(removed); });
  raft::RaftOptions raft_options = options_.raft;
  raft_options.self = options_.id;
  raft_options.region = options_.region;
  raft_options.kind = options_.kind;
  raft_options.metrics = metrics_;
  raft_options.tracer = options_.tracer;
  consensus_ = std::make_unique<raft::RaftConsensus>(
      std::move(raft_options), log_adapter_.get(), quorum, &meta_store_,
      clock_, rng, outbox, this);
  return Status::OK();
}

Status MySqlServer::Bootstrap(const MembershipConfig& config) {
  return consensus_->Bootstrap(config);
}

Status MySqlServer::Start() { return consensus_->Start(); }

void MySqlServer::Tick() {
  consensus_->Tick();
  // Retire apply-window tasks whose modelled worker time has elapsed.
  if (!apply_window_.empty()) RunApplier();
  if (witness_handoff_pending_) MaybeWitnessHandoff();
  if (promotion_.has_value()) MaybeCompletePromotion();
  // Periodic engine checkpointing bounds WAL replay at restart. Skipped
  // while transactions are prepared (pipeline in flight).
  if (CheckpointDue() && engine_->PreparedXids().empty()) {
    Status s = engine_->Checkpoint();
    if (s.ok()) {
      m_.engine_checkpoints->Increment();
    } else {
      MYRAFT_LOG(Warning) << options_.id << ": checkpoint failed: " << s;
    }
  }
}

uint64_t MySqlServer::NextTickDueMicros() const {
  // Every step of Tick() after the consensus tick acts as soon as its
  // guard holds. A checkpoint held back by prepared transactions keeps
  // the gate open: it only opens early, never late.
  if (!apply_window_.empty() || witness_handoff_pending_ ||
      promotion_.has_value() || CheckpointDue()) {
    return 0;
  }
  return consensus_->NextTickDueMicros();
}

bool MySqlServer::CheckpointDue() const {
  return engine_ != nullptr && options_.engine_checkpoint_wal_bytes > 0 &&
         engine_->WalSizeBytes() > options_.engine_checkpoint_wal_bytes;
}

DbRole MySqlServer::db_role() const {
  if (options_.kind == MemberKind::kLogtailer) return DbRole::kNone;
  return db_role_;
}

void MySqlServer::SetDbRole(DbRole role) {
  if (role == db_role_) return;
  db_role_ = role;
  if (role_change_cb_) role_change_cb_(role);
}

// --- Client writes: pipeline stage 1 (§3.4) -----------------------------------

void MySqlServer::SubmitWrite(std::vector<binlog::RowOperation> ops,
                              WriteCallback done,
                              trace::TraceContext trace_ctx) {
  const uint64_t submitted_micros = clock_->NowMicros();
  auto fail = [&done](Status status) {
    done(WriteResult{std::move(status), {}, {}});
  };
  if (engine_ == nullptr) {
    fail(Status::NotSupported("logtailers do not accept writes"));
    return;
  }
  if (!writes_enabled_) {
    m_.writes_rejected_read_only->Increment();
    fail(Status::ServiceUnavailable("server is read-only (not primary)"));
    return;
  }

  // Commit-pipeline spans: the whole commit plus the stage-1 flush child,
  // parented under the caller's client span when one was supplied.
  trace::Tracer* tracer = options_.tracer;
  uint64_t trace = 0;
  uint64_t total_span = 0;
  uint64_t flush_span = 0;
  if (tracer != nullptr) {
    trace = trace_ctx.valid() ? trace_ctx.trace_id : tracer->NextTraceId();
    total_span = tracer->BeginSpan("server", "commit.total", trace,
                                   trace_ctx.span_id);
    flush_span =
        tracer->BeginSpan("server", "commit.flush", trace, total_span);
  }
  auto end_spans_failed = [&](const char* why) {
    if (tracer == nullptr) return;
    tracer->EndSpan(flush_span, why);
    tracer->EndSpan(total_span, why);
  };

  // Execute: prepare the transaction in the engine under row locks.
  const storage::TxnId txn = engine_->Begin();
  binlog::TransactionPayloadBuilder builder;
  for (binlog::RowOperation& op : ops) {
    Status s = engine_->ApplyRow(txn, op);
    if (!s.ok()) {
      m_.writes_rejected_conflict->Increment();
      Status rollback = engine_->Rollback(txn);
      if (!rollback.ok()) {
        MYRAFT_LOG(Error) << options_.id << ": rollback failed: " << rollback;
      }
      end_spans_failed("conflict");
      fail(std::move(s));
      return;
    }
    builder.AddOperation(std::move(op));
  }

  // Commit: assign identity (GTID then OpId, §3.4), prepare, flush via
  // Raft. Planned OpId and Replicate run in the same event-loop turn, so
  // the stamp cannot be stolen by an interleaved append.
  const OpId opid = consensus_->NextOpId();
  const uint64_t xid = opid.index;
  Status prepared = engine_->Prepare(txn, xid);
  if (!prepared.ok()) {
    Status rollback = engine_->Rollback(txn);
    (void)rollback;
    end_spans_failed("prepare_failed");
    fail(std::move(prepared));
    return;
  }
  const binlog::Gtid gtid{options_.server_uuid, next_txn_no_++};
  // Dependency interval (§3.5): every transaction with index <=
  // group_commit_last_committed_ had engine-committed when this one
  // entered the flush stage; anything between that and this opid was
  // prepared concurrently under disjoint row locks (conflicts are
  // rejected above), so appliers may run them in parallel.
  std::string payload = builder.Finalize(
      gtid, opid, xid, clock_->NowMicros(), options_.numeric_server_id,
      group_commit_last_committed_, opid.index, trace, total_span);
  auto replicated = consensus_->Replicate(
      EntryType::kTransaction, std::move(payload),
      trace::TraceContext{trace, total_span});
  if (!replicated.ok()) {
    Status rollback = engine_->RollbackPrepared(xid);
    (void)rollback;
    --next_txn_no_;
    end_spans_failed("replicate_failed");
    fail(replicated.status());
    return;
  }
  MYRAFT_CHECK(*replicated == opid) << "OpId plan mismatch";
  m_.writes_accepted->Increment();
  // Stage 1 done: the payload is in the (Raft-replicated) binlog.
  const uint64_t flushed_micros = clock_->NowMicros();
  m_.commit_stage_flush_us->Record(flushed_micros - submitted_micros);
  uint64_t wait_span = 0;
  if (tracer != nullptr) {
    tracer->EndSpan(flush_span, "gtid", gtid, "opid", opid);
    wait_span = tracer->BeginSpan("server", "commit.consensus_wait", trace,
                                  total_span);
  }
  pending_[opid.index] =
      PendingCommit{xid,   opid,       gtid,      submitted_micros,
                    flushed_micros, trace, total_span, wait_span,
                    std::move(done)};
  // A single-voter commit quorum (e.g. a FlexiRaft data quorum whose
  // region holds only the leader) is completed by the self-append, so the
  // marker advances inside Replicate — before the pending entry above
  // exists. Retire it now; otherwise nothing ever does.
  const OpId marker = consensus_->commit_marker();
  if (marker.index >= opid.index) OnCommitAdvanced(marker);
}

std::optional<std::string> MySqlServer::Read(const std::string& table,
                                             const std::string& key) const {
  if (engine_ == nullptr) return std::nullopt;
  return engine_->Get(table, key);
}

// --- Gated reads: the follower GTID-wait gate (§13) ---------------------------

uint64_t MySqlServer::AppliedIndex() const {
  if (engine_ == nullptr) return 0;
  // next_apply_index_ is the replica low-water mark; on the primary the
  // pipeline bypasses the applier, so the engine's own cursor (advanced by
  // CommitPrepared in stage 3) is authoritative there. No-op/config
  // entries never touch the engine, hence the primary floor on top.
  return std::max({next_apply_index_ - 1, engine_->LastAppliedOpId().index,
                   primary_applied_floor_});
}

void MySqlServer::SubmitRead(const std::string& table, const std::string& key,
                             uint64_t min_index, ReadCallback done) {
  if (engine_ == nullptr) {
    done(ReadResult{Status::NotSupported("logtailers hold no data"), {}, 0});
    return;
  }
  const uint64_t cursor = AppliedIndex();
  if (cursor >= min_index) {
    m_.reads_served->Increment();
    m_.read_wait_us->Record(0);
    done(ReadResult{Status::OK(), engine_->Get(table, key), cursor});
    return;
  }
  m_.reads_gated->Increment();
  parked_reads_.emplace(
      min_index, ParkedRead{table, key, clock_->NowMicros(), std::move(done)});
}

void MySqlServer::MaybeServeReads() {
  if (parked_reads_.empty() || engine_ == nullptr) return;
  const uint64_t cursor = AppliedIndex();
  while (!parked_reads_.empty() && parked_reads_.begin()->first <= cursor) {
    // Pop before firing: the callback may submit another read.
    ParkedRead read = std::move(parked_reads_.begin()->second);
    parked_reads_.erase(parked_reads_.begin());
    m_.reads_served->Increment();
    m_.read_wait_us->Record(clock_->NowMicros() - read.parked_micros);
    read.done(
        ReadResult{Status::OK(), engine_->Get(read.table, read.key), cursor});
  }
}

// --- Consensus-commit stage + applier (§3.4/§3.5) --------------------------------

void MySqlServer::OnCommitAdvanced(OpId marker) {
  trace::Tracer* tracer = options_.tracer;
  bool engine_commit_failed = false;
  // Stage 3: engine-commit every pending write covered by the marker.
  while (!pending_.empty() && pending_.begin()->first <= marker.index) {
    PendingCommit pending = std::move(pending_.begin()->second);
    pending_.erase(pending_.begin());
    const uint64_t commit_start = clock_->NowMicros();
    m_.commit_stage_consensus_wait_us->Record(commit_start -
                                              pending.flushed_micros);
    uint64_t engine_span = 0;
    if (tracer != nullptr) {
      tracer->EndSpan(pending.wait_span);
      engine_span = tracer->BeginSpan("server", "commit.engine_commit",
                                      pending.trace_id, pending.total_span);
    }
    Status s = engine_->CommitPrepared(pending.xid, pending.opid,
                                       pending.gtid);
    const uint64_t commit_end = clock_->NowMicros();
    m_.commit_stage_engine_commit_us->Record(commit_end - commit_start);
    if (!s.ok()) {
      MYRAFT_LOG(Error) << options_.id << ": engine commit failed: " << s;
      if (tracer != nullptr) {
        tracer->EndSpan(engine_span, "engine_commit_failed");
        tracer->EndSpan(pending.total_span, "engine_commit_failed");
      }
      pending.done(WriteResult{std::move(s), pending.gtid, pending.opid});
      engine_commit_failed = true;
      continue;
    }
    m_.writes_committed->Increment();
    group_commit_last_committed_ =
        std::max(group_commit_last_committed_, pending.opid.index);
    if (tracer != nullptr) {
      tracer->EndSpan(engine_span);
      tracer->EndSpan(pending.total_span, "gtid", pending.gtid, "opid",
                      pending.opid);
    }
    const uint64_t total_micros = commit_end - pending.submitted_micros;
    if (options_.slow_txn_threshold_micros > 0 &&
        total_micros > options_.slow_txn_threshold_micros) {
      // Slow-transaction log: one structured line with the per-stage
      // breakdown and the peer whose ack finally completed the quorum.
      const MemberId& straggler = consensus_->last_commit_completer();
      const std::string summary = StringPrintf(
          "%s: slow-txn gtid=%s opid=%s total_us=%llu flush_us=%llu "
          "wait_us=%llu commit_us=%llu straggler=%s",
          options_.id.c_str(), pending.gtid.ToString().c_str(),
          pending.opid.ToString().c_str(), (unsigned long long)total_micros,
          (unsigned long long)(pending.flushed_micros -
                               pending.submitted_micros),
          (unsigned long long)(commit_start - pending.flushed_micros),
          (unsigned long long)(commit_end - commit_start),
          straggler.empty() ? "self" : straggler.c_str());
      MYRAFT_LOG(Warning) << summary;
      if (options_.slow_txn_hook) options_.slow_txn_hook(summary);
    }
    pending.done(WriteResult{Status::OK(), pending.gtid, pending.opid});
  }

  // With every pending write at or below the marker retired, the whole
  // marker prefix is reflected in engine state — the remainder is no-op
  // and config entries. Only the primary pipeline can claim this; a
  // replica's marker routinely outruns its applier.
  if (writes_enabled_ && !engine_commit_failed &&
      (pending_.empty() || pending_.begin()->first > marker.index)) {
    primary_applied_floor_ = std::max(primary_applied_floor_, marker.index);
  }

  RunApplier();
  MaybeCompletePromotion();
  if (witness_handoff_pending_) MaybeWitnessHandoff();
  // On the primary RunApplier is a no-op, but the engine commits above
  // advanced the cursor — serve reads parked on those indexes.
  MaybeServeReads();
}

void MySqlServer::OnEntryAppended(const LogEntry& entry) {
  // §3.5: Raft informs MySQL of the new relay-log entry and signals
  // the applier. (Uncommitted entries park until the marker covers them.)
  RunApplier();
}

uint64_t MySqlServer::NextApplierDeadlineMicros() const {
  if (apply_window_.empty()) return 0;
  const auto& front = *apply_window_.begin();
  if (front.first != next_apply_index_) return 0;
  // A deadline in the past means the last pump stalled on something other
  // than a busy slot (e.g. a commit failure); leave retries to the
  // periodic tick instead of hot-looping the host.
  return front.second.ready_at_micros > clock_->NowMicros()
             ? front.second.ready_at_micros
             : 0;
}

void MySqlServer::RunApplier() {
  if (engine_ == nullptr) return;
  if (writes_enabled_) return;  // primaries commit through the pipeline
  const OpId marker = consensus_->commit_marker();
  // A freshly provisioned member may have an engine ahead of a purged log
  // prefix.
  const uint64_t first = binlog_->FirstIndex();
  if (first > 0 && next_apply_index_ < first && apply_window_.empty() &&
      engine_->LastAppliedOpId().index + 1 >= first) {
    next_apply_index_ = std::max(next_apply_index_, first);
    next_dispatch_index_ = std::max(next_dispatch_index_, next_apply_index_);
  }
  const uint64_t now = clock_->NowMicros();
  // The window cap keeps a dispatch backlog ready for the worker slots
  // without letting prepared-but-unretired state grow unboundedly.
  const size_t window_cap = applier_free_at_.size() * 2 + 2;

  bool progress = true;
  while (progress) {
    progress = false;

    // Retire pass: engine commits strictly in index order (the low-water
    // mark), so LastAppliedOpId/GTID advancement match the serial applier
    // and recovery restarts from a prefix-consistent cursor.
    while (!apply_window_.empty() &&
           apply_window_.begin()->first == next_apply_index_) {
      ApplyTask& task = apply_window_.begin()->second;
      if (task.ready_at_micros > now) break;  // worker still busy
      if (task.is_txn && !task.skip) {
        Status s = engine_->CommitPrepared(task.xid, task.opid, task.gtid);
        if (!s.ok()) {
          MYRAFT_LOG(Error) << options_.id << ": applier commit failed at "
                            << task.opid.ToString() << ": " << s;
          break;
        }
        m_.applier_transactions_applied->Increment();
      }
      if (options_.tracer != nullptr && task.trace_span != 0) {
        options_.tracer->EndSpan(task.trace_span);
      }
      for (const std::string& key : task.writeset) {
        applier_inflight_writes_.erase(key);
      }
      apply_window_.erase(apply_window_.begin());
      ++next_apply_index_;
      progress = true;
    }

    // Dispatch pass: admit committed entries in index order while their
    // dependency interval proves independence from everything still in
    // the window. Engine Begin/Put/Prepare happen here (the parallel
    // part); only the ordered commit above is deferred.
    while (next_dispatch_index_ <= marker.index &&
           apply_window_.size() < window_cap) {
      if (!binlog_->HasEntry(next_dispatch_index_)) break;  // not received
      if (!dispatch_head_.has_value() ||
          dispatch_head_->index != next_dispatch_index_) {
        dispatch_head_.reset();
        auto entry = binlog_->ReadEntry(next_dispatch_index_);
        if (!entry.ok()) {
          MYRAFT_LOG(Error) << options_.id
                            << ": applier read failed: " << entry.status();
          break;
        }
        if (entry->type != EntryType::kTransaction) {
          // No-ops, config changes and rotate events advance the cursor
          // only.
          ApplyTask task;
          task.opid = entry->id;
          apply_window_.emplace(next_dispatch_index_, std::move(task));
          ++next_dispatch_index_;
          progress = true;
          continue;
        }
        auto parsed = binlog::ParseTransactionPayload(entry->payload);
        if (!parsed.ok()) {
          MYRAFT_LOG(Error) << options_.id << ": apply parse failed at "
                            << entry->id.ToString() << ": " << parsed.status();
          break;
        }
        dispatch_head_ =
            DispatchHead{next_dispatch_index_, entry->id, std::move(*parsed)};
      }
      const OpId& opid = dispatch_head_->opid;
      const binlog::ParsedTransaction* txn = &dispatch_head_->txn;
      ApplyTask task;
      task.opid = opid;
      // Dependency gate: schedulable once everything up to last_committed
      // has engine-committed. Unstamped transactions (pre-dependency
      // writers) depend on their immediate predecessor — serial order.
      const uint64_t dep = txn->sequence_number == 0
                               ? opid.index - 1
                               : txn->last_committed;
      if (next_apply_index_ <= dep) {
        m_.applier_dependency_stalls->Increment();
        break;
      }
      // Row-level writeset check against in-window tasks: a safety net in
      // case the stamped interval is ever too optimistic.
      bool conflict = false;
      for (const binlog::RowOperation& op : txn->ops) {
        const std::string qualified =
            storage::RowTable(op) + "/" + storage::RowKey(op);
        if (applier_inflight_writes_.count(qualified) > 0) conflict = true;
        task.writeset.push_back(qualified);
      }
      if (conflict) {
        m_.applier_conflict_stalls->Increment();
        break;
      }
      task.is_txn = true;
      task.xid = txn->xid;
      task.gtid = txn->gtid;
      // Idempotence: skip transactions the engine already has (e.g.
      // replayed after the crash-recovery rollback of §A.2 case 3).
      if (engine_->ExecutedGtids().Contains(txn->gtid)) {
        task.skip = true;
        task.writeset.clear();
      } else {
        const storage::TxnId engine_txn = engine_->Begin();
        Status s;
        for (const binlog::RowOperation& op : txn->ops) {
          s = engine_->ApplyRow(engine_txn, op);
          if (!s.ok()) break;
        }
        if (s.ok()) s = engine_->Prepare(engine_txn, txn->xid);
        if (!s.ok()) {
          MYRAFT_LOG(Error) << options_.id << ": apply failed at "
                            << opid.ToString() << ": " << s;
          Status rollback = engine_->Rollback(engine_txn);
          (void)rollback;
          break;  // cursor not advanced: retried on the next pump
        }
        // Charge the modelled apply cost to the least-busy virtual slot.
        auto slot = std::min_element(applier_free_at_.begin(),
                                     applier_free_at_.end());
        const uint64_t start = std::max(now, *slot);
        *slot = start + options_.applier_txn_cost_micros;
        task.ready_at_micros = *slot;
        if (options_.tracer != nullptr && txn->trace_id != 0) {
          // Stitch to the originating commit via the GTID-body context.
          task.trace_span = options_.tracer->BeginSpan(
              "applier", "apply", txn->trace_id, txn->trace_span_id,
              "opid", opid, "slot", slot - applier_free_at_.begin());
        }
        m_.applier_concurrency->Record((int64_t)std::count_if(
            applier_free_at_.begin(), applier_free_at_.end(),
            [now](uint64_t t) { return t > now; }));
        for (const std::string& key : task.writeset) {
          applier_inflight_writes_.insert(key);
        }
      }
      apply_window_.emplace(next_dispatch_index_, std::move(task));
      dispatch_head_.reset();
      ++next_dispatch_index_;
      progress = true;
    }
  }

  const uint64_t lag = marker.index >= next_apply_index_
                           ? marker.index - next_apply_index_ + 1
                           : 0;
  m_.applier_lag_entries->Set((int64_t)lag);
  m_.applier_lag_hist->Record((int64_t)lag);
  MaybeServeReads();
}

void MySqlServer::ResetApplier() {
  for (auto& [index, task] : apply_window_) {
    if (task.is_txn && !task.skip) {
      Status s = engine_->RollbackPrepared(task.xid);
      if (!s.ok()) {
        MYRAFT_LOG(Error) << options_.id
                          << ": applier reset rollback: " << s;
      }
    }
    if (options_.tracer != nullptr && task.trace_span != 0) {
      options_.tracer->EndSpan(task.trace_span, "cancelled");
    }
  }
  apply_window_.clear();
  dispatch_head_.reset();
  applier_inflight_writes_.clear();
  std::fill(applier_free_at_.begin(), applier_free_at_.end(), 0);
  next_apply_index_ = engine_->LastAppliedOpId().index + 1;
  next_dispatch_index_ = next_apply_index_;
}

// --- Promotion (§3.3) --------------------------------------------------------------

void MySqlServer::OnLeadershipAcquired(uint64_t term, OpId noop_opid) {
  if (options_.kind == MemberKind::kLogtailer) {
    // §2.2: a logtailer elected as temporary leader transfers leadership
    // to a database replica via a regular promotion.
    witness_handoff_pending_ = true;
    MaybeWitnessHandoff();
    return;
  }
  promotion_ = PromotionState{term, noop_opid, clock_->NowMicros()};
  if (options_.tracer != nullptr) {
    const std::string args = trace::Args("term", term);
    options_.tracer->Instant("server", "promotion_started", 0, args);
    promotion_->trace_span =
        options_.tracer->BeginSpan("server", "promotion", 0, 0, args);
  }
  // Step 1 (no-op append) already happened inside Raft; steps 2-5 resume
  // from MaybeCompletePromotion as the applier catches up.
  RunApplier();
  MaybeCompletePromotion();
}

void MySqlServer::MaybeCompletePromotion() {
  if (!promotion_.has_value()) return;
  raft::RaftConsensus* consensus = consensus_.get();
  if (consensus->role() != RaftRole::kLeader ||
      consensus->term() != promotion_->term) {
    if (options_.tracer != nullptr && promotion_->trace_span != 0) {
      options_.tracer->EndSpan(promotion_->trace_span, "lost_leadership");
    }
    promotion_.reset();  // lost leadership before completing
    return;
  }
  // Step 2: the applier must have committed everything up to (and
  // including the position of) the no-op, and the no-op must be
  // consensus-committed. The low-water mark only advances past entries
  // the engine has committed, so this also waits out the parallel
  // window; requiring the window empty keeps no prepared applier state
  // alive when writes are enabled.
  if (!consensus->IsCommitted(promotion_->noop)) return;
  if (next_apply_index_ <= promotion_->noop.index ||
      !apply_window_.empty()) {
    RunApplier();
    if (next_apply_index_ <= promotion_->noop.index ||
        !apply_window_.empty()) {
      return;
    }
  }
  // Steps 3-5 take real orchestration time in production; model it with
  // a +-50% spread (host load, discovery round trips).
  if (promotion_->ready_at_micros == 0) {
    const uint64_t base = kPromotionOrchestrationMicros;
    uint64_t cost = base;
    if (rng_ != nullptr && base > 0) cost = base / 2 + rng_->Uniform(base);
    promotion_->ready_at_micros = clock_->NowMicros() + cost;
  }
  if (clock_->NowMicros() < promotion_->ready_at_micros) return;

  // Step 3: rewire relay-log -> binlog.
  Status s = binlog_->SwitchPersona(binlog::kBinlogPersona);
  if (!s.ok()) {
    MYRAFT_LOG(Error) << options_.id << ": persona rewire failed: " << s;
    return;
  }
  // Step 4: allow client writes.
  writes_enabled_ = true;
  next_txn_no_ = binlog_->gtids_in_log().NextTxnNo(options_.server_uuid);
  // Everything up to the no-op is engine-committed here; dependency
  // stamps on the new term's writes start from that floor.
  group_commit_last_committed_ =
      std::max(group_commit_last_committed_, promotion_->noop.index);
  SetDbRole(DbRole::kPrimary);
  // Step 5: publish to service discovery.
  if (discovery_ != nullptr) {
    discovery_->PublishPrimary(options_.replicaset, options_.id,
                               promotion_->term);
  }
  m_.promotions_completed->Increment();
  m_.promotion_latency_us->Record(clock_->NowMicros() -
                                  promotion_->started_micros);
  if (options_.tracer != nullptr) {
    options_.tracer->EndSpan(promotion_->trace_span);
    options_.tracer->Instant("server", "promotion_completed", 0,
                             "term", consensus->term());
  }
  promotion_.reset();
  MYRAFT_LOG(Info) << options_.id << ": promotion complete (term "
                   << consensus->term() << ")";
}

void MySqlServer::MaybeWitnessHandoff() {
  raft::RaftConsensus* consensus = consensus_.get();
  if (consensus->role() != RaftRole::kLeader) {
    witness_handoff_pending_ = false;
    return;
  }
  if (consensus->transfer_target().has_value()) return;  // in flight
  const auto& peers = consensus->peers();
  MemberId best;
  uint64_t best_match = 0;
  for (const auto& member : consensus->config().members) {
    if (member.kind != MemberKind::kMySql || !member.is_voter()) continue;
    auto it = peers.find(member.id);
    if (it == peers.end()) continue;
    if (best.empty() || it->second.match_index > best_match) {
      best = member.id;
      best_match = it->second.match_index;
    }
  }
  if (best.empty() || best_match < consensus->last_logged().index) {
    return;  // wait for a database replica to catch up
  }
  Status s = consensus->TransferLeadership(best);
  if (s.ok()) {
    MYRAFT_LOG(Info) << options_.id << ": witness handing leadership to "
                     << best;
  }
}

// --- Demotion (§3.3) ----------------------------------------------------------------

void MySqlServer::OnLeadershipLost(uint64_t term) {
  trace::Tracer* tracer = options_.tracer;
  if (tracer != nullptr && promotion_.has_value() &&
      promotion_->trace_span != 0) {
    tracer->EndSpan(promotion_->trace_span, "demoted");
  }
  promotion_.reset();
  witness_handoff_pending_ = false;
  if (options_.kind == MemberKind::kLogtailer) return;
  if (tracer != nullptr) {
    tracer->Instant("server", "demotion", 0, "term", term);
  }

  // Step 1: abort in-flight transactions awaiting consensus; they are in
  // prepared state so the rollback is online. The client outcome is
  // "unknown": the transaction may still be committed by the new leader
  // and re-applied by the applier (§A.2 case 3).
  for (auto& [index, pending] : pending_) {
    Status s = engine_->RollbackPrepared(pending.xid);
    if (!s.ok()) {
      MYRAFT_LOG(Error) << options_.id << ": demotion rollback: " << s;
    }
    m_.writes_aborted_on_demotion->Increment();
    if (tracer != nullptr) {
      tracer->EndSpan(pending.wait_span, "aborted");
      tracer->EndSpan(pending.total_span, "aborted_on_demotion");
    }
    pending.done(WriteResult{
        Status::Aborted("demoted: outcome unknown, retry against new primary"),
        pending.gtid, pending.opid});
  }
  pending_.clear();

  // Step 2: disable client writes.
  writes_enabled_ = false;
  // Step 3: rewire binlog -> relay-log.
  Status s = binlog_->SwitchPersona(binlog::kRelayLogPersona);
  if (!s.ok()) {
    MYRAFT_LOG(Error) << options_.id << ": persona rewire failed: " << s;
  }
  // Step 4 (truncation + GTID cleanup) happens inside Raft/BinlogLogAdapter
  // when the new leader's log conflicts; see OnGtidsTruncated.
  // Step 5: the applier resumes from the engine's recovered cursor
  // (rolling back any window tasks prepared but not yet retired).
  ResetApplier();
  SetDbRole(DbRole::kReplica);
  if (discovery_ != nullptr) {
    discovery_->WithdrawPrimary(options_.replicaset, options_.id, term);
  }
  m_.demotions->Increment();
}

void MySqlServer::OnGtidsTruncated(const binlog::GtidSet& removed) {
  MYRAFT_LOG(Info) << options_.id << ": truncated GTIDs "
                   << removed.ToString();
  // The apply window may hold prepared tasks from the truncated tail;
  // their entries no longer exist, so roll the window back to the
  // engine's committed prefix (committed entries are never truncated).
  const uint64_t last = binlog_->LastIndex();
  if (engine_ != nullptr &&
      (next_dispatch_index_ > last + 1 || next_apply_index_ > last + 1)) {
    ResetApplier();
  }
}

void MySqlServer::OnLeadershipTransferFailed(const MemberId& target,
                                             const Status& reason) {
  MYRAFT_LOG(Warning) << options_.id << ": leadership transfer to " << target
                      << " failed: " << reason;
  // Witnesses keep trying with the next candidate on subsequent ticks.
}

// --- Admin commands (§3) ---------------------------------------------------------------

MasterStatus MySqlServer::ShowMasterStatus() const {
  MasterStatus status;
  const auto position = binlog_->CurrentPosition();
  status.file = position.file;
  status.position = position.offset;
  status.executed_gtid_set = engine_ != nullptr
                                 ? engine_->ExecutedGtids().ToString()
                                 : binlog_->gtids_in_log().ToString();
  return status;
}

std::vector<BinaryLogInfo> MySqlServer::ShowBinaryLogs() const {
  std::vector<BinaryLogInfo> out;
  for (const std::string& file : binlog_->ListLogFiles()) {
    BinaryLogInfo info;
    info.name = file;
    auto size = binlog_->FileSize(file);
    info.size = size.ok() ? *size : 0;
    out.push_back(std::move(info));
  }
  return out;
}

ReplicaStatus MySqlServer::ShowReplicaStatus() const {
  ReplicaStatus status;
  status.applier_running = engine_ != nullptr && !writes_enabled_;
  status.last_applied =
      engine_ != nullptr ? engine_->LastAppliedOpId() : OpId{};
  status.commit_marker = consensus_->commit_marker();
  status.lag_entries =
      status.commit_marker.index >= next_apply_index_
          ? status.commit_marker.index - next_apply_index_ + 1
          : 0;
  status.primary = consensus_->leader();
  return status;
}

Status MySqlServer::FlushBinaryLogs() {
  if (!writes_enabled_) {
    return Status::IllegalState("FLUSH BINARY LOGS runs on the primary");
  }
  // §A.1: the rotate event is replicated with an OpId so log files stay
  // identical across the replicaset.
  auto opid = consensus_->Replicate(EntryType::kRotate, "");
  if (!opid.ok()) return opid.status();
  return Status::OK();
}

Status MySqlServer::PurgeLogsTo(const std::string& file) {
  uint64_t first_surviving;
  MYRAFT_ASSIGN_OR_RETURN(first_surviving, binlog_->FirstIndexOfFile(file));
  if (first_surviving == 0) return Status::OK();
  const uint64_t last_purged = first_surviving - 1;

  raft::RaftConsensus* consensus = consensus_.get();
  if (consensus->role() == RaftRole::kLeader) {
    // §A.1: never purge entries some member (any region) still needs.
    for (const auto& [peer, progress] : consensus->peers()) {
      if (progress.match_index < last_purged) {
        return Status::IllegalState(
            StringPrintf("%s has only replicated up to %llu", peer.c_str(),
                         (unsigned long long)progress.match_index));
      }
    }
  } else {
    // Replicas only purge what is consensus-committed (the leader's
    // watermark check already gated the fleet-wide purge).
    if (consensus->commit_marker().index < last_purged) {
      return Status::IllegalState("cannot purge uncommitted entries");
    }
  }
  if (engine_ != nullptr &&
      engine_->LastAppliedOpId().index < last_purged) {
    return Status::IllegalState("cannot purge entries not yet applied");
  }
  return binlog_->PurgeLogsTo(file);
}

InvariantSnapshot MySqlServer::CaptureInvariantSnapshot() const {
  InvariantSnapshot snap;
  const raft::RaftConsensus* consensus = consensus_.get();
  snap.role = consensus->role();
  snap.term = consensus->term();
  snap.leader = consensus->leader();
  snap.commit_marker = consensus->commit_marker();
  snap.last_logged = consensus->last_logged();
  snap.first_log_index = binlog_->FirstIndex();
  snap.last_durable_index = consensus->last_synced_index();
  snap.writes_enabled = writes_enabled_;
  snap.gtids_in_log = binlog_->gtids_in_log().ToString();
  if (engine_ != nullptr) {
    snap.executed_gtids = engine_->ExecutedGtids().ToString();
    snap.last_applied = engine_->LastAppliedOpId();
    snap.state_checksum = engine_->StateChecksum();
    snap.row_count = engine_->RowCount();
  }
  return snap;
}

MySqlServer::DebugStatusSnapshot MySqlServer::DebugStatus() const {
  DebugStatusSnapshot s;
  s.raft = consensus_->DebugStatus();
  s.writes_enabled = writes_enabled_;
  s.db_role = db_role();
  s.applied_index = AppliedIndex();
  s.next_apply_index = next_apply_index_;
  s.apply_window = apply_window_.size();
  s.pending_commits = pending_.size();
  s.parked_reads = parked_reads_.size();
  s.primary_applied_floor = primary_applied_floor_;
  s.executed_gtid_set = engine_ != nullptr
                            ? engine_->ExecutedGtids().ToString()
                            : binlog_->gtids_in_log().ToString();
  return s;
}

std::string MySqlServer::DebugStatusSnapshot::ToJson() const {
  std::string out = "{\"raft\":";
  out.append(raft.ToJson());
  out.append(StringPrintf(
      ",\"writes_enabled\":%s,\"db_role\":\"%s\",\"applied_index\":%llu,"
      "\"next_apply_index\":%llu,\"apply_window\":%llu,"
      "\"pending_commits\":%llu,\"parked_reads\":%llu,"
      "\"primary_applied_floor\":%llu,\"executed_gtids\":\"%s\"}",
      writes_enabled ? "true" : "false",
      std::string(DbRoleToString(db_role)).c_str(),
      (unsigned long long)applied_index, (unsigned long long)next_apply_index,
      (unsigned long long)apply_window, (unsigned long long)pending_commits,
      (unsigned long long)parked_reads,
      (unsigned long long)primary_applied_floor, executed_gtid_set.c_str()));
  return out;
}

}  // namespace myraft::server

#include "semisync/semisync_server.h"

#include <algorithm>

#include "binlog/transaction.h"
#include "util/logging.h"

namespace myraft::semisync {

namespace {

/// Caps on one shipped batch.
constexpr size_t kMaxEntriesPerRpc = 64;
constexpr uint64_t kMaxBytesPerRpc = 1 << 20;
/// Shipped entries still unacked this long after the last send are resent.
constexpr uint64_t kRpcTimeoutMicros = 1'000'000;

}  // namespace

Result<std::unique_ptr<SemiSyncServer>> SemiSyncServer::Create(
    Env* env, SemiSyncOptions options, Clock* clock, SendFn send) {
  if (clock == nullptr) {
    return Status::InvalidArgument("semisync: clock required");
  }
  auto server = std::unique_ptr<SemiSyncServer>(
      new SemiSyncServer(env, std::move(options), clock, std::move(send)));
  MYRAFT_RETURN_NOT_OK(server->Init());
  return server;
}

Status SemiSyncServer::Init() {
  MYRAFT_RETURN_NOT_OK(env_->CreateDirIfMissing(options_.data_dir));
  binlog::BinlogManagerOptions binlog_options;
  binlog_options.dir = options_.data_dir + "/log";
  binlog_options.persona = binlog::kRelayLogPersona;
  binlog_options.server_id = options_.numeric_server_id;
  binlog_options.clock = clock_;
  auto manager = binlog::BinlogManager::Open(env_, binlog_options);
  if (!manager.ok()) return manager.status();
  binlog_ = std::move(*manager);

  if (options_.kind == MemberKind::kMySql) {
    storage::EngineOptions engine_options;
    engine_options.dir = options_.data_dir + "/engine";
    engine_options.clock = clock_;
    auto engine = storage::MiniEngine::Open(env_, engine_options);
    if (!engine.ok()) return engine.status();
    engine_ = std::move(*engine);
    next_apply_index_ = engine_->LastAppliedOpId().index + 1;
  }
  return Status::OK();
}

const binlog::GtidSet& SemiSyncServer::ExecutedGtids() const {
  static const binlog::GtidSet kEmpty;
  return engine_ != nullptr ? engine_->ExecutedGtids() : kEmpty;
}

uint64_t SemiSyncServer::ReceiverMatchIndex(const MemberId& member) const {
  auto it = receivers_.find(member);
  return it != receivers_.end() ? it->second.match_index : 0;
}

// --- Control plane ------------------------------------------------------------

Status SemiSyncServer::MakePrimary(uint64_t generation,
                                   std::vector<MemberId> receivers,
                                   std::set<MemberId> ackers) {
  if (engine_ == nullptr) {
    return Status::NotSupported("logtailers cannot be primary");
  }
  if (generation <= generation_ && is_primary_) {
    return Status::InvalidArgument("generation must increase");
  }
  generation_ = std::max(generation, generation_);
  is_primary_ = true;
  read_only_ = false;
  primary_.clear();
  ackers_ = std::move(ackers);
  receivers_.clear();
  for (MemberId& receiver : receivers) {
    Receiver state;
    state.next_index = binlog_->LastIndex() + 1;
    receivers_[std::move(receiver)] = state;
  }
  MYRAFT_RETURN_NOT_OK(binlog_->SwitchPersona(binlog::kBinlogPersona));
  next_txn_no_ = binlog_->gtids_in_log().NextTxnNo(options_.server_uuid);
  return Status::OK();
}

Status SemiSyncServer::MakeReplica(const MemberId& primary) {
  // Abort any pending semi-sync waits (the automation fenced us off).
  for (auto& [index, pending] : pending_) {
    if (engine_ != nullptr) {
      Status s = engine_->RollbackPrepared(pending.xid);
      (void)s;
    }
    pending.done(SemiSyncWriteResult{
        Status::Aborted("demoted by automation"), pending.gtid, false});
  }
  pending_.clear();
  is_primary_ = false;
  read_only_ = true;
  primary_ = primary;
  receivers_.clear();
  ackers_.clear();
  MYRAFT_RETURN_NOT_OK(binlog_->SwitchPersona(binlog::kRelayLogPersona));
  return Status::OK();
}

void SemiSyncServer::SetReadOnly(bool read_only) { read_only_ = read_only; }

// --- Primary write path ----------------------------------------------------------

void SemiSyncServer::SubmitWrite(std::vector<binlog::RowOperation> ops,
                                 SemiSyncWriteCallback done) {
  auto fail = [&done](Status status) {
    done(SemiSyncWriteResult{std::move(status), {}, false});
  };
  if (engine_ == nullptr) {
    fail(Status::NotSupported("logtailers do not accept writes"));
    return;
  }
  if (!is_primary_ || read_only_) {
    fail(Status::ServiceUnavailable("server is read-only"));
    return;
  }

  const storage::TxnId txn = engine_->Begin();
  binlog::TransactionPayloadBuilder builder;
  for (binlog::RowOperation& op : ops) {
    Status s;
    const std::string table = op.database + "." + op.table;
    if (op.kind == binlog::RowOperation::Kind::kDelete) {
      s = engine_->Delete(txn, table, op.before_image);
    } else {
      const std::string& image = op.after_image;
      s = engine_->Put(txn, table, image.substr(0, image.find('=')), image);
    }
    if (!s.ok()) {
      Status rollback = engine_->Rollback(txn);
      (void)rollback;
      fail(std::move(s));
      return;
    }
    builder.AddOperation(std::move(op));
  }

  const OpId opid{generation_, binlog_->LastIndex() + 1};
  const uint64_t xid = opid.index;
  Status prepared = engine_->Prepare(txn, xid);
  if (!prepared.ok()) {
    Status rollback = engine_->Rollback(txn);
    (void)rollback;
    fail(std::move(prepared));
    return;
  }
  const binlog::Gtid gtid{options_.server_uuid, next_txn_no_++};
  const std::string payload = builder.Finalize(
      gtid, opid, xid, clock_->NowMicros(), options_.numeric_server_id);
  const LogEntry entry =
      LogEntry::Make(opid, EntryType::kTransaction, payload);
  Status appended = binlog_->AppendEntry(entry);
  if (appended.ok()) appended = binlog_->Sync();
  if (!appended.ok()) {
    Status rollback = engine_->RollbackPrepared(xid);
    (void)rollback;
    fail(std::move(appended));
    return;
  }

  PendingCommit pending;
  pending.xid = xid;
  pending.opid = opid;
  pending.gtid = gtid;
  pending.done = std::move(done);
  pending.deadline_micros = clock_->NowMicros() + options_.ack_timeout_micros;
  pending_[opid.index] = std::move(pending);

  for (const auto& [receiver_id, state] : receivers_) {
    ShipTo(receiver_id);
  }
  // Degenerate deployments without ackers commit immediately (pure async).
  if (ackers_.empty()) {
    auto it = pending_.find(opid.index);
    if (it != pending_.end()) {
      PendingCommit ready = std::move(it->second);
      pending_.erase(it);
      CompletePending(std::move(ready), /*degraded=*/false);
    }
  }
}

void SemiSyncServer::CompletePending(PendingCommit pending, bool degraded) {
  Status s = engine_->CommitPrepared(pending.xid, pending.opid, pending.gtid);
  if (!s.ok()) {
    pending.done(SemiSyncWriteResult{std::move(s), pending.gtid, degraded});
    return;
  }
  ++stats_.writes_committed;
  if (degraded) ++stats_.commits_degraded_to_async;
  pending.done(SemiSyncWriteResult{Status::OK(), pending.gtid, degraded});
}

void SemiSyncServer::ShipTo(const MemberId& receiver_id) {
  auto it = receivers_.find(receiver_id);
  if (it == receivers_.end()) return;
  Receiver& receiver = it->second;
  while (receiver.next_index <= binlog_->LastIndex()) {
    AppendEntriesRequest request;
    request.leader = options_.id;
    request.dest = receiver_id;
    request.term = generation_;
    if (receiver.next_index > 1) {
      auto prev = binlog_->OpIdAt(receiver.next_index - 1);
      if (!prev.ok()) {
        MYRAFT_LOG(Warning) << options_.id << ": cannot serve "
                            << receiver_id << ": " << prev.status();
        return;
      }
      request.prev = *prev;
    }
    auto batch = binlog_->ReadEntries(receiver.next_index, kMaxEntriesPerRpc,
                                      kMaxBytesPerRpc);
    if (!batch.ok() || batch->empty()) return;
    request.entries = std::move(*batch);
    receiver.next_index = request.entries.back().id.index + 1;
    receiver.shipped_index =
        std::max(receiver.shipped_index, receiver.next_index - 1);
    receiver.last_rpc_sent_micros = clock_->NowMicros();
    send_(std::move(request));
  }
}

// --- Receiver side ------------------------------------------------------------------

void SemiSyncServer::HandleMessage(const Message& message) {
  if (const auto* request = std::get_if<AppendEntriesRequest>(&message)) {
    if (request->dest == options_.id) HandleAppendEntries(*request);
    return;
  }
  if (const auto* response = std::get_if<AppendEntriesResponse>(&message)) {
    if (response->dest == options_.id) HandleAppendEntriesResponse(*response);
    return;
  }
}

void SemiSyncServer::HandleAppendEntries(const AppendEntriesRequest& request) {
  AppendEntriesResponse response;
  response.from = options_.id;
  response.dest = request.leader;
  response.term = generation_;
  response.success = false;
  response.last_received = binlog_->LastOpId();

  // Fencing: streams from a deposed primary (older generation) are
  // rejected; automation bumps the generation on every failover.
  if (is_primary_ || request.term < generation_ ||
      (!primary_.empty() && request.leader != primary_)) {
    send_(std::move(response));
    return;
  }
  generation_ = request.term;

  if (request.prev.index > 0) {
    if (request.prev.index > binlog_->LastIndex()) {
      send_(std::move(response));
      return;
    }
    auto local_prev = binlog_->OpIdAt(request.prev.index);
    if (!local_prev.ok() || local_prev->term != request.prev.term) {
      response.last_received =
          OpId{0, request.prev.index > 0 ? request.prev.index - 1 : 0};
      send_(std::move(response));
      return;
    }
  }

  bool appended = false;
  for (const LogEntry& entry : request.entries) {
    auto local = binlog_->OpIdAt(entry.id.index);
    if (local.ok()) {
      if (local->term == entry.id.term) continue;
      // Log healing: our diverged tail loses to the new primary's stream.
      auto removed = binlog_->TruncateAfter(entry.id.index - 1);
      if (!removed.ok()) {
        send_(std::move(response));
        return;
      }
      stats_.healed_transactions += removed->Count();
      if (engine_ != nullptr &&
          engine_->ExecutedGtids().Intersects(*removed)) {
        // An acknowledged transaction was lost: the engine has data the
        // replicaset does not. Flag for rebuild.
        engine_diverged_ = true;
      }
      if (next_apply_index_ > entry.id.index) {
        next_apply_index_ = entry.id.index;
      }
    }
    Status s = binlog_->AppendEntry(entry);
    if (!s.ok()) {
      MYRAFT_LOG(Error) << options_.id << ": semisync append: " << s;
      break;
    }
    appended = true;
  }
  if (appended) {
    Status s = binlog_->Sync();
    if (!s.ok()) {
      send_(std::move(response));
      return;
    }
  }

  response.success = true;
  response.last_received = binlog_->LastOpId();
  response.last_durable_index = response.last_received.index;
  send_(std::move(response));

  // Replicas apply immediately — there is no consensus-commit marker.
  ApplyFromRelayLog();
}

void SemiSyncServer::HandleAppendEntriesResponse(
    const AppendEntriesResponse& response) {
  if (!is_primary_) return;
  auto it = receivers_.find(response.from);
  if (it == receivers_.end()) return;
  Receiver& receiver = it->second;

  if (!response.success) {
    receiver.next_index = std::max<uint64_t>(
        1, std::min(receiver.next_index - 1,
                    response.last_received.index + 1));
    ShipTo(response.from);
    return;
  }
  receiver.match_index =
      std::max(receiver.match_index, response.last_received.index);
  receiver.next_index =
      std::max(receiver.next_index, receiver.match_index + 1);

  // Count semi-sync acks for pending commits.
  if (ackers_.count(response.from) > 0) {
    for (auto pending_it = pending_.begin(); pending_it != pending_.end();) {
      if (pending_it->first > receiver.match_index) break;
      PendingCommit& pending = pending_it->second;
      if (++pending.acks >= options_.required_acks) {
        PendingCommit ready = std::move(pending);
        pending_it = pending_.erase(pending_it);
        CompletePending(std::move(ready), /*degraded=*/false);
      } else {
        ++pending_it;
      }
    }
  }
  ShipTo(response.from);
}

void SemiSyncServer::Tick() {
  const uint64_t now = clock_->NowMicros();
  if (is_primary_) {
    for (auto& [receiver_id, receiver] : receivers_) {
      // RPC timeout: resend from the first unacked entry.
      if (receiver.shipped_index > receiver.match_index &&
          now - receiver.last_rpc_sent_micros > kRpcTimeoutMicros) {
        receiver.next_index = receiver.match_index + 1;
      }
      ShipTo(receiver_id);
    }
    // Semi-sync timeout: degrade to async (commit without the ack).
    while (!pending_.empty() &&
           pending_.begin()->second.deadline_micros <= now) {
      PendingCommit pending = std::move(pending_.begin()->second);
      pending_.erase(pending_.begin());
      CompletePending(std::move(pending), /*degraded=*/true);
    }
  } else {
    ApplyFromRelayLog();
  }
}

// --- Applier --------------------------------------------------------------------

void SemiSyncServer::ApplyFromRelayLog() {
  if (engine_ == nullptr || is_primary_) return;
  const uint64_t first = binlog_->FirstIndex();
  if (first > 0 && next_apply_index_ < first &&
      engine_->LastAppliedOpId().index + 1 >= first) {
    next_apply_index_ = std::max(next_apply_index_, first);
  }
  while (next_apply_index_ <= binlog_->LastIndex()) {
    auto entry = binlog_->ReadEntry(next_apply_index_);
    if (!entry.ok()) break;
    if (entry->type == EntryType::kTransaction) {
      Status s = ApplyOneTransaction(*entry);
      if (!s.ok()) {
        MYRAFT_LOG(Error) << options_.id << ": apply: " << s;
        break;
      }
      ++stats_.applier_transactions_applied;
    }
    ++next_apply_index_;
  }
}

Status SemiSyncServer::ApplyOneTransaction(const LogEntry& entry) {
  auto txn = binlog::ParseTransactionPayload(entry.payload);
  if (!txn.ok()) return txn.status();
  if (engine_->ExecutedGtids().Contains(txn->gtid)) return Status::OK();
  const storage::TxnId engine_txn = engine_->Begin();
  for (const binlog::RowOperation& op : txn->ops) {
    Status s;
    const std::string table = op.database + "." + op.table;
    if (op.kind == binlog::RowOperation::Kind::kDelete) {
      s = engine_->Delete(engine_txn, table, op.before_image);
    } else {
      const std::string& image = op.after_image;
      s = engine_->Put(engine_txn, table, image.substr(0, image.find('=')),
                       image);
    }
    if (!s.ok()) {
      Status rollback = engine_->Rollback(engine_txn);
      (void)rollback;
      return s;
    }
  }
  MYRAFT_RETURN_NOT_OK(engine_->Prepare(engine_txn, txn->xid));
  return engine_->CommitPrepared(txn->xid, entry.id, txn->gtid);
}

std::optional<std::string> SemiSyncServer::Read(const std::string& table,
                                                const std::string& key) const {
  if (engine_ == nullptr) return std::nullopt;
  return engine_->Get(table, key);
}

}  // namespace myraft::semisync

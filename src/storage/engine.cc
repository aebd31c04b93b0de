#include "storage/engine.h"

#include <algorithm>

#include "util/coding.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace myraft::storage {

namespace {

constexpr char kSnapshotMagic[] = "MYRAFTSNAP1";

std::string LockKey(const std::string& table, const std::string& key) {
  std::string out = table;
  out.push_back('\0');
  out.append(key);
  return out;
}

/// A WAL frame: [fixed32 crc32c(body)][varint length][body].
template <typename Io, typename Crc, typename Body>
void WalFrameFields(Io& io, Crc& crc, Body& body) {
  io.Fixed32(crc);
  io.LengthPrefixed(body);
}

/// The snapshot file: magic, the last applied OpId, the executed GTIDs,
/// then every table's rows, under one trailing CRC32C.
template <typename Io, typename Applied, typename Gtids, typename Tables>
void SnapshotFields(Io& io, Applied& applied, Gtids& gtids, Tables& tables) {
  io.Crc32c([&] {
    io.Magic(kSnapshotMagic);
    io.Fixed64(applied.term);
    io.Fixed64(applied.index);
    io.Nested(gtids);
    io.Repeat(tables, [](auto& io, auto& table) {
      io.LengthPrefixed(table.first);
      io.Repeat(table.second, [](auto& io, auto& row) {
        io.LengthPrefixed(row.first);
        io.LengthPrefixed(row.second);
      });
    });
  });
}

}  // namespace

Result<std::unique_ptr<MiniEngine>> MiniEngine::Open(Env* env,
                                                     EngineOptions options) {
  if (options.clock == nullptr) {
    return Status::InvalidArgument("engine: clock is required");
  }
  MYRAFT_RETURN_NOT_OK(env->CreateDirIfMissing(options.dir));
  auto engine =
      std::unique_ptr<MiniEngine>(new MiniEngine(env, std::move(options)));
  MYRAFT_RETURN_NOT_OK(engine->Recover());
  return engine;
}

Status MiniEngine::Recover() {
  MYRAFT_RETURN_NOT_OK(LoadSnapshot());

  if (env_->FileExists(WalPath())) {
    auto contents = env_->ReadFileToString(WalPath());
    if (!contents.ok()) return contents.status();
    uint64_t good_bytes = 0;
    MYRAFT_RETURN_NOT_OK(ReplayWal(*contents, &good_bytes));
    if (good_bytes < contents->size()) {
      MYRAFT_LOG(Warning) << "engine: trimming torn WAL tail at "
                          << good_bytes;
      MYRAFT_RETURN_NOT_OK(env_->TruncateFile(WalPath(), good_bytes));
    }
  }

  auto wal = env_->NewAppendableFile(WalPath());
  if (!wal.ok()) return wal.status();
  wal_ = std::move(*wal);

  // §A.2: prepared transactions found at restart are rolled back; the
  // applier re-applies anything consensus-committed from the log.
  std::vector<uint64_t> to_rollback;
  for (const auto& [xid, txn_id] : prepared_by_xid_) to_rollback.push_back(xid);
  for (uint64_t xid : to_rollback) {
    MYRAFT_RETURN_NOT_OK(RollbackPrepared(xid));
    rolled_back_at_recovery_.push_back(xid);
  }
  return Status::OK();
}

Status MiniEngine::ReplayWal(const std::string& contents,
                             uint64_t* good_bytes) {
  Slice in(contents);
  *good_bytes = 0;
  while (!in.empty()) {
    uint32_t crc = 0;
    Slice body;
    SliceSource frame(in);
    WalFrameFields(frame, crc, body);
    if (!frame.ok() || crc32c::Value(body.data(), body.size()) != crc) {
      break;  // torn/corrupt tail
    }
    in = frame.rest();
    *good_bytes = contents.size() - in.size();

    WalRecord record;
    MYRAFT_ASSIGN_OR_RETURN(record, DecodeRecord<WalRecord>(body, "wal"));
    switch (record.type) {
      case WalRecord::Type::kPrepare: {
        const TxnId txn_id = next_txn_id_++;
        ActiveTxn txn;
        txn.writes = std::move(record.writes);
        txn.prepared = true;
        txn.xid = record.xid;
        active_[txn_id] = std::move(txn);
        prepared_by_xid_[record.xid] = txn_id;
        break;
      }
      case WalRecord::Type::kCommit: {
        auto it = prepared_by_xid_.find(record.xid);
        if (it == prepared_by_xid_.end()) {
          return Status::Corruption("wal: commit of unknown xid");
        }
        ApplyWrites(active_[it->second].writes);
        active_.erase(it->second);
        prepared_by_xid_.erase(it);
        last_applied_ = record.opid;
        executed_gtids_.Add(record.gtid);
        break;
      }
      case WalRecord::Type::kRollback: {
        auto it = prepared_by_xid_.find(record.xid);
        if (it == prepared_by_xid_.end()) {
          return Status::Corruption("wal: rollback of unknown xid");
        }
        active_.erase(it->second);
        prepared_by_xid_.erase(it);
        break;
      }
    }
  }
  return Status::OK();
}

Status MiniEngine::LoadSnapshot() {
  if (!env_->FileExists(SnapshotPath())) return Status::OK();
  auto contents = env_->ReadFileToString(SnapshotPath());
  if (!contents.ok()) return contents.status();
  SliceSource source(*contents);
  SnapshotFields(source, last_applied_, executed_gtids_, tables_);
  return source.Finish("snapshot");
}

Status MiniEngine::AppendWalRecord(const WalRecord& record) {
  std::string body;
  EncodeRecord(record, &body);
  const uint32_t crc = crc32c::Value(body.data(), body.size());
  std::string framed;
  StringSink sink(&framed);
  WalFrameFields(sink, crc, body);
  return wal_->Append(framed);
}

TxnId MiniEngine::Begin() {
  const TxnId id = next_txn_id_++;
  active_[id] = ActiveTxn{};
  return id;
}

Status MiniEngine::Write(TxnId txn, const std::string& table,
                         const std::string& key,
                         std::optional<std::string> value) {
  auto it = active_.find(txn);
  if (it == active_.end()) return Status::NotFound("no such transaction");
  if (it->second.prepared) {
    return Status::IllegalState("transaction already prepared");
  }
  const std::string lock = LockKey(table, key);
  auto lock_it = locks_.find(lock);
  if (lock_it != locks_.end() && lock_it->second != txn) {
    return Status::Aborted("row locked by another transaction");
  }
  locks_[lock] = txn;
  // Overwrite a previous pending write to the same row.
  for (PendingWrite& w : it->second.writes) {
    if (w.table == table && w.key == key) {
      w.value = std::move(value);
      return Status::OK();
    }
  }
  it->second.writes.push_back(PendingWrite{table, key, std::move(value)});
  return Status::OK();
}

std::string RowTable(const binlog::RowOperation& op) {
  return op.database + "." + op.table;
}

std::string RowKey(const binlog::RowOperation& op) {
  if (op.kind == binlog::RowOperation::Kind::kDelete) return op.before_image;
  return op.after_image.substr(0, op.after_image.find('='));
}

Status MiniEngine::ApplyRow(TxnId txn, const binlog::RowOperation& op) {
  if (op.kind == binlog::RowOperation::Kind::kDelete) {
    return Delete(txn, RowTable(op), RowKey(op));
  }
  return Put(txn, RowTable(op), RowKey(op), op.after_image);
}

Result<TxnId> MiniEngine::Execute(
    const std::vector<binlog::RowOperation>& ops) {
  const TxnId txn = Begin();
  for (const binlog::RowOperation& op : ops) {
    Status s = ApplyRow(txn, op);
    if (!s.ok()) {
      Status rollback = Rollback(txn);
      (void)rollback;
      return s;
    }
  }
  return txn;
}

Status MiniEngine::Put(TxnId txn, const std::string& table,
                       const std::string& key, const std::string& value) {
  return Write(txn, table, key, value);
}

Status MiniEngine::Delete(TxnId txn, const std::string& table,
                          const std::string& key) {
  return Write(txn, table, key, std::nullopt);
}

std::optional<std::string> MiniEngine::Get(const std::string& table,
                                           const std::string& key) const {
  auto t = tables_.find(table);
  if (t == tables_.end()) return std::nullopt;
  auto r = t->second.find(key);
  if (r == t->second.end()) return std::nullopt;
  return r->second;
}

Status MiniEngine::Prepare(TxnId txn, uint64_t xid) {
  auto it = active_.find(txn);
  if (it == active_.end()) return Status::NotFound("no such transaction");
  if (it->second.prepared) return Status::IllegalState("already prepared");
  if (prepared_by_xid_.count(xid) > 0) {
    return Status::AlreadyPresent("xid already in use");
  }
  WalRecord record;
  record.type = WalRecord::Type::kPrepare;
  record.xid = xid;
  // The record borrows the write set for the encode and hands it back.
  record.writes = std::move(it->second.writes);
  const Status appended = AppendWalRecord(record);
  it->second.writes = std::move(record.writes);
  MYRAFT_RETURN_NOT_OK(appended);
  it->second.prepared = true;
  it->second.xid = xid;
  prepared_by_xid_[xid] = txn;
  return Status::OK();
}

Status MiniEngine::CommitPrepared(uint64_t xid, OpId opid,
                                  const binlog::Gtid& gtid) {
  auto it = prepared_by_xid_.find(xid);
  if (it == prepared_by_xid_.end()) {
    return Status::NotFound("no prepared transaction with xid");
  }
  WalRecord record;
  record.type = WalRecord::Type::kCommit;
  record.xid = xid;
  record.opid = opid;
  record.gtid = gtid;
  MYRAFT_RETURN_NOT_OK(AppendWalRecord(record));

  ActiveTxn& txn = active_[it->second];
  ApplyWrites(txn.writes);
  ReleaseLocks(txn.writes);
  active_.erase(it->second);
  prepared_by_xid_.erase(it);
  last_applied_ = opid;
  executed_gtids_.Add(gtid);
  return Status::OK();
}

Status MiniEngine::RollbackPrepared(uint64_t xid) {
  auto it = prepared_by_xid_.find(xid);
  if (it == prepared_by_xid_.end()) {
    return Status::NotFound("no prepared transaction with xid");
  }
  WalRecord record;
  record.type = WalRecord::Type::kRollback;
  record.xid = xid;
  MYRAFT_RETURN_NOT_OK(AppendWalRecord(record));

  ActiveTxn& txn = active_[it->second];
  ReleaseLocks(txn.writes);
  active_.erase(it->second);
  prepared_by_xid_.erase(it);
  return Status::OK();
}

Status MiniEngine::Rollback(TxnId txn) {
  auto it = active_.find(txn);
  if (it == active_.end()) return Status::NotFound("no such transaction");
  if (it->second.prepared) {
    return Status::IllegalState("use RollbackPrepared for prepared txns");
  }
  ReleaseLocks(it->second.writes);
  active_.erase(it);
  return Status::OK();
}

Status MiniEngine::Sync() { return wal_->Sync(); }

void MiniEngine::ApplyWrites(const std::vector<PendingWrite>& writes) {
  for (const PendingWrite& w : writes) {
    if (w.value.has_value()) {
      tables_[w.table][w.key] = *w.value;
    } else {
      auto t = tables_.find(w.table);
      if (t != tables_.end()) t->second.erase(w.key);
    }
  }
}

void MiniEngine::ReleaseLocks(const std::vector<PendingWrite>& writes) {
  for (const PendingWrite& w : writes) {
    locks_.erase(LockKey(w.table, w.key));
  }
}

std::vector<uint64_t> MiniEngine::PreparedXids() const {
  std::vector<uint64_t> out;
  for (const auto& [xid, txn] : prepared_by_xid_) out.push_back(xid);
  return out;
}

Result<std::vector<PendingWrite>> MiniEngine::PendingWrites(TxnId txn) const {
  auto it = active_.find(txn);
  if (it == active_.end()) return Status::NotFound("no such transaction");
  return it->second.writes;
}

uint64_t MiniEngine::WalDurableBytes() const {
  CrashFaultInjectionEnv* fault_env = GetCrashFaultInjectionEnv(env_);
  if (fault_env != nullptr) return fault_env->SyncedSize(WalPath());
  return WalSizeBytes();
}

uint64_t MiniEngine::StateChecksum() const {
  // Tables and rows iterate in sorted order, so this is deterministic and
  // comparable across replicas regardless of write interleavings.
  uint32_t crc = 0;
  for (const auto& [table, rows] : tables_) {
    crc = crc32c::Extend(crc, table.data(), table.size());
    for (const auto& [key, value] : rows) {
      crc = crc32c::Extend(crc, key.data(), key.size());
      crc = crc32c::Extend(crc, value.data(), value.size());
    }
  }
  return (static_cast<uint64_t>(crc) << 32) | RowCount();
}

uint64_t MiniEngine::RowCount() const {
  uint64_t n = 0;
  for (const auto& [table, rows] : tables_) n += rows.size();
  return n;
}

Status MiniEngine::Checkpoint() {
  if (!prepared_by_xid_.empty()) {
    return Status::IllegalState(
        "cannot checkpoint with prepared transactions in flight");
  }
  std::string out;
  StringSink sink(&out);
  SnapshotFields(sink, last_applied_, executed_gtids_, tables_);

  const std::string tmp = SnapshotPath() + ".tmp";
  MYRAFT_RETURN_NOT_OK(env_->WriteStringToFile(out, tmp, /*sync=*/true));
  MYRAFT_RETURN_NOT_OK(env_->RenameFile(tmp, SnapshotPath()));

  // The WAL is superseded by the snapshot.
  MYRAFT_RETURN_NOT_OK(wal_->Close());
  wal_ = nullptr;
  MYRAFT_RETURN_NOT_OK(env_->TruncateFile(WalPath(), 0));
  auto wal = env_->NewAppendableFile(WalPath());
  if (!wal.ok()) return wal.status();
  wal_ = std::move(*wal);
  return Status::OK();
}

}  // namespace myraft::storage

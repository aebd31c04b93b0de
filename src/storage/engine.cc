#include "storage/engine.h"

#include <algorithm>

#include "util/coding.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace myraft::storage {

namespace {

constexpr uint8_t kWalPrepare = 1;
constexpr uint8_t kWalCommit = 2;
constexpr uint8_t kWalRollback = 3;

constexpr char kSnapshotMagic[] = "MYRAFTSNAP1";
constexpr size_t kSnapshotMagicLen = sizeof(kSnapshotMagic) - 1;

std::string LockKey(const std::string& table, const std::string& key) {
  std::string out = table;
  out.push_back('\0');
  out.append(key);
  return out;
}

void EncodeWrites(const std::vector<PendingWrite>& writes, std::string* out) {
  PutVarint64(out, writes.size());
  for (const PendingWrite& w : writes) {
    PutLengthPrefixed(out, w.table);
    PutLengthPrefixed(out, w.key);
    out->push_back(w.value.has_value() ? 1 : 0);
    PutLengthPrefixed(out, w.value.value_or(""));
  }
}

bool DecodeWrites(Slice* in, std::vector<PendingWrite>* writes) {
  uint64_t n;
  if (!GetVarint64(in, &n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    PendingWrite w;
    Slice table, key, value;
    if (!GetLengthPrefixed(in, &table) || !GetLengthPrefixed(in, &key) ||
        in->empty()) {
      return false;
    }
    const bool has_value = (*in)[0] != 0;
    in->RemovePrefix(1);
    if (!GetLengthPrefixed(in, &value)) return false;
    w.table = table.ToString();
    w.key = key.ToString();
    if (has_value) w.value = value.ToString();
    writes->push_back(std::move(w));
  }
  return true;
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
  // Write sets of replayed prepares, keyed by xid.
  while (!in.empty()) {
    Slice record = in;  // attempt; only advance on success
    uint32_t crc;
    Slice body;
    if (!GetFixed32(&record, &crc) || !GetLengthPrefixed(&record, &body)) {
      break;  // torn tail
    }
    if (crc32c::Value(body.data(), body.size()) != crc) {
      break;  // torn/corrupt tail
    }
    in = record;
    *good_bytes = contents.size() - in.size();

    Slice b = body;
    if (b.empty()) return Status::Corruption("wal: empty record");
    const uint8_t type = static_cast<uint8_t>(b[0]);
    b.RemovePrefix(1);
    switch (type) {
      case kWalPrepare: {
        uint64_t xid;
        std::vector<PendingWrite> writes;
        if (!GetVarint64(&b, &xid) || !DecodeWrites(&b, &writes)) {
          return Status::Corruption("wal: bad prepare record");
        }
        const TxnId txn_id = next_txn_id_++;
        ActiveTxn txn;
        txn.writes = std::move(writes);
        txn.prepared = true;
        txn.xid = xid;
        active_[txn_id] = std::move(txn);
        prepared_by_xid_[xid] = txn_id;
        break;
      }
      case kWalCommit: {
        uint64_t xid;
        OpId opid;
        if (!GetVarint64(&b, &xid) || !GetFixed64(&b, &opid.term) ||
            !GetFixed64(&b, &opid.index) || b.size() < 16) {
          return Status::Corruption("wal: bad commit record");
        }
        binlog::Gtid gtid;
        gtid.server_uuid =
            Uuid::FromBytes(reinterpret_cast<const uint8_t*>(b.data()));
        b.RemovePrefix(16);
        if (!GetVarint64(&b, &gtid.txn_no)) {
          return Status::Corruption("wal: bad commit gtid");
        }
        auto it = prepared_by_xid_.find(xid);
        if (it == prepared_by_xid_.end()) {
          return Status::Corruption("wal: commit of unknown xid");
        }
        ApplyWrites(active_[it->second].writes);
        active_.erase(it->second);
        prepared_by_xid_.erase(it);
        last_applied_ = opid;
        executed_gtids_.Add(gtid);
        break;
      }
      case kWalRollback: {
        uint64_t xid;
        if (!GetVarint64(&b, &xid)) {
          return Status::Corruption("wal: bad rollback record");
        }
        auto it = prepared_by_xid_.find(xid);
        if (it == prepared_by_xid_.end()) {
          return Status::Corruption("wal: rollback of unknown xid");
        }
        active_.erase(it->second);
        prepared_by_xid_.erase(it);
        break;
      }
      default:
        return Status::Corruption("wal: unknown record type");
    }
  }
  return Status::OK();
}

Status MiniEngine::LoadSnapshot() {
  if (!env_->FileExists(SnapshotPath())) return Status::OK();
  auto contents = env_->ReadFileToString(SnapshotPath());
  if (!contents.ok()) return contents.status();
  if (contents->size() < kSnapshotMagicLen + 4 ||
      memcmp(contents->data(), kSnapshotMagic, kSnapshotMagicLen) != 0) {
    return Status::Corruption("snapshot: bad magic");
  }
  const size_t body_len = contents->size() - 4;
  const uint32_t crc = DecodeFixed32(contents->data() + body_len);
  if (crc != crc32c::Value(contents->data(), body_len)) {
    return Status::Corruption("snapshot: crc mismatch");
  }
  Slice in(contents->data() + kSnapshotMagicLen,
           body_len - kSnapshotMagicLen);
  if (!GetFixed64(&in, &last_applied_.term) ||
      !GetFixed64(&in, &last_applied_.index)) {
    return Status::Corruption("snapshot: truncated opid");
  }
  Slice gtids;
  if (!GetLengthPrefixed(&in, &gtids)) {
    return Status::Corruption("snapshot: truncated gtids");
  }
  MYRAFT_ASSIGN_OR_RETURN(executed_gtids_, binlog::GtidSet::Decode(gtids));
  uint64_t n_tables;
  if (!GetVarint64(&in, &n_tables)) {
    return Status::Corruption("snapshot: truncated tables");
  }
  for (uint64_t t = 0; t < n_tables; ++t) {
    Slice name;
    uint64_t n_rows;
    if (!GetLengthPrefixed(&in, &name) || !GetVarint64(&in, &n_rows)) {
      return Status::Corruption("snapshot: truncated table header");
    }
    auto& table = tables_[name.ToString()];
    for (uint64_t r = 0; r < n_rows; ++r) {
      Slice key, value;
      if (!GetLengthPrefixed(&in, &key) || !GetLengthPrefixed(&in, &value)) {
        return Status::Corruption("snapshot: truncated row");
      }
      table[key.ToString()] = value.ToString();
    }
  }
  if (!in.empty()) return Status::Corruption("snapshot: trailing bytes");
  return Status::OK();
}

Status MiniEngine::AppendWalRecord(const std::string& body) {
  std::string framed;
  PutFixed32(&framed, crc32c::Value(body.data(), body.size()));
  PutLengthPrefixed(&framed, body);
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
  std::string body;
  body.push_back(static_cast<char>(kWalPrepare));
  PutVarint64(&body, xid);
  EncodeWrites(it->second.writes, &body);
  MYRAFT_RETURN_NOT_OK(AppendWalRecord(body));
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
  std::string body;
  body.push_back(static_cast<char>(kWalCommit));
  PutVarint64(&body, xid);
  PutFixed64(&body, opid.term);
  PutFixed64(&body, opid.index);
  body.append(reinterpret_cast<const char*>(gtid.server_uuid.bytes().data()),
              16);
  PutVarint64(&body, gtid.txn_no);
  MYRAFT_RETURN_NOT_OK(AppendWalRecord(body));

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
  std::string body;
  body.push_back(static_cast<char>(kWalRollback));
  PutVarint64(&body, xid);
  MYRAFT_RETURN_NOT_OK(AppendWalRecord(body));

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
  out.append(kSnapshotMagic, kSnapshotMagicLen);
  PutFixed64(&out, last_applied_.term);
  PutFixed64(&out, last_applied_.index);
  std::string gtids;
  executed_gtids_.EncodeTo(&gtids);
  PutLengthPrefixed(&out, gtids);
  PutVarint64(&out, tables_.size());
  for (const auto& [table, rows] : tables_) {
    PutLengthPrefixed(&out, table);
    PutVarint64(&out, rows.size());
    for (const auto& [key, value] : rows) {
      PutLengthPrefixed(&out, key);
      PutLengthPrefixed(&out, value);
    }
  }
  PutFixed32(&out, crc32c::Value(out.data(), out.size()));

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

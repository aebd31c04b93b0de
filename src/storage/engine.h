// MiniEngine: the transactional storage engine standing in for
// InnoDB/MyRocks. It provides exactly the engine surface MyRaft's commit
// pipeline and crash recovery need (§3.4, §A.2):
//
//  * two-phase transactions: Prepare writes a prepare marker to the engine
//    WAL; CommitPrepared durably commits; prepared-but-uncommitted
//    transactions are rolled back on restart (the applier later re-applies
//    them from the replicated log);
//  * row locks held from write time until engine commit, so conflicting
//    transactions queue behind the commit pipeline exactly as in MySQL;
//  * executed-GTID-set and last-applied-OpId tracking, which drive the
//    applier's recovery cursor (§3.3 demotion step 5);
//  * a whole-state checksum used by shadow testing's leader/follower
//    consistency checks (§5.1).

#ifndef MYRAFT_STORAGE_ENGINE_H_
#define MYRAFT_STORAGE_ENGINE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "binlog/gtid.h"
#include "binlog/transaction.h"
#include "util/clock.h"
#include "util/env.h"
#include "wire/types.h"

namespace myraft::storage {

struct EngineOptions {
  std::string dir;
  Clock* clock = nullptr;  // required
};

/// Opaque handle to an active (not yet prepared) transaction.
using TxnId = uint64_t;

/// Snapshot of a transaction's pending write, exposed for tests.
struct PendingWrite {
  std::string table;
  std::string key;
  std::optional<std::string> value;  // nullopt == delete

  bool operator==(const PendingWrite&) const = default;
};

/// One engine WAL record. On disk each body is framed as
/// [fixed32 crc32c(body)][varint length][body]; a frame that is short or
/// fails its CRC is a torn tail and is trimmed at recovery, while a body
/// that passes its CRC and still does not decode is corruption.
struct WalRecord {
  enum class Type : uint8_t { kPrepare = 1, kCommit = 2, kRollback = 3 };

  Type type = Type::kPrepare;
  uint64_t xid = 0;
  std::vector<PendingWrite> writes;  // kPrepare: the write set
  OpId opid;                         // kCommit
  binlog::Gtid gtid;                 // kCommit

  bool operator==(const WalRecord&) const = default;

  /// The body's field walk (util/coding.h): type, xid, then the type's
  /// own fields.
  template <typename Io, typename Self>
  static void Fields(Io& io, Self& r) {
    io.Enum(r.type, Type::kRollback, Type::kPrepare);
    io.Varint(r.xid);
    switch (r.type) {
      case Type::kPrepare:
        io.Repeat(r.writes, [](auto& io, auto& w) {
          io.LengthPrefixed(w.table);
          io.LengthPrefixed(w.key);
          io.MaybeLengthPrefixed(w.value);
        });
        break;
      case Type::kCommit:
        io.Fixed64(r.opid.term);
        io.Fixed64(r.opid.index);
        io.UuidBytes(r.gtid.server_uuid);
        io.Varint(r.gtid.txn_no);
        break;
      case Type::kRollback:
        break;
    }
  }
};

/// The row-image rule every writer and applier shares: a row operation
/// targets table "database.table", under the key its after image holds up
/// to the first '=' ("key=value"); a delete's before image is the key.
std::string RowTable(const binlog::RowOperation& op);
std::string RowKey(const binlog::RowOperation& op);

class MiniEngine {
 public:
  /// Opens the engine, replaying the WAL. Prepared-but-uncommitted
  /// transactions found in the WAL are rolled back (§A.2).
  static Result<std::unique_ptr<MiniEngine>> Open(Env* env,
                                                  EngineOptions options);

  MiniEngine(const MiniEngine&) = delete;
  MiniEngine& operator=(const MiniEngine&) = delete;

  // --- Transaction lifecycle -----------------------------------------------

  TxnId Begin();

  /// Buffers a write and acquires the row lock. Returns Aborted if another
  /// active/prepared transaction holds the lock (the caller queues or
  /// retries, modelling MySQL lock waits).
  Status Put(TxnId txn, const std::string& table, const std::string& key,
             const std::string& value);
  Status Delete(TxnId txn, const std::string& table, const std::string& key);
  /// Buffers `op` under the row-image rule: Delete or Put(after image).
  Status ApplyRow(TxnId txn, const binlog::RowOperation& op);
  /// Begin, then ApplyRow for each of `ops`. On the first failing row the
  /// transaction is rolled back and that row's status returned (Aborted:
  /// another transaction holds the row lock).
  Result<TxnId> Execute(const std::vector<binlog::RowOperation>& ops);

  /// Reads the latest committed value (uncommitted writes invisible).
  std::optional<std::string> Get(const std::string& table,
                                 const std::string& key) const;

  /// Phase 1: durably records the write set under engine xid `xid`.
  /// After Prepare the transaction can only be CommitPrepared or
  /// RollbackPrepared (also across restarts).
  Status Prepare(TxnId txn, uint64_t xid);

  /// Phase 2: applies the write set, records (OpId, GTID) metadata and
  /// releases locks. `opid`/`gtid` become LastAppliedOpId/ExecutedGtids.
  Status CommitPrepared(uint64_t xid, OpId opid, const binlog::Gtid& gtid);

  /// Aborts a prepared transaction online (demotion step 1, §3.3).
  Status RollbackPrepared(uint64_t xid);

  /// Aborts an unprepared transaction (client rollback).
  Status Rollback(TxnId txn);

  /// Engine WAL durability point.
  Status Sync();

  // --- Introspection --------------------------------------------------------

  /// Last (OpId, GTID) committed into the engine; the applier recovery
  /// protocol positions its cursor immediately after this.
  OpId LastAppliedOpId() const { return last_applied_; }
  const binlog::GtidSet& ExecutedGtids() const { return executed_gtids_; }

  /// Xids currently in prepared state.
  std::vector<uint64_t> PreparedXids() const;
  /// Xids that were found prepared in the WAL at Open and rolled back.
  const std::vector<uint64_t>& RolledBackAtRecovery() const {
    return rolled_back_at_recovery_;
  }

  /// Pending writes of an active transaction (testing hook).
  Result<std::vector<PendingWrite>> PendingWrites(TxnId txn) const;

  /// Order-independent checksum over all committed rows.
  uint64_t StateChecksum() const;
  uint64_t RowCount() const;
  /// Current WAL size (drives checkpoint scheduling).
  uint64_t WalSizeBytes() const { return wal_ != nullptr ? wal_->Size() : 0; }
  /// WAL bytes covered by the last fsync — what a power-loss crash keeps.
  /// The engine never syncs its WAL on the hot path by design: prepared
  /// transactions are rolled back at recovery and the applier re-applies
  /// from the (durable, quorum-replicated) binlog, so losing the whole
  /// WAL tail is recoverable. Exact under a crash-fault-injection Env;
  /// equals WalSizeBytes() otherwise.
  uint64_t WalDurableBytes() const;

  /// Writes a snapshot of committed state and truncates the WAL. Keeps
  /// reopen cost bounded in long-running deployments.
  Status Checkpoint();

 private:
  struct ActiveTxn {
    std::vector<PendingWrite> writes;
    bool prepared = false;
    uint64_t xid = 0;
  };

  MiniEngine(Env* env, EngineOptions options)
      : env_(env), options_(std::move(options)) {}

  Status Recover();
  Status ReplayWal(const std::string& contents, uint64_t* good_bytes);
  Status LoadSnapshot();
  Status AppendWalRecord(const WalRecord& record);
  Status Write(TxnId txn, const std::string& table, const std::string& key,
               std::optional<std::string> value);
  void ApplyWrites(const std::vector<PendingWrite>& writes);
  void ReleaseLocks(const std::vector<PendingWrite>& writes);

  std::string WalPath() const { return options_.dir + "/engine.wal"; }
  std::string SnapshotPath() const { return options_.dir + "/engine.snap"; }

  Env* env_;
  EngineOptions options_;

  std::map<std::string, std::map<std::string, std::string>> tables_;
  // Row locks: (table '\0' key) -> owning TxnId.
  std::map<std::string, TxnId> locks_;
  std::map<TxnId, ActiveTxn> active_;          // unprepared + prepared
  std::map<uint64_t, TxnId> prepared_by_xid_;  // xid -> TxnId
  std::unique_ptr<WritableFile> wal_;
  TxnId next_txn_id_ = 1;
  OpId last_applied_;
  binlog::GtidSet executed_gtids_;
  std::vector<uint64_t> rolled_back_at_recovery_;
};

}  // namespace myraft::storage

#endif  // MYRAFT_STORAGE_ENGINE_H_

// Transaction payloads: the binlog event group that Raft replicates for a
// single client transaction. §3.4: the client thread prepares the engine
// txn and builds an in-memory binary-log payload (row-based replication
// images); at commit time a GTID is assigned, Raft stamps an OpId, and the
// finalised group [Gtid][Begin][TableMap...][Rows...][Xid] becomes the log
// entry payload.

#ifndef MYRAFT_BINLOG_TRANSACTION_H_
#define MYRAFT_BINLOG_TRANSACTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "binlog/binlog_event.h"
#include "binlog/gtid.h"
#include "util/result.h"
#include "wire/types.h"

namespace myraft::binlog {

/// One row mutation inside a transaction (RBR style: full before/after
/// images per the configured row image mode).
struct RowOperation {
  enum class Kind : uint8_t { kInsert = 0, kUpdate = 1, kDelete = 2 };

  Kind kind = Kind::kInsert;
  std::string database;
  std::string table;
  uint32_t column_count = 0;
  std::string before_image;  // empty for inserts
  std::string after_image;   // empty for deletes

  bool operator==(const RowOperation&) const = default;
};

/// Accumulates row operations while the transaction executes, then emits
/// the finalised replicated payload once commit assigns identity.
class TransactionPayloadBuilder {
 public:
  void AddOperation(RowOperation op) { ops_.push_back(std::move(op)); }
  bool empty() const { return ops_.empty(); }
  size_t operation_count() const { return ops_.size(); }

  /// Serialises the event group. `opid` is stamped into every event
  /// header; `gtid` identifies the transaction; `xid` is the storage
  /// engine transaction id used to pair prepare/commit during recovery.
  /// `last_committed`/`sequence_number` carry the group-commit dependency
  /// interval for parallel appliers (0/0 means "unknown, apply serially").
  /// `trace_id`/`trace_span_id` stamp the causal trace context into the
  /// Gtid event so follower apply spans stitch to the leader commit (0/0
  /// means untraced).
  std::string Finalize(const Gtid& gtid, OpId opid, uint64_t xid,
                       uint64_t timestamp_micros, uint32_t server_id,
                       uint64_t last_committed = 0,
                       uint64_t sequence_number = 0, uint64_t trace_id = 0,
                       uint64_t trace_span_id = 0) const;

 private:
  std::vector<RowOperation> ops_;
};

/// A decoded transaction payload.
struct ParsedTransaction {
  Gtid gtid;
  OpId opid;
  uint64_t xid = 0;
  /// Group-commit dependency interval from the Gtid event (0/0 when the
  /// writer predates dependency stamping).
  uint64_t last_committed = 0;
  uint64_t sequence_number = 0;
  /// Causal trace context from the Gtid event (0/0 = untraced).
  uint64_t trace_id = 0;
  uint64_t trace_span_id = 0;
  std::vector<RowOperation> ops;
};

/// The one grammar of a transaction group,
///
///   Gtid Begin (TableMap Rows+)* Xid
///
/// (Rows = WriteRows | UpdateRows | DeleteRows), every event stamped with
/// the Gtid event's OpId. Append (ValidateTransactionPayload), recovery
/// (BinlogManager::ScanFile) and the applier (ParseTransactionPayload)
/// feed it the same event sequence, so a group one of them accepts the
/// others accept too.
class TransactionGrammar {
 public:
  /// Feeds the next event. Corruption names the first one that cannot
  /// follow; the grammar is then undefined until Reset.
  Status Next(EventType type, OpId opid);
  /// Between a Gtid event and its Xid.
  bool open() const {
    return state_ != State::kExpectGtid && state_ != State::kComplete;
  }
  /// The Xid that closes the group has been fed.
  bool complete() const { return state_ == State::kComplete; }
  void Reset() { state_ = State::kExpectGtid; }

 private:
  enum class State : uint8_t {
    kExpectGtid,
    kExpectBegin,
    kAfterBegin,     // TableMap or Xid
    kExpectRows,     // after TableMap
    kAfterRows,      // Rows, TableMap or Xid
    kComplete,
  };
  State state_ = State::kExpectGtid;
  OpId opid_;
};

/// Parses and validates a payload: the group grammar, CRCs, every body.
Result<ParsedTransaction> ParseTransactionPayload(Slice payload);

/// The append-time check: the group grammar, CRCs and the OpId stamp,
/// without decoding row bodies. Returns the GTID from the Gtid event.
Result<Gtid> ValidateTransactionPayload(Slice payload, OpId expected_opid);

}  // namespace myraft::binlog

#endif  // MYRAFT_BINLOG_TRANSACTION_H_

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

/// Parses and validates a payload: event stream structure, matching OpIds
/// across the group, CRCs.
Result<ParsedTransaction> ParseTransactionPayload(Slice payload);

/// Cheap structural validation used on the replication hot path (checks
/// group shape and OpId stamps without materialising row images). Returns
/// the GTID from the leading Gtid event.
Result<Gtid> ValidateTransactionPayload(Slice payload, OpId expected_opid);

}  // namespace myraft::binlog

#endif  // MYRAFT_BINLOG_TRANSACTION_H_

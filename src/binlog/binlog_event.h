// Binary log events. Layout per event:
//
//   [fixed64 timestamp_micros]
//   [u8 type] [fixed32 server_id] [fixed16 flags]
//   [fixed64 term] [fixed64 index]        <- MyRaft OpId stamp
//   [varint body_len] [body bytes]
//   [fixed32 crc32c of all preceding bytes]
//
// The event stream mirrors MySQL row-based replication: a transaction is
// the group Gtid, Begin, TableMap, Rows..., Xid; files start with
// FormatDescription and PreviousGtids; Rotate chains files together.

#ifndef MYRAFT_BINLOG_BINLOG_EVENT_H_
#define MYRAFT_BINLOG_BINLOG_EVENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "binlog/gtid.h"
#include "util/result.h"
#include "wire/types.h"

namespace myraft::binlog {

enum class EventType : uint8_t {
  kFormatDescription = 0,
  kPreviousGtids = 1,
  kGtid = 2,
  kBegin = 3,
  kTableMap = 4,
  kWriteRows = 5,
  kUpdateRows = 6,
  kDeleteRows = 7,
  kXid = 8,
  kRotate = 9,
  /// Non-transaction Raft entries (no-ops, config changes) materialised in
  /// the binlog so the replicated log is complete.
  kMetadata = 10,
};

std::string_view EventTypeToString(EventType type);

/// One decoded event. Body stays raw; typed bodies below.
struct BinlogEvent {
  uint64_t timestamp_micros = 0;
  EventType type = EventType::kFormatDescription;
  uint32_t server_id = 0;
  uint16_t flags = 0;
  OpId opid;
  std::string body;

  bool operator==(const BinlogEvent&) const = default;

  void EncodeTo(std::string* dst) const;
  /// Consumes one event from `input`; verifies the trailing CRC.
  static Result<BinlogEvent> DecodeFrom(Slice* input);
  /// Encoded size of this event.
  size_t EncodedSize() const;
};

// --- Typed bodies -----------------------------------------------------------

struct FormatDescriptionBody {
  std::string server_version;
  uint64_t created_micros = 0;

  std::string Encode() const;
  static Result<FormatDescriptionBody> Decode(Slice body);
};

struct PreviousGtidsBody {
  GtidSet gtids;

  std::string Encode() const;
  static Result<PreviousGtidsBody> Decode(Slice body);
};

struct GtidBody {
  Gtid gtid;
  /// MySQL-style logical-clock commit interval for parallel appliers:
  /// every transaction with sequence_number <= this one's last_committed
  /// had engine-committed when this transaction entered the group-commit
  /// flush stage, so the two are independent and may apply concurrently.
  /// Both zero on events written before dependency stamping existed
  /// (decoder treats absent trailing varints as 0/0 — the serial-safe
  /// interpretation).
  uint64_t last_committed = 0;
  uint64_t sequence_number = 0;
  /// Causal trace context (util/trace): the client trace this transaction
  /// belongs to and the leader's commit span, so follower appliers parent
  /// their apply spans under the originating commit. A further trailing
  /// extension; 0/0 (untraced) is omitted from the encoding and absent
  /// trailing varints decode as 0/0.
  uint64_t trace_id = 0;
  uint64_t trace_span_id = 0;

  std::string Encode() const;
  static Result<GtidBody> Decode(Slice body);
};

struct TableMapBody {
  uint64_t table_id = 0;
  std::string database;
  std::string table;
  uint32_t column_count = 0;

  std::string Encode() const;
  static Result<TableMapBody> Decode(Slice body);
};

/// Rows events carry opaque row images. For kWriteRows only `after` is
/// set; kDeleteRows only `before`; kUpdateRows both (full RBR images).
struct RowsBody {
  uint64_t table_id = 0;
  std::vector<std::pair<std::string, std::string>> rows;  // (before, after)

  std::string Encode() const;
  static Result<RowsBody> Decode(Slice body);
};

struct XidBody {
  uint64_t xid = 0;

  std::string Encode() const;
  static Result<XidBody> Decode(Slice body);
};

struct RotateBody {
  std::string next_file;
  uint64_t position = 0;

  std::string Encode() const;
  static Result<RotateBody> Decode(Slice body);
};

struct MetadataBody {
  /// Mirrors wire EntryType (kNoOp).
  uint8_t entry_type = 0;
  std::string payload;

  std::string Encode() const;
  static Result<MetadataBody> Decode(Slice body);
};

/// Convenience constructor: stamps header fields and encodes `body`.
BinlogEvent MakeEvent(EventType type, uint64_t timestamp_micros,
                      uint32_t server_id, OpId opid, std::string body);

}  // namespace myraft::binlog

#endif  // MYRAFT_BINLOG_BINLOG_EVENT_H_

// Binary log events. Layout per event:
//
//   [fixed64 timestamp_micros]
//   [u8 type] [fixed32 server_id] [fixed16 flags]
//   [fixed64 term] [fixed64 index]        <- MyRaft OpId stamp
//   [varint body_len] [body bytes]
//   [fixed32 crc32c of all preceding bytes]
//
// The event and each typed body are written once as a field walk
// (util/coding.h): Fields drives EncodeTo/Encode, DecodeFrom/Decode and
// EncodedSize.
//
// The event stream mirrors MySQL row-based replication: a transaction is
// the group Gtid, Begin, (TableMap, Rows+)*, Xid (TransactionGrammar in
// binlog/transaction.h); files start with FormatDescription and
// PreviousGtids; Rotate chains files together.

#ifndef MYRAFT_BINLOG_BINLOG_EVENT_H_
#define MYRAFT_BINLOG_BINLOG_EVENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "binlog/gtid.h"
#include "util/result.h"
#include "wire/log_entry.h"
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

  template <typename Io, typename Self>
  static void Fields(Io& io, Self& e) {
    io.Crc32c([&] {
      io.Fixed64(e.timestamp_micros);
      io.Enum(e.type, EventType::kMetadata);
      io.Fixed32(e.server_id);
      io.Fixed16(e.flags);
      io.Fixed64(e.opid.term);
      io.Fixed64(e.opid.index);
      io.LengthPrefixed(e.body);
    });
  }
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

  bool operator==(const FormatDescriptionBody&) const = default;

  template <typename Io, typename Self>
  static void Fields(Io& io, Self& b) {
    io.LengthPrefixed(b.server_version);
    io.Fixed64(b.created_micros);
  }
  std::string Encode() const;
  static Result<FormatDescriptionBody> Decode(Slice body);
};

struct PreviousGtidsBody {
  GtidSet gtids;

  bool operator==(const PreviousGtidsBody&) const = default;

  template <typename Io, typename Self>
  static void Fields(Io& io, Self& b) {
    GtidSet::Fields(io, b.gtids);
  }
  std::string Encode() const;
  static Result<PreviousGtidsBody> Decode(Slice body);
};

struct GtidBody {
  Gtid gtid;
  /// MySQL-style logical-clock commit interval for parallel appliers:
  /// every transaction with sequence_number <= this one's last_committed
  /// had engine-committed when this transaction entered the group-commit
  /// flush stage, so the two are independent and may apply concurrently.
  /// Always encoded; 0/0 means "unknown, apply serially".
  uint64_t last_committed = 0;
  uint64_t sequence_number = 0;
  /// Causal trace context (util/trace): the client trace this transaction
  /// belongs to and the leader's commit span, so follower appliers parent
  /// their apply spans under the originating commit. An optional trailer:
  /// 0/0 (untraced) is omitted from the encoding, and a body that ends
  /// before it decodes as 0/0.
  uint64_t trace_id = 0;
  uint64_t trace_span_id = 0;

  bool operator==(const GtidBody&) const = default;

  template <typename Io, typename Self>
  static void Fields(Io& io, Self& b) {
    io.UuidBytes(b.gtid.server_uuid);
    io.Varint(b.gtid.txn_no);
    io.Varint(b.last_committed);
    io.Varint(b.sequence_number);
    io.Optional(b.trace_id != 0 || b.trace_span_id != 0, [&] {
      io.Varint(b.trace_id);
      io.Varint(b.trace_span_id);
    });
  }
  std::string Encode() const;
  static Result<GtidBody> Decode(Slice body);
};

struct TableMapBody {
  uint64_t table_id = 0;
  std::string database;
  std::string table;
  uint32_t column_count = 0;

  bool operator==(const TableMapBody&) const = default;

  template <typename Io, typename Self>
  static void Fields(Io& io, Self& b) {
    io.Varint(b.table_id);
    io.LengthPrefixed(b.database);
    io.LengthPrefixed(b.table);
    io.Varint(b.column_count);
  }
  std::string Encode() const;
  static Result<TableMapBody> Decode(Slice body);
};

/// Rows events carry opaque row images. For kWriteRows only `after` is
/// set; kDeleteRows only `before`; kUpdateRows both (full RBR images).
struct RowsBody {
  uint64_t table_id = 0;
  std::vector<std::pair<std::string, std::string>> rows;  // (before, after)

  bool operator==(const RowsBody&) const = default;

  template <typename Io, typename Self>
  static void Fields(Io& io, Self& b) {
    io.Varint(b.table_id);
    io.Repeat(b.rows, [](auto& io, auto& row) {
      io.LengthPrefixed(row.first);
      io.LengthPrefixed(row.second);
    });
  }
  std::string Encode() const;
  static Result<RowsBody> Decode(Slice body);
};

struct XidBody {
  uint64_t xid = 0;

  bool operator==(const XidBody&) const = default;

  template <typename Io, typename Self>
  static void Fields(Io& io, Self& b) {
    io.Fixed64(b.xid);
  }
  std::string Encode() const;
  static Result<XidBody> Decode(Slice body);
};

struct RotateBody {
  std::string next_file;
  uint64_t position = 0;

  bool operator==(const RotateBody&) const = default;

  template <typename Io, typename Self>
  static void Fields(Io& io, Self& b) {
    io.LengthPrefixed(b.next_file);
    io.Fixed64(b.position);
  }
  std::string Encode() const;
  static Result<RotateBody> Decode(Slice body);
};

struct MetadataBody {
  /// The wire EntryType of the entry (kNoOp); bound-checked on decode.
  EntryType entry_type = EntryType::kNoOp;
  std::string payload;

  bool operator==(const MetadataBody&) const = default;

  template <typename Io, typename Self>
  static void Fields(Io& io, Self& b) {
    io.Enum(b.entry_type, EntryType::kRotate);
    io.LengthPrefixed(b.payload);
  }
  std::string Encode() const;
  static Result<MetadataBody> Decode(Slice body);
};

/// Convenience constructor: stamps header fields and encodes `body`.
BinlogEvent MakeEvent(EventType type, uint64_t timestamp_micros,
                      uint32_t server_id, OpId opid, std::string body);

}  // namespace myraft::binlog

#endif  // MYRAFT_BINLOG_BINLOG_EVENT_H_

// Replicated log entries. The payload is opaque to Raft — for transaction
// entries it is the binlog-encoded transaction produced by the server; the
// log abstraction (plugin) maps entries onto binlog files.

#ifndef MYRAFT_WIRE_LOG_ENTRY_H_
#define MYRAFT_WIRE_LOG_ENTRY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/result.h"
#include "util/slice.h"
#include "wire/types.h"

namespace myraft {

/// What a replicated log entry carries.
enum class EntryType : uint8_t {
  /// Leadership-assertion entry appended by a new leader (§3.3 step 1).
  kNoOp = 0,
  /// A binlog-encoded client transaction.
  kTransaction = 1,
  /// A replicated binlog rotate event (§A.1).
  kRotate = 2,
};

std::string_view EntryTypeToString(EntryType type);

/// One entry of the Raft replicated log.
struct LogEntry {
  OpId id;
  EntryType type = EntryType::kNoOp;
  std::string payload;
  /// Zero-copy send path: when set, the payload bytes live in this shared
  /// buffer (borrowed from the leader's LogCache, which keeps it alive
  /// across eviction/truncation while the batch is in flight) and
  /// `payload` stays empty. Only compressed wire batches use this form;
  /// everything decoded from disk or the wire owns its payload.
  std::shared_ptr<const std::string> shared_payload;
  /// CRC32C of payload, stamped at commit time on the primary (§3.4) and
  /// verified on receipt / on read-back from disk.
  uint32_t checksum = 0;

  /// The logical payload bytes regardless of owned/borrowed storage.
  Slice payload_bytes() const {
    return shared_payload != nullptr ? Slice(*shared_payload) : Slice(payload);
  }

  /// Logical equality: a borrowed-buffer entry equals its owned twin.
  bool operator==(const LogEntry& other) const;

  /// Builds an entry with the checksum computed from the payload.
  static LogEntry Make(OpId id, EntryType type, std::string payload);

  bool VerifyChecksum() const;

  /// Wire/disk encoding (appended to *dst).
  void EncodeTo(std::string* dst) const;
  /// Consumes one entry from the front of `input`.
  static Result<LogEntry> DecodeFrom(Slice* input);

  size_t ByteSize() const { return payload_bytes().size() + 32; }
};

/// Membership config codec: consensus metadata and the AppendEntries
/// `config_payload`.
void EncodeMembershipConfig(const MembershipConfig& config, std::string* dst);
Result<MembershipConfig> DecodeMembershipConfig(Slice input);

}  // namespace myraft

#endif  // MYRAFT_WIRE_LOG_ENTRY_H_

#include "wire/log_entry.h"

#include "util/coding.h"
#include "util/crc32c.h"

namespace myraft {

std::string_view EntryTypeToString(EntryType type) {
  switch (type) {
    case EntryType::kNoOp:
      return "noop";
    case EntryType::kTransaction:
      return "txn";
    case EntryType::kRotate:
      return "rotate";
  }
  return "?";
}

LogEntry LogEntry::Make(OpId id, EntryType type, std::string payload) {
  LogEntry e;
  e.id = id;
  e.type = type;
  e.checksum = crc32c::Value(payload.data(), payload.size());
  e.payload = std::move(payload);
  return e;
}

bool LogEntry::operator==(const LogEntry& other) const {
  return id == other.id && type == other.type && checksum == other.checksum &&
         payload_bytes() == other.payload_bytes();
}

bool LogEntry::VerifyChecksum() const {
  const Slice bytes = payload_bytes();
  return checksum == crc32c::Value(bytes.data(), bytes.size());
}

void LogEntry::EncodeTo(std::string* dst) const { EncodeRecord(*this, dst); }

Result<LogEntry> LogEntry::DecodeFrom(Slice* input) {
  LogEntry e;
  SliceSource source(*input);
  Fields(source, e);
  MYRAFT_RETURN_NOT_OK(source.status("log entry"));
  *input = source.rest();
  return e;
}

void EncodeMembershipConfig(const MembershipConfig& config, std::string* dst) {
  EncodeRecord(config, dst);
}

Result<MembershipConfig> DecodeMembershipConfig(Slice input) {
  return DecodeRecord<MembershipConfig>(input, "config");
}

}  // namespace myraft

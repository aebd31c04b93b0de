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

void LogEntry::EncodeTo(std::string* dst) const {
  PutVarint64(dst, id.term);
  PutVarint64(dst, id.index);
  dst->push_back(static_cast<char>(type));
  PutFixed32(dst, checksum);
  PutLengthPrefixed(dst, payload_bytes());
}

Result<LogEntry> LogEntry::DecodeFrom(Slice* input) {
  LogEntry e;
  if (!GetVarint64(input, &e.id.term) || !GetVarint64(input, &e.id.index)) {
    return Status::Corruption("log entry: truncated opid");
  }
  if (input->empty()) return Status::Corruption("log entry: missing type");
  const uint8_t type = static_cast<uint8_t>((*input)[0]);
  input->RemovePrefix(1);
  if (type > static_cast<uint8_t>(EntryType::kRotate)) {
    return Status::Corruption("log entry: bad type");
  }
  e.type = static_cast<EntryType>(type);
  if (!GetFixed32(input, &e.checksum)) {
    return Status::Corruption("log entry: truncated checksum");
  }
  Slice payload;
  if (!GetLengthPrefixed(input, &payload)) {
    return Status::Corruption("log entry: truncated payload");
  }
  e.payload = payload.ToString();
  return e;
}

void EncodeMembershipConfig(const MembershipConfig& config, std::string* dst) {
  PutVarint64(dst, config.members.size());
  for (const auto& m : config.members) {
    PutLengthPrefixed(dst, m.id);
    PutLengthPrefixed(dst, m.region);
    dst->push_back(static_cast<char>(m.kind));
    dst->push_back(static_cast<char>(m.type));
  }
  PutVarint64(dst, config.config_term);
  PutVarint64(dst, config.config_version);
  PutLengthPrefixed(dst, config.quorum_spec);
}

Result<MembershipConfig> DecodeMembershipConfig(Slice input) {
  MembershipConfig config;
  uint64_t count;
  if (!GetVarint64(&input, &count)) {
    return Status::Corruption("config: truncated header");
  }
  for (uint64_t i = 0; i < count; ++i) {
    MemberInfo m;
    Slice id, region;
    if (!GetLengthPrefixed(&input, &id) ||
        !GetLengthPrefixed(&input, &region) || input.size() < 2) {
      return Status::Corruption("config: truncated member");
    }
    m.id = id.ToString();
    m.region = region.ToString();
    const uint8_t kind = static_cast<uint8_t>(input[0]);
    const uint8_t type = static_cast<uint8_t>(input[1]);
    input.RemovePrefix(2);
    if (kind > 1 || type > 1) return Status::Corruption("config: bad enums");
    m.kind = static_cast<MemberKind>(kind);
    m.type = static_cast<RaftMemberType>(type);
    config.members.push_back(std::move(m));
  }
  Slice spec;
  if (!GetVarint64(&input, &config.config_term) ||
      !GetVarint64(&input, &config.config_version) ||
      !GetLengthPrefixed(&input, &spec)) {
    return Status::Corruption("config: truncated identity group");
  }
  config.quorum_spec = spec.ToString();
  if (!input.empty()) return Status::Corruption("config: trailing bytes");
  return config;
}

}  // namespace myraft

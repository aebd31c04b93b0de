#include "util/uuid.h"

#include <cstdio>
#include <cstring>

namespace myraft {

Uuid Uuid::Generate(Random* rng) {
  Uuid u;
  for (int i = 0; i < 16; i += 8) {
    const uint64_t r = rng->Next();
    memcpy(u.bytes_.data() + i, &r, 8);
  }
  // RFC-4122 version/variant bits (version 4).
  u.bytes_[6] = static_cast<uint8_t>((u.bytes_[6] & 0x0F) | 0x40);
  u.bytes_[8] = static_cast<uint8_t>((u.bytes_[8] & 0x3F) | 0x80);
  return u;
}

Uuid Uuid::FromIndex(uint64_t index) {
  Uuid u;
  for (int i = 0; i < 8; ++i) {
    u.bytes_[15 - i] = static_cast<uint8_t>((index >> (8 * i)) & 0xFF);
  }
  // Distinctive prefix so index-derived UUIDs are recognisable in logs.
  u.bytes_[0] = 0xAB;
  u.bytes_[1] = 0xCD;
  return u;
}

Uuid Uuid::FromBytes(const uint8_t* bytes) {
  Uuid u;
  memcpy(u.bytes_.data(), bytes, 16);
  return u;
}

bool Uuid::IsNil() const {
  for (uint8_t b : bytes_) {
    if (b != 0) return false;
  }
  return true;
}

void Uuid::AppendTo(std::string* dst) const {
  static constexpr char kHex[] = "0123456789abcdef";
  char buf[36];
  char* out = buf;
  for (size_t i = 0; i < bytes_.size(); ++i) {
    if (i == 4 || i == 6 || i == 8 || i == 10) *out++ = '-';
    *out++ = kHex[bytes_[i] >> 4];
    *out++ = kHex[bytes_[i] & 0xf];
  }
  dst->append(buf, sizeof(buf));
}

std::string Uuid::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

namespace {

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

Result<Uuid> Uuid::Parse(const std::string& text) {
  if (text.size() != 36) {
    return Status::InvalidArgument("uuid: bad length: " + text);
  }
  Uuid u;
  int byte_idx = 0;
  for (size_t i = 0; i < text.size();) {
    if (i == 8 || i == 13 || i == 18 || i == 23) {
      if (text[i] != '-') {
        return Status::InvalidArgument("uuid: missing dash: " + text);
      }
      ++i;
      continue;
    }
    const int hi = HexVal(text[i]);
    const int lo = HexVal(text[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("uuid: bad hex digit: " + text);
    }
    u.bytes_[byte_idx++] = static_cast<uint8_t>((hi << 4) | lo);
    i += 2;
  }
  return u;
}

}  // namespace myraft

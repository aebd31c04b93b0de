// Binary encoding primitives: little-endian fixed ints, LEB128 varints,
// and length-prefixed strings. Shared by the wire format, the binlog and
// the storage WAL.

#ifndef MYRAFT_UTIL_CODING_H_
#define MYRAFT_UTIL_CODING_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "util/slice.h"

namespace myraft {

// --- Appenders -------------------------------------------------------------

inline void PutFixed16(std::string* dst, uint16_t value) {
  char buf[2];
  buf[0] = static_cast<char>(value & 0xff);
  buf[1] = static_cast<char>((value >> 8) & 0xff);
  dst->append(buf, 2);
}

inline void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  dst->append(buf, 8);
}

void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);

/// Appends varint-length-prefixed bytes.
inline void PutLengthPrefixed(std::string* dst, const Slice& value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

// --- Decoders ---------------------------------------------------------------

inline uint16_t DecodeFixed16(const char* p) {
  return static_cast<uint16_t>(static_cast<uint8_t>(p[0])) |
         (static_cast<uint16_t>(static_cast<uint8_t>(p[1])) << 8);
}

inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  return v;
}

inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  return v;
}

/// Each Get* consumes bytes from the front of `input` on success and
/// returns false (leaving `input` unspecified) on truncated/invalid data.
bool GetFixed16(Slice* input, uint16_t* value);
bool GetFixed32(Slice* input, uint32_t* value);
bool GetFixed64(Slice* input, uint64_t* value);
bool GetVarint32(Slice* input, uint32_t* value);
bool GetVarint64(Slice* input, uint64_t* value);
bool GetLengthPrefixed(Slice* input, Slice* result);

/// Number of bytes PutVarint64 would emit for `value`: one per started
/// group of 7 significant bits (at least one).
inline int VarintLength(uint64_t value) {
  return 1 + (std::bit_width(value | 1) - 1) / 7;
}

// --- Field sinks ------------------------------------------------------------

/// A codec written once as a template over its sink emits the same field
/// sequence into either sink: StringSink appends the encoding, SizeSink
/// only adds up its length. A size computed this way cannot drift from
/// the bytes the encoder writes.
class StringSink {
 public:
  explicit StringSink(std::string* dst) : dst_(dst) {}
  void Byte(uint8_t value) { dst_->push_back(static_cast<char>(value)); }
  void Fixed32(uint32_t value) { PutFixed32(dst_, value); }
  void Varint(uint64_t value) { PutVarint64(dst_, value); }
  void LengthPrefixed(const Slice& value) { PutLengthPrefixed(dst_, value); }

 private:
  std::string* dst_;
};

class SizeSink {
 public:
  void Byte(uint8_t) { ++size_; }
  void Fixed32(uint32_t) { size_ += 4; }
  void Varint(uint64_t value) { size_ += VarintLength(value); }
  void LengthPrefixed(const Slice& value) {
    size_ += VarintLength(value.size()) + value.size();
  }
  uint64_t size() const { return size_; }

 private:
  uint64_t size_ = 0;
};

}  // namespace myraft

#endif  // MYRAFT_UTIL_CODING_H_

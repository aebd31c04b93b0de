#include "util/coding.h"

namespace myraft {

void PutVarint32(std::string* dst, uint32_t value) {
  unsigned char buf[5];
  int n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<unsigned char>(value | 0x80);
    value >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), n);
}

void PutVarint64(std::string* dst, uint64_t value) {
  unsigned char buf[10];
  int n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<unsigned char>(value | 0x80);
    value >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), n);
}

bool GetFixed16(Slice* input, uint16_t* value) {
  if (input->size() < 2) return false;
  *value = DecodeFixed16(input->data());
  input->RemovePrefix(2);
  return true;
}

bool GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < 4) return false;
  *value = DecodeFixed32(input->data());
  input->RemovePrefix(4);
  return true;
}

bool GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < 8) return false;
  *value = DecodeFixed64(input->data());
  input->RemovePrefix(8);
  return true;
}

bool GetVarint32(Slice* input, uint32_t* value) {
  uint64_t v;
  if (!GetVarint64(input, &v) || v > UINT32_MAX) return false;
  *value = static_cast<uint32_t>(v);
  return true;
}

bool GetVarint64(Slice* input, uint64_t* value) {
  uint64_t result = 0;
  const char* p = input->data();
  const char* limit = p + input->size();
  for (int shift = 0; shift <= 63 && p < limit; shift += 7) {
    uint64_t byte = static_cast<uint8_t>(*p++);
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      input->RemovePrefix(p - input->data());
      *value = result;
      return true;
    }
  }
  return false;
}

bool GetLengthPrefixed(Slice* input, Slice* result) {
  uint64_t len;
  if (!GetVarint64(input, &len)) return false;
  if (input->size() < len) return false;
  *result = Slice(input->data(), len);
  input->RemovePrefix(len);
  return true;
}

}  // namespace myraft

#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace myraft::crc32c {

namespace {

// Builds the byte-at-a-time lookup table for the Castagnoli polynomial
// (reflected 0x82F63B78) at static-init time; the table is constexpr so it
// is computed at compile time and has a trivial destructor.
constexpr uint32_t kPoly = 0x82F63B78u;

constexpr std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = BuildTable();

// Both paths work on the pre-inverted register; Extend does the
// inversions once.
uint32_t ExtendTable(uint32_t crc, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes exactly this polynomial in the
// same reflected bit order, eight bytes per instruction (unaligned loads
// are fine).
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const uint8_t* p,
                                                       size_t n) {
  uint64_t crc64 = crc;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; --n, ++p) crc = _mm_crc32_u8(crc, *p);
  return crc;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

ExtendFn ChooseExtend() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return ExtendSse42;
#endif
  return ExtendTable;
}

ExtendFn ActiveExtend() {
  static const ExtendFn fn = ChooseExtend();
  return fn;
}

}  // namespace

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return ActiveExtend()(init_crc ^ 0xFFFFFFFFu,
                        reinterpret_cast<const uint8_t*>(data), n) ^
         0xFFFFFFFFu;
}

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  return ExtendTable(init_crc ^ 0xFFFFFFFFu,
                     reinterpret_cast<const uint8_t*>(data), n) ^
         0xFFFFFFFFu;
}

}  // namespace myraft::crc32c

// CRC32C (Castagnoli) used to checksum binlog events, WAL records and Raft
// log entries before they are shipped, per §3.4 of the paper ("A checksum
// is generated for the transaction at this point, to detect corruptions
// later").

#ifndef MYRAFT_UTIL_CRC32C_H_
#define MYRAFT_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

#include "util/slice.h"

namespace myraft::crc32c {

/// Extends `init_crc` with `data`. Runs on the SSE4.2 crc32 instruction
/// when the CPU has it (chosen once, at first use), else on the table.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The table-driven software path Extend falls back to. Same values;
/// exposed so tests can check the two paths against each other.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }
inline uint32_t Value(const Slice& s) { return Value(s.data(), s.size()); }

/// Masks a CRC so that a CRC of data containing embedded CRCs stays well
/// distributed (LevelDB idiom).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - 0xa282ead8ul;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace myraft::crc32c

#endif  // MYRAFT_UTIL_CRC32C_H_

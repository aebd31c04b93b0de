// 128-bit server UUIDs, used for MySQL GTIDs ("<server_uuid>:<txn_no>").

#ifndef MYRAFT_UTIL_UUID_H_
#define MYRAFT_UTIL_UUID_H_

#include <array>
#include <compare>
#include <cstdint>
#include <string>

#include "util/random.h"
#include "util/result.h"

namespace myraft {

/// Value-type UUID. Formats as the canonical 8-4-4-4-12 hex string.
class Uuid {
 public:
  Uuid() { bytes_.fill(0); }

  static Uuid Generate(Random* rng);

  /// Deterministic UUID derived from a small integer, used by tests and
  /// the simulator so server identities are stable across runs.
  static Uuid FromIndex(uint64_t index);

  static Result<Uuid> Parse(const std::string& text);

  /// Reconstructs a UUID from its 16 raw bytes.
  static Uuid FromBytes(const uint8_t* bytes);

  /// Appends the canonical 8-4-4-4-12 lowercase hex form.
  void AppendTo(std::string* dst) const;
  std::string ToString() const;
  bool IsNil() const;

  auto operator<=>(const Uuid&) const = default;

  const std::array<uint8_t, 16>& bytes() const { return bytes_; }

 private:
  std::array<uint8_t, 16> bytes_;
};

}  // namespace myraft

#endif  // MYRAFT_UTIL_UUID_H_

// Binary encoding primitives: little-endian fixed ints, LEB128 varints,
// and length-prefixed strings, and the field walks every record format of
// the wire protocol, the binlog, the engine and the consensus metadata is
// written as.

#ifndef MYRAFT_UTIL_CODING_H_
#define MYRAFT_UTIL_CODING_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "util/crc32c.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/uuid.h"

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
bool GetVarint64(Slice* input, uint64_t* value);
bool GetLengthPrefixed(Slice* input, Slice* result);

/// Number of bytes PutVarint64 would emit for `value`: one per started
/// group of 7 significant bits (at least one).
inline int VarintLength(uint64_t value) {
  return 1 + (std::bit_width(value | 1) - 1) / 7;
}

// --- Field walks --------------------------------------------------------------

/// Every binary record format is written once, as a walk: a template over
/// an "io" object that visits the record's fields in order,
///
///   template <typename Io, typename Self>
///   static void Fields(Io& io, Self& m) {
///     io.Varint(m.term);
///     io.LengthPrefixed(m.leader);
///   }
///
/// Run over a StringSink (Self const) the walk appends the encoding, over
/// a SizeSink it only adds up its length, and over a SliceSource (Self
/// mutable) it decodes into the fields. Encoder, decoder and size cannot
/// drift apart because they are the same code. The sinks and the source
/// share one set of method names:
///
///   Byte, Fixed16/32/64, Varint      one scalar
///   LengthPrefixed                   varint length + bytes
///   UuidBytes, Magic                 16 raw uuid bytes; a constant prefix
///   Enum(v, last[, first])           one byte, bound-checked on decode
///   Flags(b0, b1, ...)               bools packed into one byte, bit i = bi
///   MaybeLengthPrefixed              presence byte + bytes (empty if absent)
///   Repeat(items, fn)                varint count + fn(io, item) per item
///   Variant(v, fn)                   variant index byte + fn(io, alternative)
///   Nested(record)                   the record's own walk (T::Fields) as
///                                    length-prefixed bytes
///   Optional(present, fn)            a trailer: written only when `present`,
///                                    read only when bytes remain
///   DefaultTo(field, value)          decode only: field = value
///   Require(pred, error)             decode only: fails unless pred()
///   Crc32c(fn)                       fn's fields, then a fixed32 CRC32C of
///                                    every byte they take
///
/// A walk calls only these; every bound check lives in SliceSource.

class SizeSink;

/// What the two sinks share: the composite fields, built from the scalar
/// ones the sink itself defines.
template <typename Sink>
class FieldSink {
 public:
  template <typename E>
  void Enum(E value, E /*last*/, E /*first*/ = E{}) {
    self().Byte(static_cast<uint8_t>(value));
  }
  template <typename... Bits>
  void Flags(Bits... bits) {
    uint8_t packed = 0;
    int bit = 0;
    ((packed |= static_cast<uint8_t>((bits ? 1 : 0) << bit++)), ...);
    self().Byte(packed);
  }
  void MaybeLengthPrefixed(const std::optional<std::string>& value) {
    self().Byte(value.has_value() ? 1 : 0);
    self().LengthPrefixed(value.has_value() ? Slice(*value) : Slice());
  }
  template <typename Items, typename Fn>
  void Repeat(const Items& items, Fn&& fn) {
    self().Varint(items.size());
    for (const auto& item : items) fn(self(), item);
  }
  template <typename V, typename Fn>
  void Variant(const V& value, Fn&& fn) {
    self().Byte(static_cast<uint8_t>(value.index()));
    std::visit([&](const auto& alternative) { fn(self(), alternative); },
               value);
  }
  template <typename T>
  void Nested(const T& record);
  template <typename Fn>
  bool Optional(bool present, Fn&& fn) {
    if (present) fn();
    return present;
  }
  template <typename T>
  void DefaultTo(const T& /*field*/, const T& /*value*/) {}
  template <typename Pred>
  void Require(Pred&& /*pred*/, const char* /*error*/) {}

 private:
  Sink& self() { return static_cast<Sink&>(*this); }
};

/// Appends the encoding to a string.
class StringSink : public FieldSink<StringSink> {
 public:
  explicit StringSink(std::string* dst) : dst_(dst) {}
  void Byte(uint8_t value) { dst_->push_back(static_cast<char>(value)); }
  void Fixed16(uint16_t value) { PutFixed16(dst_, value); }
  void Fixed32(uint32_t value) { PutFixed32(dst_, value); }
  void Fixed64(uint64_t value) { PutFixed64(dst_, value); }
  void Varint(uint64_t value) { PutVarint64(dst_, value); }
  void LengthPrefixed(const Slice& value) { PutLengthPrefixed(dst_, value); }
  void UuidBytes(const Uuid& uuid) {
    dst_->append(reinterpret_cast<const char*>(uuid.bytes().data()), 16);
  }
  void Magic(std::string_view magic) { dst_->append(magic); }
  template <typename Fn>
  void Crc32c(Fn&& fn) {
    const size_t start = dst_->size();
    fn();
    Fixed32(crc32c::Value(dst_->data() + start, dst_->size() - start));
  }

 private:
  std::string* dst_;
};

/// Adds up the encoded length without writing anything.
class SizeSink : public FieldSink<SizeSink> {
 public:
  void Byte(uint8_t) { ++size_; }
  void Fixed16(uint16_t) { size_ += 2; }
  void Fixed32(uint32_t) { size_ += 4; }
  void Fixed64(uint64_t) { size_ += 8; }
  void Varint(uint64_t value) { size_ += VarintLength(value); }
  void LengthPrefixed(const Slice& value) {
    size_ += VarintLength(value.size()) + value.size();
  }
  void UuidBytes(const Uuid&) { size_ += 16; }
  void Magic(std::string_view magic) { size_ += magic.size(); }
  template <typename Fn>
  void Crc32c(Fn&& fn) {
    fn();
    size_ += 4;
  }
  uint64_t size() const { return size_; }

 private:
  uint64_t size_ = 0;
};

template <typename Sink>
template <typename T>
void FieldSink<Sink>::Nested(const T& record) {
  SizeSink inner;
  T::Fields(inner, record);
  self().Varint(inner.size());
  T::Fields(self(), record);
}

/// Decodes from a byte range into the fields a walk hands it. The first
/// failure sticks: it drops the rest of the input, so every later field
/// reads as truncated and the walk runs to its end without touching
/// memory outside the input; status() then names that first failure.
class SliceSource {
 public:
  explicit SliceSource(Slice input) : in_(input) {}

  bool ok() const { return error_ == nullptr; }
  /// The bytes not consumed yet.
  Slice rest() const { return in_; }
  /// Corruption "<what>: <first failure>", or OK.
  Status status(std::string_view what) const {
    if (ok()) return Status::OK();
    std::string message(what);
    message += ": ";
    message += error_;
    return Status::Corruption(message);
  }
  /// status() for a record that is the whole input: bytes left over after
  /// the walk are corrupt too.
  Status Finish(std::string_view what) {
    if (ok() && !in_.empty()) Fail("trailing bytes");
    return status(what);
  }

  void Byte(uint8_t& value) {
    if (in_.empty()) return Fail("truncated");
    value = static_cast<uint8_t>(in_[0]);
    in_.RemovePrefix(1);
  }
  void Fixed16(uint16_t& value) {
    if (!GetFixed16(&in_, &value)) Fail("truncated");
  }
  void Fixed32(uint32_t& value) {
    if (!GetFixed32(&in_, &value)) Fail("truncated");
  }
  void Fixed64(uint64_t& value) {
    if (!GetFixed64(&in_, &value)) Fail("truncated");
  }
  /// Rejects a value that does not fit the field.
  template <typename T>
  void Varint(T& value) {
    uint64_t wide = 0;
    if (!GetVarint64(&in_, &wide)) return Fail("truncated");
    if constexpr (sizeof(T) < sizeof(uint64_t)) {
      if (wide > std::numeric_limits<T>::max()) return Fail("varint overflow");
    }
    value = static_cast<T>(wide);
  }
  void LengthPrefixed(Slice& value) {
    if (!GetLengthPrefixed(&in_, &value)) Fail("truncated");
  }
  void LengthPrefixed(std::string& value) {
    Slice bytes;
    LengthPrefixed(bytes);
    value.assign(bytes.data(), bytes.size());
  }
  void UuidBytes(Uuid& uuid) {
    if (in_.size() < 16) return Fail("truncated");
    uuid = Uuid::FromBytes(reinterpret_cast<const uint8_t*>(in_.data()));
    in_.RemovePrefix(16);
  }
  void Magic(std::string_view magic) {
    if (!in_.StartsWith(magic)) return Fail("bad magic");
    in_.RemovePrefix(magic.size());
  }
  template <typename E>
  void Enum(E& value, E last, E first = E{}) {
    uint8_t raw = 0;
    Byte(raw);
    if (raw < static_cast<uint8_t>(first) || raw > static_cast<uint8_t>(last)) {
      return Fail("enum out of range");
    }
    value = static_cast<E>(raw);
  }
  /// Rejects a set bit that names no field.
  template <typename... Bits>
  void Flags(Bits&... bits) {
    uint8_t packed = 0;
    Byte(packed);
    if ((packed >> sizeof...(Bits)) != 0) return Fail("unknown flag bits");
    int bit = 0;
    ((bits = ((packed >> bit++) & 1) != 0), ...);
  }
  void MaybeLengthPrefixed(std::optional<std::string>& value) {
    bool present = false;
    Flags(present);
    Slice bytes;
    LengthPrefixed(bytes);
    if (present) {
      value.emplace(bytes.data(), bytes.size());
    } else {
      value.reset();
    }
  }
  /// Sequences decode by appending (emplace_back); maps by inserting, where
  /// a repeated key is corrupt. Every item encodes to at least one byte, so
  /// a count above the bytes left is corrupt: no loop or allocation is
  /// sized by an unchecked count.
  template <typename Items, typename Fn>
  void Repeat(Items& items, Fn&& fn) {
    uint64_t count = 0;
    Varint(count);
    if (count > in_.size()) return Fail("count exceeds input");
    for (uint64_t i = 0; i < count && ok(); ++i) {
      if constexpr (requires { items.emplace_back(); }) {
        fn(*this, items.emplace_back());
      } else {
        std::pair<typename Items::key_type, typename Items::mapped_type> item;
        fn(*this, item);
        if (ok() &&
            !items.emplace(std::move(item.first), std::move(item.second))
                 .second) {
          Fail("repeated key");
        }
      }
    }
  }
  template <typename V, typename Fn>
  void Variant(V& value, Fn&& fn) {
    uint8_t index = 0;
    Byte(index);
    if (!ok()) return;
    if (index >= std::variant_size_v<V>) return Fail("unknown variant");
    EmplaceIndex(value, index, std::make_index_sequence<std::variant_size_v<V>>());
    std::visit([&](auto& alternative) { fn(*this, alternative); }, value);
  }
  template <typename T>
  void Nested(T& record) {
    Slice bytes;
    LengthPrefixed(bytes);
    if (!ok()) return;
    SliceSource inner(bytes);
    T::Fields(inner, record);
    if (!inner.ok()) return Fail(inner.error_);
    if (!inner.in_.empty()) Fail("trailing bytes");
  }
  /// The trailer is present exactly when bytes remain before the end of
  /// the record (or of an enclosing Crc32c).
  template <typename Fn>
  bool Optional(bool /*present*/, Fn&& fn) {
    if (in_.empty()) return false;
    fn();
    return true;
  }
  template <typename T>
  void DefaultTo(T& field, const T& value) {
    field = value;
  }
  template <typename Pred>
  void Require(Pred&& pred, const char* error) {
    if (ok() && !pred()) Fail(error);
  }
  /// Every field fn covers precedes the 4 trailer bytes, so fn reads with
  /// them held back; an Optional inside fn ends where the CRC starts.
  template <typename Fn>
  void Crc32c(Fn&& fn) {
    if (in_.size() < 4) return Fail("truncated");
    const char* start = in_.data();
    in_ = Slice(in_.data(), in_.size() - 4);
    fn();
    if (!ok()) return;
    const size_t covered = static_cast<size_t>(in_.data() - start);
    in_ = Slice(in_.data(), in_.size() + 4);
    uint32_t crc = 0;
    Fixed32(crc);
    if (crc != crc32c::Value(start, covered)) Fail("crc mismatch");
  }

 private:
  void Fail(const char* error) {
    if (error_ == nullptr) error_ = error;
    in_ = Slice();
  }
  template <typename V, size_t... I>
  static void EmplaceIndex(V& value, size_t index, std::index_sequence<I...>) {
    ((index == I ? static_cast<void>(value.template emplace<I>()) : void()),
     ...);
  }

  Slice in_;
  const char* error_ = nullptr;
};

// --- Whole records ------------------------------------------------------------

/// Appends `record` encoded by its walk T::Fields.
template <typename T>
void EncodeRecord(const T& record, std::string* dst) {
  StringSink sink(dst);
  T::Fields(sink, record);
}

/// Length of EncodeRecord(record), added up without encoding.
template <typename T>
uint64_t RecordSize(const T& record) {
  SizeSink sink;
  T::Fields(sink, record);
  return sink.size();
}

/// Decodes a record that is the whole of `input`: trailing bytes are
/// corrupt. `what` names the format in the error.
template <typename T>
Result<T> DecodeRecord(Slice input, std::string_view what) {
  T record;
  SliceSource source(input);
  T::Fields(source, record);
  MYRAFT_RETURN_NOT_OK(source.Finish(what));
  return record;
}

}  // namespace myraft

#endif  // MYRAFT_UTIL_CODING_H_

#include "util/coding.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "util/random.h"

namespace myraft {
namespace {

TEST(CodingTest, Fixed16RoundTrip) {
  for (uint32_t v : {0u, 1u, 255u, 256u, 65535u}) {
    std::string s;
    PutFixed16(&s, static_cast<uint16_t>(v));
    ASSERT_EQ(s.size(), 2u);
    Slice in(s);
    uint16_t out;
    ASSERT_TRUE(GetFixed16(&in, &out));
    EXPECT_EQ(out, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodingTest, Fixed32RoundTrip) {
  for (uint32_t v : {0u, 1u, 0xDEADBEEFu, UINT32_MAX}) {
    std::string s;
    PutFixed32(&s, v);
    Slice in(s);
    uint32_t out;
    ASSERT_TRUE(GetFixed32(&in, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, Fixed64RoundTrip) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{1} << 40, UINT64_MAX}) {
    std::string s;
    PutFixed64(&s, v);
    Slice in(s);
    uint64_t out;
    ASSERT_TRUE(GetFixed64(&in, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, Varint64Boundaries) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384};
  for (int shift = 14; shift < 64; shift += 7) {
    values.push_back((uint64_t{1} << shift) - 1);
    values.push_back(uint64_t{1} << shift);
  }
  values.push_back(UINT64_MAX);

  std::string s;
  for (uint64_t v : values) PutVarint64(&s, v);
  Slice in(s);
  for (uint64_t v : values) {
    uint64_t out;
    ASSERT_TRUE(GetVarint64(&in, &out));
    EXPECT_EQ(out, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  Random rng(42);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Next() >> (rng.Uniform(64));
    std::string s;
    PutVarint64(&s, v);
    EXPECT_EQ(static_cast<int>(s.size()), VarintLength(v)) << v;
  }
}

TEST(CodingTest, Varint32RejectsOverflow) {
  std::string s;
  PutVarint64(&s, uint64_t{UINT32_MAX} + 1);
  SliceSource source{Slice(s)};
  uint32_t out = 0;
  source.Varint(out);
  EXPECT_TRUE(source.status("v").IsCorruption());
}

enum class Color : uint8_t { kRed = 1, kGreen = 2, kBlue = 3 };

/// Runs one field of a walk over `bytes` and reports whether it decoded.
template <typename Fn>
bool Reads(const std::string& bytes, Fn&& fn) {
  SliceSource source{Slice(bytes)};
  fn(source);
  return source.ok();
}

TEST(CodingTest, SliceSourceRejectsWhatNoEncoderWrites) {
  Color color;
  EXPECT_TRUE(Reads("\x02", [&](auto& io) {
    io.Enum(color, Color::kBlue, Color::kRed);
  }));
  EXPECT_EQ(color, Color::kGreen);
  for (const char* bad : {"\x00", "\x04"}) {
    EXPECT_FALSE(Reads(std::string(bad, 1), [&](auto& io) {
      io.Enum(color, Color::kBlue, Color::kRed);
    }));
  }

  bool a = false, b = false;
  EXPECT_TRUE(Reads("\x02", [&](auto& io) { io.Flags(a, b); }));
  EXPECT_TRUE(!a && b);
  EXPECT_FALSE(Reads("\x04", [&](auto& io) { io.Flags(a, b); }));

  // A count no input could hold is refused before any item is read.
  std::vector<uint64_t> items;
  EXPECT_FALSE(Reads("\x05\x01\x02", [&](auto& io) {
    io.Repeat(items, [](auto& io, auto& item) { io.Varint(item); });
  }));
  std::map<uint64_t, uint64_t> map;
  EXPECT_FALSE(Reads("\x02\x01\x07\x01\x08", [&](auto& io) {
    io.Repeat(map, [](auto& io, auto& kv) {
      io.Varint(kv.first);
      io.Varint(kv.second);
    });
  }));

  std::string crc_record;
  StringSink sink(&crc_record);
  uint64_t value = 77;
  sink.Crc32c([&] { sink.Varint(value); });
  EXPECT_TRUE(Reads(crc_record,
                    [&](auto& io) { io.Crc32c([&] { io.Varint(value); }); }));
  crc_record[0] ^= 1;
  EXPECT_FALSE(Reads(crc_record,
                     [&](auto& io) { io.Crc32c([&] { io.Varint(value); }); }));
}

TEST(CodingTest, SliceSourceKeepsTheFirstFailure) {
  std::string s;
  PutVarint64(&s, 3);
  SliceSource source{Slice(s)};
  Color color;
  uint64_t after = 99;
  source.Enum(color, Color::kRed, Color::kRed);
  source.Varint(after);  // the failure dropped the input: truncated
  EXPECT_EQ(after, 99u);
  EXPECT_EQ(source.status("c").ToString(),
            Status::Corruption("c: enum out of range").ToString());
  SliceSource longer{Slice("\x01\x00", 2)};
  longer.Enum(color, Color::kRed, Color::kRed);
  EXPECT_FALSE(longer.Finish("c").ok());  // trailing bytes
}

TEST(CodingTest, TruncatedVarintFails) {
  std::string s;
  PutVarint64(&s, UINT64_MAX);
  for (size_t len = 0; len + 1 < s.size(); ++len) {
    Slice in(s.data(), len);
    uint64_t out;
    EXPECT_FALSE(GetVarint64(&in, &out)) << "len=" << len;
  }
}

TEST(CodingTest, TruncatedFixedFails) {
  std::string s = "abc";
  Slice in(s);
  uint32_t v32;
  EXPECT_FALSE(GetFixed32(&in, &v32));
  uint64_t v64;
  EXPECT_FALSE(GetFixed64(&in, &v64));
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string s;
  PutLengthPrefixed(&s, Slice("hello"));
  PutLengthPrefixed(&s, Slice(""));
  PutLengthPrefixed(&s, Slice(std::string(100000, 'x')));
  Slice in(s);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  ASSERT_TRUE(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 100000u);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, LengthPrefixedTruncatedBodyFails) {
  std::string s;
  PutVarint64(&s, 10);
  s += "short";
  Slice in(s);
  Slice out;
  EXPECT_FALSE(GetLengthPrefixed(&in, &out));
}

// Property sweep: random interleavings of all encoders round-trip.
class CodingFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodingFuzzTest, MixedRoundTrip) {
  Random rng(GetParam());
  std::string s;
  struct Op {
    int kind;
    uint64_t value;
    std::string bytes;
  };
  std::vector<Op> ops;
  for (int i = 0; i < 200; ++i) {
    Op op;
    op.kind = static_cast<int>(rng.Uniform(4));
    op.value = rng.Next() >> rng.Uniform(64);
    switch (op.kind) {
      case 0:
        PutFixed32(&s, static_cast<uint32_t>(op.value));
        break;
      case 1:
        PutFixed64(&s, op.value);
        break;
      case 2:
        PutVarint64(&s, op.value);
        break;
      case 3: {
        op.bytes = std::string(rng.Uniform(64), static_cast<char>(rng.Next()));
        PutLengthPrefixed(&s, Slice(op.bytes));
        break;
      }
    }
    ops.push_back(op);
  }
  Slice in(s);
  for (const Op& op : ops) {
    switch (op.kind) {
      case 0: {
        uint32_t v;
        ASSERT_TRUE(GetFixed32(&in, &v));
        EXPECT_EQ(v, static_cast<uint32_t>(op.value));
        break;
      }
      case 1: {
        uint64_t v;
        ASSERT_TRUE(GetFixed64(&in, &v));
        EXPECT_EQ(v, op.value);
        break;
      }
      case 2: {
        uint64_t v;
        ASSERT_TRUE(GetVarint64(&in, &v));
        EXPECT_EQ(v, op.value);
        break;
      }
      case 3: {
        Slice v;
        ASSERT_TRUE(GetLengthPrefixed(&in, &v));
        EXPECT_EQ(v.ToString(), op.bytes);
        break;
      }
    }
  }
  EXPECT_TRUE(in.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodingFuzzTest,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

}  // namespace
}  // namespace myraft

// Tests for Status/Result, Slice, CRC32C, Random, UUID and string helpers.

#include <gtest/gtest.h>

#include "util/crc32c.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/uuid.h"

namespace myraft {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Corruption("bad checksum");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.message(), "bad checksum");
  EXPECT_EQ(s.ToString(), "Corruption: bad checksum");
}

TEST(StatusTest, CopyPreservesContents) {
  Status s = Status::NotFound("x");
  Status t = s;
  EXPECT_TRUE(t.IsNotFound());
  EXPECT_EQ(t.message(), "x");
  EXPECT_EQ(s, t);
}

TEST(StatusTest, WithPrefix) {
  Status s = Status::IoError("disk full").WithPrefix("writing binlog");
  EXPECT_EQ(s.ToString(), "IOError: writing binlog: disk full");
  EXPECT_TRUE(Status::OK().WithPrefix("p").ok());
}

Status Fails() { return Status::Aborted("inner"); }
Status Propagates() {
  MYRAFT_RETURN_NOT_OK(Fails());
  return Status::OK();
}
Status PropagatesWithPrefix() {
  MYRAFT_RETURN_NOT_OK_PREPEND(Fails(), "outer");
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacros) {
  EXPECT_TRUE(Propagates().IsAborted());
  EXPECT_EQ(PropagatesWithPrefix().ToString(), "Aborted: outer: inner");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> Doubled(int x) {
  int v;
  MYRAFT_ASSIGN_OR_RETURN(v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueAndError) {
  auto ok = ParsePositive(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  auto err = ParsePositive(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInvalidArgument());
  EXPECT_EQ(err.ValueOr(42), 42);
}

TEST(ResultTest, AssignOrReturn) {
  EXPECT_EQ(*Doubled(4), 8);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(SliceTest, Basics) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  s.RemovePrefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  EXPECT_TRUE(Slice("abc") == Slice("abc"));
  EXPECT_TRUE(Slice("abc") != Slice("abd"));
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").Compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("abcdef").StartsWith("abc"));
  EXPECT_FALSE(Slice("ab").StartsWith("abc"));
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vectors for CRC32C.
  char zeros[32];
  memset(zeros, 0, sizeof(zeros));
  EXPECT_EQ(crc32c::Value(zeros, sizeof(zeros)), 0x8a9136aaU);

  char ones[32];
  memset(ones, 0xff, sizeof(ones));
  EXPECT_EQ(crc32c::Value(ones, sizeof(ones)), 0x62a8ab43U);

  char ascending[32];
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  EXPECT_EQ(crc32c::Value(ascending, sizeof(ascending)), 0x46dd794eU);
}

TEST(Crc32cTest, HardwarePathMatchesTable) {
  // Extend takes the SSE4.2 path where the CPU has it; it must agree with
  // the table on every length and alignment (8-byte body plus tail), from
  // a fresh and from a running CRC.
  std::string buffer(300 + 8, '\0');
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<char>((i * 131 + 7) & 0xFF);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 300; ++n) {
      const char* data = buffer.data() + offset;
      ASSERT_EQ(crc32c::Extend(0, data, n),
                crc32c::ExtendPortable(0, data, n))
          << "offset=" << offset << " n=" << n;
      ASSERT_EQ(crc32c::Extend(0xdeadbeefU, data, n),
                crc32c::ExtendPortable(0xdeadbeefU, data, n))
          << "offset=" << offset << " n=" << n;
    }
  }
  char ascending[32];
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  EXPECT_EQ(crc32c::ExtendPortable(0, ascending, sizeof(ascending)),
            0x46dd794eU);
}

TEST(Crc32cTest, ExtendEqualsWhole) {
  const std::string data = "hello world, this is crc32c";
  const uint32_t whole = crc32c::Value(data.data(), data.size());
  uint32_t partial = crc32c::Value(data.data(), 10);
  partial = crc32c::Extend(partial, data.data() + 10, data.size() - 10);
  EXPECT_EQ(whole, partial);
}

TEST(Crc32cTest, MaskRoundTrip) {
  const uint32_t crc = crc32c::Value("foo", 3);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    const uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, ExponentialMeanApproximatelyCorrect) {
  Random rng(99);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(100.0);
  const double mean = sum / n;
  EXPECT_NEAR(mean, 100.0, 5.0);
}

TEST(UuidTest, GenerateParseRoundTrip) {
  Random rng(3);
  for (int i = 0; i < 20; ++i) {
    const Uuid u = Uuid::Generate(&rng);
    EXPECT_FALSE(u.IsNil());
    auto parsed = Uuid::Parse(u.ToString());
    ASSERT_TRUE(parsed.ok()) << u.ToString();
    EXPECT_EQ(*parsed, u);
  }
}

TEST(UuidTest, FromIndexIsStableAndDistinct) {
  EXPECT_EQ(Uuid::FromIndex(1), Uuid::FromIndex(1));
  EXPECT_NE(Uuid::FromIndex(1), Uuid::FromIndex(2));
  EXPECT_EQ(Uuid::FromIndex(7).ToString(),
            Uuid::FromIndex(7).ToString());
}

TEST(UuidTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Uuid::Parse("").ok());
  EXPECT_FALSE(Uuid::Parse("not-a-uuid").ok());
  EXPECT_FALSE(
      Uuid::Parse("zzzzzzzz-0000-0000-0000-000000000000").ok());
  EXPECT_FALSE(
      Uuid::Parse("abcd0123-0000+0000-0000-000000000000").ok());
}

TEST(StringUtilTest, Printf) {
  EXPECT_EQ(StringPrintf("%d-%s", 42, "x"), "42-x");
  const std::string big(1000, 'a');
  EXPECT_EQ(StringPrintf("%s", big.c_str()).size(), 1000u);
}

TEST(StringUtilTest, SplitJoin) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(JoinStrings(parts, ","), "a,b,,c");
  EXPECT_EQ(SplitString("", ',').size(), 1u);
}

TEST(StringUtilTest, PrefixSuffix) {
  EXPECT_TRUE(HasPrefix("binlog.000001", "binlog."));
  EXPECT_FALSE(HasPrefix("bin", "binlog"));
  EXPECT_TRUE(HasSuffix("file.idx", ".idx"));
  EXPECT_FALSE(HasSuffix("idx", "file.idx"));
}

TEST(StringUtilTest, ParseUint64) {
  uint64_t v;
  EXPECT_TRUE(ParseUint64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(ParseUint64("18446744073709551616", &v));  // overflow
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("12a", &v));
  EXPECT_FALSE(ParseUint64("-1", &v));
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_NEAR(h.Mean(), 50.5, 0.01);
  EXPECT_NEAR(h.Median(), 50.0, 5.0);
  EXPECT_NEAR(h.Percentile(99), 99.0, 7.0);
}

TEST(HistogramTest, PercentileWithinRelativeError) {
  Histogram h;
  Random rng(5);
  std::vector<uint64_t> values;
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = 1 + (rng.Next() % 1000000);
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {50.0, 90.0, 99.0}) {
    const uint64_t exact = values[static_cast<size_t>(p / 100 * values.size()) - 1];
    const double est = h.Percentile(p);
    EXPECT_NEAR(est, static_cast<double>(exact), 0.08 * exact) << "p" << p;
  }
}

TEST(HistogramTest, MergeEqualsCombined) {
  Histogram a, b, combined;
  Random rng(8);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Uniform(10000);
    if (i % 2 == 0) a.Add(v); else b.Add(v);
    combined.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.Mean(), combined.Mean());
  EXPECT_DOUBLE_EQ(a.Percentile(95), combined.Percentile(95));
}

TEST(HistogramTest, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(99), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
}

}  // namespace
}  // namespace myraft

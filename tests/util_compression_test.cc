#include "util/compression.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/coding.h"
#include "util/random.h"

namespace myraft {
namespace {

std::string RoundTrip(const std::string& input) {
  std::string compressed;
  LzCompress(input, &compressed);
  std::string out;
  Status s = LzDecompress(compressed, &out);
  EXPECT_TRUE(s.ok()) << s;
  return out;
}

// The golden corpus: one input per LzCompress regime (no table, literal
// only, short structured entry, long run, incompressible).
std::string SysbenchLikeEntry() {
  std::string s =
      "BEGIN;TABLE_MAP sbtest.sbtest1(id,k,c,pad);"
      "UPDATE sbtest.sbtest1 SET k=k+1 WHERE id=4711;"
      "UPDATE sbtest.sbtest1 SET c='83868641912-28773972837-60736120486-"
      "75162659906-27563526494' WHERE id=5012;"
      "INSERT sbtest.sbtest1 VALUES(4711,5012,'6784796737-48000963322',"
      "'62604785301-91415491898');XID=91;";
  s.resize(250, '.');
  return s;
}

std::string RandomBytes(uint64_t seed, size_t n) {
  Random rng(seed);
  std::string s;
  for (size_t i = 0; i < n; ++i) s.push_back(static_cast<char>(rng.Next()));
  return s;
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

std::string CompressToHex(const std::string& input) {
  std::string compressed;
  LzCompress(input, &compressed);
  return Hex(compressed);
}

struct GoldenCase {
  const char* name;
  std::string input;
  std::string hex;
};

std::vector<GoldenCase> GoldenCorpus() {
  return {
      {"empty", "", "00"},
      {"tiny", "abc", "030003616263"},
      {"sysbench_250", SysbenchLikeEntry(),
      "fa010017424547494e3b5441424c455f4d4150207362746573742e0106070014"
      "312869642c6b2c632c706164293b555044415445010f22001820534554206b3d"
      "6b2b312057484552452069643d34373131011b2e003f633d2738333836383634"
      "313931322d32383737333937323833372d36303733363132303438362d373531"
      "36323635393930362d323735363335323634393427010a68000b353031323b49"
      "4e53455254011068000756414c5545532801048a0100012c01042700132c2736"
      "3738343739363733372d343830303039"},
      {"x_run_8k", std::string(8192, 'x'), "804000017801ff3f01"},
      {"random_64", RandomBytes(7, 64),
      "4000408b06317b568075cb9e787dda4fcc07c35bc6c4bf41e6bacea0bb8c8f69"
      "cab91470a094a19f47eb2e22449a20282e4d2a12ccfbe7114a0b1f561193b200"
      "cc10b7"},
  };
}

TEST(CompressionTest, GoldenVectors) {
  // Recorded from the per-call-table compressor; the reusable match table
  // must produce the same bytes.
  for (const GoldenCase& c : GoldenCorpus()) {
    EXPECT_EQ(CompressToHex(c.input), c.hex) << c.name;
    EXPECT_EQ(RoundTrip(c.input), c.input) << c.name;
  }
}

TEST(CompressionTest, OutputDoesNotDependOnPreviousCalls) {
  // The match table is reused across calls on a thread. Interleave inputs
  // of very different sizes and compare each output with the one a fresh
  // thread (a never-used table) produces for the same input.
  std::vector<std::string> inputs = {
      SysbenchLikeEntry(), std::string(70'000, 'y'), "abcd",
      RandomBytes(3, 5000), SysbenchLikeEntry().substr(17, 120), ""};
  std::string phrase_heavy;
  while (phrase_heavy.size() < 40'000) phrase_heavy += "sbtest.sbtest1 k=";
  inputs.push_back(phrase_heavy);

  std::vector<std::string> fresh(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    std::thread([&, i]() { LzCompress(inputs[i], &fresh[i]); }).join();
  }
  Random rng(21);
  for (int round = 0; round < 200; ++round) {
    const size_t i = rng.Uniform(inputs.size());
    std::string out;
    LzCompress(inputs[i], &out);
    ASSERT_EQ(out, fresh[i]) << "input " << i << " round " << round;
  }
}

TEST(CompressionTest, Empty) { EXPECT_EQ(RoundTrip(""), ""); }

TEST(CompressionTest, Tiny) {
  EXPECT_EQ(RoundTrip("a"), "a");
  EXPECT_EQ(RoundTrip("abc"), "abc");
}

TEST(CompressionTest, HighlyRepetitiveShrinks) {
  const std::string input(100000, 'z');
  std::string compressed;
  LzCompress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 50);
  std::string out;
  ASSERT_TRUE(LzDecompress(compressed, &out).ok());
  EXPECT_EQ(out, input);
}

TEST(CompressionTest, OverlappingMatchesRleStyle) {
  // "ababab..." forces overlapping back-references.
  std::string input;
  for (int i = 0; i < 5000; ++i) input += "ab";
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(CompressionTest, BinlogLikePayloadCompresses) {
  // Row-based replication payloads repeat column metadata heavily.
  std::string input;
  Random rng(11);
  for (int row = 0; row < 200; ++row) {
    input += "TABLE_MAP:db1.users|cols=id,name,email,ts|";
    input += "ROW:" + std::to_string(rng.Uniform(100000)) + "|";
  }
  std::string compressed;
  LzCompress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 2);
  std::string out;
  ASSERT_TRUE(LzDecompress(compressed, &out).ok());
  EXPECT_EQ(out, input);
}

TEST(CompressionTest, IncompressibleStillRoundTrips) {
  Random rng(13);
  std::string input;
  for (int i = 0; i < 10000; ++i) input.push_back(static_cast<char>(rng.Next()));
  EXPECT_EQ(RoundTrip(input), input);
  std::string compressed;
  LzCompress(input, &compressed);
  EXPECT_LE(compressed.size(), LzMaxCompressedSize(input.size()));
}

TEST(CompressionTest, DecompressRejectsTruncation) {
  std::string input(1000, 'x');
  input += "variation to force structure";
  std::string compressed;
  LzCompress(input, &compressed);
  for (size_t len : {size_t{0}, compressed.size() / 2, compressed.size() - 1}) {
    std::string out;
    Status s = LzDecompress(Slice(compressed.data(), len), &out);
    EXPECT_FALSE(s.ok()) << "len=" << len;
  }
}

TEST(CompressionTest, DecompressRejectsBadTag) {
  std::string compressed;
  LzCompress("hello world hello world", &compressed);
  // Corrupt the first command tag after the size varint.
  compressed[1] = 0x7F;
  std::string out;
  EXPECT_TRUE(LzDecompress(compressed, &out).IsCorruption());
}

TEST(CompressionTest, DecompressRejectsBogusDistance) {
  // Hand-craft: size=4, match len=4 dist=9 with empty window.
  std::string bad;
  bad.push_back(4);    // varint size = 4
  bad.push_back(1);    // match tag
  bad.push_back(4);    // len
  bad.push_back(9);    // dist > window
  std::string out;
  EXPECT_TRUE(LzDecompress(bad, &out).IsCorruption());
}

TEST(CompressionTest, DecompressRejectsMatchPastDeclaredSize) {
  // Regression: the declared size was checked only after a match's copy
  // loop, so this 11-byte block (declared size 8, one literal, then a
  // match of 2^34 bytes at distance 1) ran out of memory instead of
  // failing.
  std::string bomb;
  PutVarint64(&bomb, 8);           // declared size
  bomb.push_back(0);               // literal tag
  PutVarint64(&bomb, 1);           // literal length
  bomb.push_back('a');
  bomb.push_back(1);               // match tag
  PutVarint64(&bomb, 1ull << 34);  // match length
  PutVarint64(&bomb, 1);           // match distance
  ASSERT_EQ(bomb.size(), 11u);
  std::string out;
  EXPECT_TRUE(LzDecompress(bomb, &out).IsCorruption());
  EXPECT_LE(out.capacity(), 1u << 20);
}

TEST(CompressionTest, DecompressDoesNotTrustTheSizeHeader) {
  // A header declaring 2^62 bytes with no body must fail cleanly, not
  // reserve the declared size up front.
  std::string header;
  PutVarint64(&header, 1ull << 62);
  std::string out;
  EXPECT_TRUE(LzDecompress(header, &out).IsCorruption());
}

class CompressionFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompressionFuzzTest, RandomStructuredRoundTrip) {
  Random rng(GetParam());
  // Mix of random bytes and repeated phrases, like real txn payloads.
  std::string input;
  const char* phrases[] = {"INSERT", "UPDATE users SET ", "gtid:", "xid=",
                           "aaaaaaaaaaaaaaaa"};
  const size_t target = 1000 + rng.Uniform(50000);
  while (input.size() < target) {
    if (rng.OneIn(3)) {
      input += phrases[rng.Uniform(5)];
    } else {
      const size_t n = 1 + rng.Uniform(20);
      for (size_t i = 0; i < n; ++i) input.push_back(static_cast<char>(rng.Next()));
    }
  }
  std::string compressed, out;
  LzCompress(input, &compressed);
  ASSERT_TRUE(LzDecompress(compressed, &out).ok());
  EXPECT_EQ(out, input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressionFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace myraft

#include "binlog/gtid.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace myraft::binlog {
namespace {

Uuid U(uint64_t i) { return Uuid::FromIndex(i); }

TEST(GtidTest, ParseFormatRoundTrip) {
  const Gtid gtid{U(1), 42};
  auto parsed = Gtid::Parse(gtid.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, gtid);
}

TEST(GtidTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Gtid::Parse("no-colon").ok());
  EXPECT_FALSE(Gtid::Parse(U(1).ToString() + ":0").ok());
  EXPECT_FALSE(Gtid::Parse(U(1).ToString() + ":abc").ok());
  EXPECT_FALSE(Gtid::Parse("bad-uuid:5").ok());
}

TEST(GtidSetTest, AddAndContains) {
  GtidSet set;
  set.Add({U(1), 5});
  EXPECT_TRUE(set.Contains({U(1), 5}));
  EXPECT_FALSE(set.Contains({U(1), 4}));
  EXPECT_FALSE(set.Contains({U(2), 5}));
  EXPECT_EQ(set.Count(), 1u);
}

TEST(GtidSetTest, AdjacentRunsMerge) {
  GtidSet set;
  set.AddRange(U(1), 1, 3);
  set.AddRange(U(1), 4, 6);  // adjacent
  ASSERT_EQ(set.intervals().at(U(1)).size(), 1u);
  EXPECT_EQ(set.ToString(), U(1).ToString() + ":1-6");
}

TEST(GtidSetTest, OverlappingRunsMerge) {
  GtidSet set;
  set.AddRange(U(1), 1, 10);
  set.AddRange(U(1), 5, 20);
  set.AddRange(U(1), 30, 40);
  ASSERT_EQ(set.intervals().at(U(1)).size(), 2u);
  EXPECT_EQ(set.Count(), 31u);
}

TEST(GtidSetTest, OutOfOrderInsertKeepsSorted) {
  GtidSet set;
  set.Add({U(1), 9});
  set.Add({U(1), 3});
  set.Add({U(1), 6});
  const auto& runs = set.intervals().at(U(1));
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].start, 3u);
  EXPECT_EQ(runs[1].start, 6u);
  EXPECT_EQ(runs[2].start, 9u);
}

TEST(GtidSetTest, UnionCombines) {
  GtidSet a, b;
  a.AddRange(U(1), 1, 5);
  b.AddRange(U(1), 4, 8);
  b.AddRange(U(2), 1, 1);
  a.Union(b);
  EXPECT_TRUE(a.Contains({U(1), 8}));
  EXPECT_TRUE(a.Contains({U(2), 1}));
  EXPECT_EQ(a.Count(), 9u);
}

TEST(GtidSetTest, SubtractSplitsRuns) {
  GtidSet a, b;
  a.AddRange(U(1), 1, 10);
  b.AddRange(U(1), 4, 6);
  a.Subtract(b);
  EXPECT_EQ(a.ToString(), U(1).ToString() + ":1-3:7-10");
  EXPECT_EQ(a.Count(), 7u);
}

TEST(GtidSetTest, SubtractWholeUuidRemovesKey) {
  GtidSet a, b;
  a.AddRange(U(1), 1, 3);
  b.AddRange(U(1), 1, 3);
  a.Subtract(b);
  EXPECT_TRUE(a.IsEmpty());
}

TEST(GtidSetTest, SubtractDisjointIsNoOp) {
  GtidSet a, b;
  a.AddRange(U(1), 1, 3);
  b.AddRange(U(1), 10, 12);
  b.AddRange(U(2), 1, 5);
  a.Subtract(b);
  EXPECT_EQ(a.Count(), 3u);
}

TEST(GtidSetTest, ContainsAll) {
  GtidSet a, b;
  a.AddRange(U(1), 1, 10);
  a.AddRange(U(2), 5, 5);
  b.AddRange(U(1), 2, 4);
  EXPECT_TRUE(a.ContainsAll(b));
  b.AddRange(U(2), 5, 6);
  EXPECT_FALSE(a.ContainsAll(b));
  EXPECT_TRUE(a.ContainsAll(GtidSet()));
}

TEST(GtidSetTest, Intersects) {
  GtidSet a, b;
  a.AddRange(U(1), 1, 5);
  b.AddRange(U(1), 5, 9);
  EXPECT_TRUE(a.Intersects(b));
  GtidSet c;
  c.AddRange(U(1), 6, 9);
  EXPECT_FALSE(a.Intersects(c));
}

TEST(GtidSetTest, NextTxnNo) {
  GtidSet set;
  EXPECT_EQ(set.NextTxnNo(U(1)), 1u);
  set.AddRange(U(1), 1, 7);
  EXPECT_EQ(set.NextTxnNo(U(1)), 8u);
  EXPECT_EQ(set.NextTxnNo(U(2)), 1u);
}

TEST(GtidSetTest, TextRoundTrip) {
  GtidSet set;
  set.AddRange(U(1), 1, 5);
  set.AddRange(U(1), 7, 7);
  set.AddRange(U(2), 100, 200);
  auto parsed = GtidSet::Parse(set.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, set);
  // Empty set round-trips too.
  auto empty = GtidSet::Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->IsEmpty());
}

TEST(GtidSetTest, ParseRejectsMalformed) {
  EXPECT_FALSE(GtidSet::Parse("garbage").ok());
  EXPECT_FALSE(GtidSet::Parse(U(1).ToString()).ok());          // no interval
  EXPECT_FALSE(GtidSet::Parse(U(1).ToString() + ":5-3").ok()); // inverted
  EXPECT_FALSE(GtidSet::Parse(U(1).ToString() + ":0").ok());   // zero
  EXPECT_FALSE(GtidSet::Parse(U(1).ToString() + ":1-2-3").ok());
}

TEST(GtidSetTest, BinaryRoundTrip) {
  GtidSet set;
  set.AddRange(U(1), 1, 1000000);
  set.AddRange(U(2), 3, 3);
  set.AddRange(U(3), 10, 20);
  std::string buf;
  set.EncodeTo(&buf);
  auto decoded = GtidSet::Decode(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, set);
}

// Property test: set algebra invariants under random operations.
class GtidSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GtidSetPropertyTest, AlgebraInvariants) {
  Random rng(GetParam());
  GtidSet a, b;
  for (int i = 0; i < 200; ++i) {
    const Uuid uuid = U(rng.Uniform(4));
    const uint64_t start = 1 + rng.Uniform(500);
    const uint64_t end = start + rng.Uniform(20);
    (rng.OneIn(2) ? a : b).AddRange(uuid, start, end);
  }

  // (a ∪ b) ⊇ a and ⊇ b.
  GtidSet u = a;
  u.Union(b);
  EXPECT_TRUE(u.ContainsAll(a));
  EXPECT_TRUE(u.ContainsAll(b));
  EXPECT_LE(u.Count(), a.Count() + b.Count());

  // (a − b) ∩ b = ∅ and (a − b) ∪ (a ∩ b-part) stays within a.
  GtidSet diff = a;
  diff.Subtract(b);
  EXPECT_FALSE(diff.Intersects(b));
  EXPECT_TRUE(a.ContainsAll(diff));

  // Subtract then re-add restores a.
  GtidSet restored = diff;
  GtidSet a_and_b = a;
  a_and_b.Subtract(diff);  // = a ∩ b
  restored.Union(a_and_b);
  EXPECT_EQ(restored, a);

  // Text round-trip is lossless.
  auto parsed = GtidSet::Parse(u.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, u);

  // Binary round-trip is lossless.
  std::string buf;
  diff.EncodeTo(&buf);
  auto decoded = GtidSet::Decode(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, diff);

  // Intervals stay canonical: sorted, disjoint, non-adjacent.
  for (const auto& [uuid, runs] : u.intervals()) {
    for (size_t i = 0; i < runs.size(); ++i) {
      EXPECT_LE(runs[i].start, runs[i].end);
      if (i > 0) {
        EXPECT_GT(runs[i].start, runs[i - 1].end + 1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GtidSetPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 23, 47));

}  // namespace
}  // namespace myraft::binlog

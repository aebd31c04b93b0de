// Edge-case tests for the histogram's log-linear bucketing and percentile
// estimation: octave boundaries, the p=100 / single-sample extremes, and
// Merge-then-Percentile round trips. The bulk statistical behaviour is
// covered in util_misc_test.cc; this file pins down the boundary math the
// metrics registry and bench percentile tables depend on.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/histogram.h"
#include "util/random.h"

namespace myraft {
namespace {

TEST(HistogramBucketTest, SmallValuesMapToIdentityBuckets) {
  // The first octave is linear: values below kSubBuckets are their own
  // bucket, with an exact lower bound.
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketFor(v), static_cast<int>(v));
    EXPECT_EQ(Histogram::BucketLowerBound(static_cast<int>(v)), v);
  }
}

TEST(HistogramBucketTest, OctaveBoundaries) {
  // Each power of two starts a new octave: 2^k lands exactly on a bucket
  // lower bound, and 2^k - 1 lands in the preceding bucket.
  for (int k = Histogram::kSubBucketBits; k < 40; ++k) {
    const uint64_t v = 1ull << k;
    const int bucket = Histogram::BucketFor(v);
    EXPECT_EQ(Histogram::BucketLowerBound(bucket), v) << "k=" << k;
    EXPECT_EQ(Histogram::BucketFor(v - 1), bucket - 1) << "k=" << k;
  }
}

TEST(HistogramBucketTest, LowerBoundRoundTripsThroughBucketFor) {
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(Histogram::BucketFor(Histogram::BucketLowerBound(b)), b)
        << "bucket " << b;
  }
}

TEST(HistogramBucketTest, BucketForIsMonotonic) {
  int prev = -1;
  for (uint64_t v = 0; v < 100'000; v += 37) {
    const int bucket = Histogram::BucketFor(v);
    EXPECT_GE(bucket, prev) << "value " << v;
    prev = bucket;
  }
}

TEST(HistogramBucketTest, HugeValuesClampToLastBucket) {
  EXPECT_EQ(Histogram::BucketFor(UINT64_MAX), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketFor(1ull << 50), Histogram::kNumBuckets - 1);
}

TEST(HistogramPercentileTest, P100ReturnsMax) {
  Histogram h;
  h.Add(3);
  h.Add(900);
  h.Add(123'456);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 123'456.0);
  // And never above max even with interpolation inside the last bucket.
  for (double p : {99.0, 99.9, 100.0}) {
    EXPECT_LE(h.Percentile(p), 123'456.0) << "p" << p;
  }
}

TEST(HistogramPercentileTest, SingleSampleAtEveryPercentile) {
  Histogram h;
  h.Add(777);
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(p), 777.0) << "p" << p;
  }
  EXPECT_EQ(h.min(), 777u);
  EXPECT_EQ(h.max(), 777u);
}

TEST(HistogramPercentileTest, ResultsStayWithinObservedRange) {
  Histogram h;
  Random rng(11);
  for (int i = 0; i < 10'000; ++i) h.Add(500 + rng.Uniform(1'000'000));
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.99, 100.0}) {
    const double v = h.Percentile(p);
    EXPECT_GE(v, static_cast<double>(h.min())) << "p" << p;
    EXPECT_LE(v, static_cast<double>(h.max())) << "p" << p;
  }
}

TEST(HistogramMergeTest, MergeEmptyIsIdentity) {
  Histogram h, empty;
  for (uint64_t v : {5u, 90u, 4'000u}) h.Add(v);
  const double p50_before = h.Percentile(50);
  h.Merge(empty);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.Percentile(50), p50_before);

  // Merging into an empty histogram reproduces the source.
  Histogram target;
  target.Merge(h);
  EXPECT_EQ(target.count(), h.count());
  EXPECT_EQ(target.min(), h.min());
  EXPECT_EQ(target.max(), h.max());
  EXPECT_DOUBLE_EQ(target.Percentile(99), h.Percentile(99));
}

TEST(HistogramMergeTest, MergeThenPercentileMatchesCombinedStream) {
  // Shard one stream across four histograms, merge them back, and check
  // the percentile estimates agree exactly with the unsharded histogram
  // (bucket counts are additive, so they must).
  Histogram shards[4];
  Histogram combined;
  Random rng(23);
  for (int i = 0; i < 20'000; ++i) {
    const uint64_t v = 1 + rng.Uniform(5'000'000);
    shards[i % 4].Add(v);
    combined.Add(v);
  }
  Histogram merged;
  for (const Histogram& shard : shards) merged.Merge(shard);
  EXPECT_EQ(merged.count(), combined.count());
  for (double p : {1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(p), combined.Percentile(p))
        << "p" << p;
  }
}

TEST(HistogramMergeTest, ClearThenReuse) {
  Histogram h;
  h.Add(1'000'000);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
  h.Add(42);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 42.0);
}

TEST(HistogramDeltaTest, DeltaIsTheWindowBetweenSnapshots) {
  // The sampler's windowing primitive: later.Delta(earlier) holds exactly
  // the samples recorded between the two snapshots.
  Histogram earlier;
  for (int i = 0; i < 100; ++i) earlier.Add(1'000);
  Histogram later = earlier;
  for (int i = 0; i < 50; ++i) later.Add(9'000);

  const Histogram window = later.Delta(earlier);
  EXPECT_EQ(window.count(), 50u);
  // Every window sample was 9000: the whole percentile range reads from
  // that one bucket, not from the 1000us samples that predate the window.
  EXPECT_GE(window.Percentile(1), 9'000.0 * 0.9);
  EXPECT_LE(window.Percentile(99), 9'000.0 * 1.1);

  // Delta against an identical snapshot is empty.
  const Histogram empty = later.Delta(later);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.Percentile(50), 0.0);
}

TEST(HistogramDeltaTest, DeltaAgainstNeverSampledSnapshot) {
  // Buckets are allocated on the first sample, so the sampler's first
  // window diffs against a histogram that has none yet.
  Histogram never_sampled;
  Histogram later;
  for (int i = 0; i < 10; ++i) later.Add(700);
  const Histogram window = later.Delta(never_sampled);
  EXPECT_EQ(window.count(), 10u);
  EXPECT_DOUBLE_EQ(window.Percentile(50), later.Percentile(50));
  EXPECT_EQ(never_sampled.Delta(never_sampled).count(), 0u);
  EXPECT_TRUE(never_sampled.NonEmptyBuckets().empty());
}

TEST(HistogramDeltaTest, DeltaThenMergeRoundTrips) {
  Histogram earlier;
  Random rng(31);
  for (int i = 0; i < 5'000; ++i) earlier.Add(1 + rng.Uniform(100'000));
  Histogram later = earlier;
  for (int i = 0; i < 5'000; ++i) later.Add(1 + rng.Uniform(100'000));

  // earlier + (later - earlier) == later, bucket for bucket.
  Histogram rebuilt = earlier;
  rebuilt.Merge(later.Delta(earlier));
  EXPECT_EQ(rebuilt.count(), later.count());
  for (double p : {1.0, 50.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(rebuilt.Percentile(p), later.Percentile(p)) << "p" << p;
  }
}

}  // namespace
}  // namespace myraft

// Edge-case tests for the histogram's log-linear bucketing and percentile
// estimation: octave boundaries, the p=100 / single-sample extremes,
// Merge-then-Percentile round trips, and the sparse octave chunks against
// a dense 640-bucket reference. The bulk statistical behaviour is covered
// in util_misc_test.cc; this file pins down the boundary math the metrics
// registry and bench percentile tables depend on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/histogram.h"
#include "util/random.h"

namespace myraft {
namespace {

// The dense layout the sparse octave chunks replaced: every bucket of
// every octave, allocated on first use. Add/Merge/Delta/Percentile are
// that layout's algorithms, kept here as the reference the sparse
// Histogram must match result for result.
class DenseReference {
 public:
  void Add(uint64_t value) {
    ++count_;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    sum_ += static_cast<double>(value);
    sum_squares_ += static_cast<double>(value) * static_cast<double>(value);
    EnsureBuckets();
    ++buckets_[Histogram::BucketFor(value)];
  }

  void Merge(const DenseReference& other) {
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
    sum_squares_ += other.sum_squares_;
    if (other.buckets_.empty()) return;
    EnsureBuckets();
    for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  }

  DenseReference Delta(const DenseReference& earlier) const {
    DenseReference delta;
    delta.count_ = count_ >= earlier.count_ ? count_ - earlier.count_ : 0;
    delta.sum_ = sum_ >= earlier.sum_ ? sum_ - earlier.sum_ : 0;
    delta.sum_squares_ = sum_squares_ >= earlier.sum_squares_
                             ? sum_squares_ - earlier.sum_squares_
                             : 0;
    if (buckets_.empty()) return delta;
    delta.EnsureBuckets();
    for (int i = 0; i < kBuckets; ++i) {
      const uint64_t before =
          earlier.buckets_.empty() ? 0 : earlier.buckets_[i];
      const uint64_t n = buckets_[i] >= before ? buckets_[i] - before : 0;
      delta.buckets_[i] = n;
      if (n > 0) {
        delta.min_ = std::min(delta.min_, Histogram::BucketLowerBound(i));
        delta.max_ = std::max(delta.max_,
                              i + 1 < kBuckets
                                  ? Histogram::BucketLowerBound(i + 1) - 1
                                  : Histogram::BucketLowerBound(i));
      }
    }
    if (delta.count_ > 0) {
      if (min_ >= delta.min_) delta.min_ = std::max(delta.min_, min_);
      delta.max_ = std::min(delta.max_, max_);
    }
    return delta;
  }

  void Clear() {
    count_ = 0;
    min_ = UINT64_MAX;
    max_ = 0;
    sum_ = 0;
    sum_squares_ = 0;
    std::fill(buckets_.begin(), buckets_.end(), 0);
  }

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double StdDev() const {
    if (count_ == 0) return 0.0;
    const double n = static_cast<double>(count_);
    const double variance = (sum_squares_ - sum_ * sum_ / n) / n;
    return variance > 0 ? std::sqrt(variance) : 0.0;
  }

  double Percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double threshold = static_cast<double>(count_) * (p / 100.0);
    uint64_t cumulative = 0;
    for (int i = 0; i < static_cast<int>(buckets_.size()); ++i) {
      if (buckets_[i] == 0) continue;
      cumulative += buckets_[i];
      if (static_cast<double>(cumulative) >= threshold) {
        const uint64_t lo = Histogram::BucketLowerBound(i);
        const uint64_t hi =
            i + 1 < kBuckets ? Histogram::BucketLowerBound(i + 1) - 1 : lo;
        const double excess = static_cast<double>(cumulative) - threshold;
        const double frac = 1.0 - excess / static_cast<double>(buckets_[i]);
        double v = static_cast<double>(lo) +
                   frac * static_cast<double>(hi - lo);
        v = std::max(v, static_cast<double>(min()));
        v = std::min(v, static_cast<double>(max_));
        return v;
      }
    }
    return static_cast<double>(max_);
  }

  std::vector<std::pair<uint64_t, uint64_t>> NonEmptyBuckets() const {
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (int i = 0; i < static_cast<int>(buckets_.size()); ++i) {
      if (buckets_[i] != 0) {
        out.emplace_back(Histogram::BucketLowerBound(i), buckets_[i]);
      }
    }
    return out;
  }

 private:
  static constexpr int kBuckets = Histogram::kNumBuckets;
  void EnsureBuckets() {
    if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  }

  uint64_t count_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
  double sum_ = 0;
  double sum_squares_ = 0;
  std::vector<uint64_t> buckets_;
};

void ExpectSameAsReference(const Histogram& h, const DenseReference& ref,
                           int step) {
  ASSERT_EQ(h.count(), ref.count()) << "step " << step;
  EXPECT_EQ(h.min(), ref.min()) << "step " << step;
  EXPECT_EQ(h.max(), ref.max()) << "step " << step;
  EXPECT_EQ(h.Mean(), ref.Mean()) << "step " << step;
  EXPECT_EQ(h.StdDev(), ref.StdDev()) << "step " << step;
  EXPECT_EQ(h.NonEmptyBuckets(), ref.NonEmptyBuckets()) << "step " << step;
  for (double p : {0.0, 0.1, 1.0, 5.0, 10.0, 25.0, 33.3, 50.0, 66.6, 75.0,
                   90.0, 95.0, 99.0, 99.9, 99.99, 100.0}) {
    EXPECT_EQ(h.Percentile(p), ref.Percentile(p))
        << "step " << step << " p" << p;
  }
}

TEST(HistogramTest, SparseMatchesDenseReference) {
  // Values that stress the octave layout: the linear first octave, its
  // edge at 15/16, both sides of every power of two, the clamped range
  // at and above 2^40, and UINT64_MAX.
  std::vector<uint64_t> edges = {0, 1, 15, 16, 17, 1ull << 40,
                                 (1ull << 40) + 12'345, 1ull << 50,
                                 UINT64_MAX - 1, UINT64_MAX};
  for (int k = 1; k < 64; ++k) {
    edges.push_back((1ull << k) - 1);
    edges.push_back(1ull << k);
    edges.push_back((1ull << k) + 1);
  }
  Random rng(2024);
  auto value = [&]() -> uint64_t {
    if (rng.OneIn(3)) return edges[rng.Uniform(edges.size())];
    // Log-uniform magnitude, so every octave is reached.
    const int bits = static_cast<int>(rng.Uniform(65));
    return bits == 0 ? 0 : rng.Next() >> (64 - bits);
  };

  constexpr int kHists = 4;
  Histogram sparse[kHists];
  DenseReference dense[kHists];
  Histogram sparse_earlier[kHists];
  DenseReference dense_earlier[kHists];
  for (int step = 0; step < 4'000; ++step) {
    const int i = static_cast<int>(rng.Uniform(kHists));
    const int j = static_cast<int>(rng.Uniform(kHists));
    const uint64_t op = rng.Uniform(100);
    if (op < 70) {
      const uint64_t v = value();
      sparse[i].Add(v);
      dense[i].Add(v);
    } else if (op < 80) {
      sparse[i].Merge(sparse[j]);  // i == j merges a histogram into itself
      dense[i].Merge(dense[j]);
    } else if (op < 87) {
      // A window since i's snapshot, or (misuse, clamped) since j's.
      const Histogram sparse_delta = sparse[i].Delta(sparse_earlier[j]);
      const DenseReference dense_delta = dense[i].Delta(dense_earlier[j]);
      ExpectSameAsReference(sparse_delta, dense_delta, step);
      if (rng.OneIn(2)) {  // keep working on a delta
        sparse[i] = sparse_delta;
        dense[i] = dense_delta;
      }
    } else if (op < 95) {
      sparse_earlier[i] = sparse[i];
      dense_earlier[i] = dense[i];
    } else {
      sparse[i].Clear();
      dense[i].Clear();
    }
    ExpectSameAsReference(sparse[i], dense[i], step);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(HistogramTest, ChunkPerTouchedOctave) {
  Histogram h;
  EXPECT_EQ(h.memory_bytes(), 0u);
  h.Add(600);
  h.Add(1'000);  // same octave: [512, 1024)
  EXPECT_EQ(h.memory_bytes(), Histogram::kSubBuckets * sizeof(uint64_t));
  h.Add(3);  // a second octave, inserted before the first
  EXPECT_EQ(h.memory_bytes(), 2 * Histogram::kSubBuckets * sizeof(uint64_t));
  EXPECT_EQ(h.NonEmptyBuckets().front().first, 3u);
}

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

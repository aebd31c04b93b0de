// Latency histogram with exponential-ish bucketing and percentile
// estimation, used by the evaluation harnesses to reproduce the paper's
// latency histograms (Figure 5) and percentile tables (Table 2).

#ifndef MYRAFT_UTIL_HISTOGRAM_H_
#define MYRAFT_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace myraft {

/// Records non-negative values (typically microseconds) into
/// log-linear buckets: each power-of-two range is split into
/// `kSubBuckets` linear sub-buckets, giving <= ~3% relative error.
class Histogram {
 public:
  Histogram();

  void Add(uint64_t value);
  void Merge(const Histogram& other);
  /// Windowed delta: the distribution of samples added to this histogram
  /// since `earlier` was captured (bucket-wise subtraction; `earlier` must
  /// be a previous snapshot of the same accumulating histogram). Exact
  /// min/max of a window cannot be reconstructed from buckets, so the
  /// delta's min/max are the bounds of its populated buckets. Feeds the
  /// observability plane's per-window latency series (DESIGN.md §14).
  Histogram Delta(const Histogram& earlier) const;
  void Clear();

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  double Mean() const;
  double StdDev() const;

  /// Linear-interpolated percentile estimate; p in [0, 100].
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  /// Multi-line summary: count/mean/percentiles plus an ASCII bar chart of
  /// the populated buckets (used by the figure-reproduction benches).
  std::string ToString() const;

  /// One (lower_bound, count) pair per populated bucket, for plotting.
  std::vector<std::pair<uint64_t, uint64_t>> NonEmptyBuckets() const;

  static constexpr int kSubBucketBits = 4;  // 16 sub-buckets per octave.
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kMaxOctave = 40;     // values up to ~2^40.
  static constexpr int kNumBuckets = kMaxOctave * kSubBuckets;

  /// Bucket index covering `value` (public so tests can pin down the
  /// octave-boundary behaviour the percentile math depends on).
  static int BucketFor(uint64_t value);
  /// Smallest value that maps into `bucket`.
  static uint64_t BucketLowerBound(int bucket);

 private:
  /// Allocates the buckets on first use.
  void EnsureBuckets();

  uint64_t count_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
  double sum_ = 0;
  double sum_squares_ = 0;
  /// kNumBuckets counters (5 KiB), or empty until the first sample: most
  /// registered histograms stay empty on most nodes (leader-only raft
  /// series on followers, relay waits off the relay), and a fleet
  /// process holds thousands of registries.
  std::vector<uint64_t> buckets_;
};

}  // namespace myraft

#endif  // MYRAFT_UTIL_HISTOGRAM_H_

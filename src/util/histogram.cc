#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace myraft {

Histogram::Histogram() = default;

void Histogram::EnsureBuckets() {
  if (buckets_.empty()) buckets_.assign(kNumBuckets, 0);
}

int Histogram::BucketFor(uint64_t value) {
  if (value < kSubBuckets) return static_cast<int>(value);
  // Octave = position of the highest set bit; sub-bucket = next
  // kSubBucketBits bits below it.
  const int high = 63 - __builtin_clzll(value);
  const int octave = high - kSubBucketBits + 1;
  const int sub = static_cast<int>((value >> (high - kSubBucketBits)) &
                                   (kSubBuckets - 1));
  int bucket = octave * kSubBuckets + sub;
  return std::min(bucket, kNumBuckets - 1);
}

uint64_t Histogram::BucketLowerBound(int bucket) {
  const int octave = bucket / kSubBuckets;
  const int sub = bucket % kSubBuckets;
  if (octave == 0) return static_cast<uint64_t>(sub);
  return (static_cast<uint64_t>(kSubBuckets) + sub)
         << (octave - 1);
}

void Histogram::Add(uint64_t value) {
  ++count_;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  sum_ += static_cast<double>(value);
  sum_squares_ += static_cast<double>(value) * static_cast<double>(value);
  EnsureBuckets();
  ++buckets_[BucketFor(value)];
}

void Histogram::Merge(const Histogram& other) {
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  sum_squares_ += other.sum_squares_;
  if (other.buckets_.empty()) return;
  EnsureBuckets();
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
}

Histogram Histogram::Delta(const Histogram& earlier) const {
  Histogram delta;
  // A snapshot pair of the same accumulating histogram is always ordered;
  // clamp anyway so a misuse degrades to an empty window, not underflow.
  delta.count_ = count_ >= earlier.count_ ? count_ - earlier.count_ : 0;
  delta.sum_ = sum_ >= earlier.sum_ ? sum_ - earlier.sum_ : 0;
  delta.sum_squares_ = sum_squares_ >= earlier.sum_squares_
                           ? sum_squares_ - earlier.sum_squares_
                           : 0;
  if (buckets_.empty()) return delta;
  delta.EnsureBuckets();
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t before = earlier.buckets_.empty() ? 0 : earlier.buckets_[i];
    const uint64_t n = buckets_[i] >= before ? buckets_[i] - before : 0;
    delta.buckets_[i] = n;
    if (n > 0) {
      delta.min_ = std::min(delta.min_, BucketLowerBound(i));
      delta.max_ = std::max(
          delta.max_,
          i + 1 < kNumBuckets ? BucketLowerBound(i + 1) - 1 : BucketLowerBound(i));
    }
  }
  // The accumulated extremes are exact when they fall inside the window's
  // populated range (the common case: the window saw the overall max).
  if (delta.count_ > 0) {
    if (min_ >= delta.min_) delta.min_ = std::max(delta.min_, min_);
    delta.max_ = std::min(delta.max_, max_);
  }
  return delta;
}

void Histogram::Clear() {
  count_ = 0;
  min_ = UINT64_MAX;
  max_ = 0;
  sum_ = 0;
  sum_squares_ = 0;
  std::fill(buckets_.begin(), buckets_.end(), 0);
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::StdDev() const {
  if (count_ == 0) return 0.0;
  const double n = static_cast<double>(count_);
  const double variance = (sum_squares_ - sum_ * sum_ / n) / n;
  return variance > 0 ? std::sqrt(variance) : 0.0;
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double threshold = static_cast<double>(count_) * (p / 100.0);
  uint64_t cumulative = 0;
  for (int i = 0; i < static_cast<int>(buckets_.size()); ++i) {
    if (buckets_[i] == 0) continue;
    cumulative += buckets_[i];
    if (static_cast<double>(cumulative) >= threshold) {
      // Interpolate within the bucket, up to its *inclusive* upper value:
      // interpolating to the next bucket's lower bound used to fabricate
      // values no sample in this bucket can equal (p50 of {10, 20} came
      // out as 11 — the exclusive edge of 10's width-1 bucket). With the
      // inclusive edge, first-octave (width-1) buckets are exact and
      // wider buckets never overshoot into the neighbour.
      const uint64_t lo = BucketLowerBound(i);
      const uint64_t hi =
          (i + 1 < kNumBuckets) ? BucketLowerBound(i + 1) - 1 : lo;
      const double excess =
          static_cast<double>(cumulative) - threshold;
      const double frac =
          1.0 - excess / static_cast<double>(buckets_[i]);
      double v = static_cast<double>(lo) +
                 frac * static_cast<double>(hi - lo);
      v = std::max(v, static_cast<double>(min()));
      v = std::min(v, static_cast<double>(max_));
      return v;
    }
  }
  return static_cast<double>(max_);
}

std::vector<std::pair<uint64_t, uint64_t>> Histogram::NonEmptyBuckets() const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (int i = 0; i < static_cast<int>(buckets_.size()); ++i) {
    if (buckets_[i] != 0) out.emplace_back(BucketLowerBound(i), buckets_[i]);
  }
  return out;
}

std::string Histogram::ToString() const {
  char line[256];
  std::string out;
  snprintf(line, sizeof(line),
           "count=%llu mean=%.1f stddev=%.1f min=%llu max=%llu\n",
           static_cast<unsigned long long>(count_), Mean(), StdDev(),
           static_cast<unsigned long long>(min()),
           static_cast<unsigned long long>(max_));
  out += line;
  snprintf(line, sizeof(line),
           "p50=%.1f p90=%.1f p95=%.1f p99=%.1f p99.9=%.1f\n",
           Percentile(50), Percentile(90), Percentile(95), Percentile(99),
           Percentile(99.9));
  out += line;
  const auto buckets = NonEmptyBuckets();
  uint64_t peak = 1;
  for (const auto& [lo, n] : buckets) peak = std::max(peak, n);
  for (const auto& [lo, n] : buckets) {
    const int width = static_cast<int>(50.0 * static_cast<double>(n) /
                                       static_cast<double>(peak));
    snprintf(line, sizeof(line), "%12llu | %-50.*s %llu\n",
             static_cast<unsigned long long>(lo), width,
             "##################################################",
             static_cast<unsigned long long>(n));
    out += line;
  }
  return out;
}

}  // namespace myraft

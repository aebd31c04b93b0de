#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>

namespace myraft {

Histogram::Histogram() = default;

uint64_t* Histogram::Chunk(int octave) {
  const uint64_t bit = 1ull << octave;
  const size_t at =
      static_cast<size_t>(__builtin_popcountll(octave_mask_ & (bit - 1))) *
      kSubBuckets;
  if ((octave_mask_ & bit) == 0) {
    // Grow to the exact size: a histogram seldom touches a new octave, and
    // doubling would leave a fleet's chunk vectors half empty.
    chunks_.reserve(chunks_.size() + kSubBuckets);
    chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(at),
                   kSubBuckets, 0);
    octave_mask_ |= bit;
  }
  return chunks_.data() + at;
}

const uint64_t* Histogram::FindChunk(int octave) const {
  const uint64_t bit = 1ull << octave;
  if ((octave_mask_ & bit) == 0) return nullptr;
  return chunks_.data() +
         static_cast<size_t>(__builtin_popcountll(octave_mask_ & (bit - 1))) *
             kSubBuckets;
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
  const int bucket = BucketFor(value);
  ++Chunk(bucket / kSubBuckets)[bucket % kSubBuckets];
}

void Histogram::Merge(const Histogram& other) {
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  sum_squares_ += other.sum_squares_;
  // Walk `other`'s octaves in order; `c` is the offset of its chunk.
  size_t c = 0;
  for (uint64_t mask = other.octave_mask_; mask != 0;
       mask &= mask - 1, c += kSubBuckets) {
    uint64_t* chunk = Chunk(__builtin_ctzll(mask));
    for (int sub = 0; sub < kSubBuckets; ++sub) {
      chunk[sub] += other.chunks_[c + sub];
    }
  }
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
  if (octave_mask_ == 0) return delta;
  size_t c = 0;
  for (uint64_t mask = octave_mask_; mask != 0;
       mask &= mask - 1, c += kSubBuckets) {
    const int octave = __builtin_ctzll(mask);
    const uint64_t* before = earlier.FindChunk(octave);
    uint64_t n[kSubBuckets];
    bool touched = false;
    for (int sub = 0; sub < kSubBuckets; ++sub) {
      const uint64_t now = chunks_[c + sub];
      const uint64_t then = before == nullptr ? 0 : before[sub];
      n[sub] = now >= then ? now - then : 0;
      touched |= n[sub] > 0;
    }
    // Only octaves the window sampled get a chunk in the delta.
    if (!touched) continue;
    uint64_t* out = delta.Chunk(octave);
    for (int sub = 0; sub < kSubBuckets; ++sub) {
      out[sub] = n[sub];
      if (n[sub] == 0) continue;
      const int i = octave * kSubBuckets + sub;
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
  octave_mask_ = 0;
  chunks_.clear();
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
  size_t c = 0;
  for (uint64_t mask = octave_mask_; mask != 0;
       mask &= mask - 1, c += kSubBuckets) {
    const int octave = __builtin_ctzll(mask);
    for (int sub = 0; sub < kSubBuckets; ++sub) {
      const uint64_t n = chunks_[c + sub];
      if (n == 0) continue;
      cumulative += n;
      if (static_cast<double>(cumulative) < threshold) continue;
      // Interpolate within the bucket, up to its *inclusive* upper value:
      // interpolating to the next bucket's lower bound used to fabricate
      // values no sample in this bucket can equal (p50 of {10, 20} came
      // out as 11 — the exclusive edge of 10's width-1 bucket). With the
      // inclusive edge, first-octave (width-1) buckets are exact and
      // wider buckets never overshoot into the neighbour.
      const int i = octave * kSubBuckets + sub;
      const uint64_t lo = BucketLowerBound(i);
      const uint64_t hi =
          (i + 1 < kNumBuckets) ? BucketLowerBound(i + 1) - 1 : lo;
      const double excess =
          static_cast<double>(cumulative) - threshold;
      const double frac = 1.0 - excess / static_cast<double>(n);
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
  size_t c = 0;
  for (uint64_t mask = octave_mask_; mask != 0;
       mask &= mask - 1, c += kSubBuckets) {
    const int octave = __builtin_ctzll(mask);
    for (int sub = 0; sub < kSubBuckets; ++sub) {
      const uint64_t n = chunks_[c + sub];
      if (n != 0) {
        out.emplace_back(BucketLowerBound(octave * kSubBuckets + sub), n);
      }
    }
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

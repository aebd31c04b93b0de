// Metrics registry (kuduraft-style): named counters, gauges
// and latency histograms that subsystems look up once and bump on the hot
// path through plain pointers. A registry snapshot serialises to text or
// JSON; the sim harness dumps one per node and the bench drivers embed it
// as the "internals" section of their BENCH_*.json output.
//
// Components take a `MetricRegistry*` through their options struct and
// fall back to a private per-instance registry when it is null, so unit
// tests that count events on a single component stay isolated.
//
// Single-threaded, like everything the event loop drives (DESIGN.md §3):
// no metric takes a lock or an atomic.

#ifndef MYRAFT_UTIL_METRICS_H_
#define MYRAFT_UTIL_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/histogram.h"

namespace myraft::metrics {

/// Monotonic event counter.
class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Instantaneous signed level (queue depth, resident bytes, lag).
class Gauge {
 public:
  void Set(int64_t value) { value_ = value; }
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// Latency distribution over util/histogram's sparse buckets.
class HistogramMetric {
 public:
  void Record(uint64_t value) { histogram_.Add(value); }
  const Histogram& histogram() const { return histogram_; }

 private:
  Histogram histogram_;
};

/// Point-in-time copy of a registry's contents, detached from the live
/// metrics. The observability plane (DESIGN.md §14) diffs consecutive
/// snapshots into windowed rates and merges per-node snapshots into
/// cluster roll-ups.
struct MetricSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, Histogram> histograms;

  /// Windowed view: counters and histograms become the delta accumulated
  /// since `earlier` (both must be snapshots of the same registry);
  /// gauges keep their current level — a gauge is already instantaneous.
  MetricSnapshot DeltaSince(const MetricSnapshot& earlier) const;
  /// Cluster roll-up: sums counters and gauges, merges histograms.
  void MergeFrom(const MetricSnapshot& other);
  /// Same shape as MetricRegistry::ToJson.
  std::string ToJson() const;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Find-or-create registry of named metrics. Returned pointers are stable
/// for the registry's lifetime, so components resolve them once at
/// construction and bump them directly afterwards. Re-resolving an
/// existing name returns the same metric (a restarted component on a
/// long-lived registry keeps accumulating into the same counters).
///
/// Storage (DESIGN.md §14.5): every name maps to an id in one
/// process-wide intern table; a registry keeps a flat index of (id, kind,
/// slot) sorted by id, and each kind's values in fixed chunks that never
/// move. Names are only looked at again to serialise.
class MetricRegistry {
 public:
  /// Namespace prepended to every metric name at snapshot/serialization
  /// time (e.g. "shard.rs3." at fleet scope, so two registries hosting
  /// the same counter family — every shard bumps "raft.commits" — stay
  /// distinct when their snapshots are merged or embedded side by side).
  /// Lookups (GetCounter/Find*) keep using the bare name: the prefix is a
  /// reporting concern, not a hot-path one.
  void SetPrefix(std::string prefix) { prefix_ = std::move(prefix); }
  const std::string& prefix() const { return prefix_; }

  /// A name registered as one kind must not be re-resolved as another.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  HistogramMetric* GetHistogram(std::string_view name);

  /// Read-only lookups; nullptr when the name was never registered.
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const HistogramMetric* FindHistogram(std::string_view name) const;

  size_t MetricCount() const { return index_.size(); }
  /// All registered names, sorted.
  std::vector<std::string> Names() const;

  /// Detached point-in-time copy of every metric (see MetricSnapshot).
  MetricSnapshot Snapshot() const;

  /// One "name kind value" line per metric, sorted by name.
  std::string ToText() const;
  /// JSON object keyed by metric name; counters/gauges are numbers,
  /// histograms are {"count","min","max","mean","p50","p90","p99"}.
  std::string ToJson() const;

  /// Heap bytes of the index, the value chunks and the histograms'
  /// bucket chunks.
  size_t memory_bytes() const;

 private:
  enum Kind : uint32_t { kCounter, kGauge, kHistogram };

  struct Entry {
    uint32_t id;  // intern-table id of the bare name
    uint32_t kind : 2;
    uint32_t slot : 30;  // index into the kind's Slots
  };

  /// Append-only storage in fixed chunks: an element never moves.
  template <typename T>
  class Slots {
   public:
    static constexpr uint32_t kChunk = 16;
    uint32_t size() const { return size_; }
    T& operator[](uint32_t slot) const {
      return chunks_[slot / kChunk][slot % kChunk];
    }
    T* Append() {
      if (size_ % kChunk == 0) chunks_.push_back(std::make_unique<T[]>(kChunk));
      return &(*this)[size_++];
    }
    size_t memory_bytes() const {
      return chunks_.capacity() * sizeof(chunks_[0]) +
             chunks_.size() * kChunk * sizeof(T);
    }

   private:
    std::vector<std::unique_ptr<T[]>> chunks_;
    uint32_t size_ = 0;
  };

  /// First index entry whose id is not below `id`.
  std::vector<Entry>::const_iterator Locate(uint32_t id) const;
  template <typename T>
  T* Resolve(std::string_view name, Kind kind, Slots<T>* slots);
  template <typename T>
  const T* Find(std::string_view name, Kind kind, const Slots<T>& slots) const;
  /// The index ordered by name, for the sorted text and JSON outputs.
  std::vector<Entry> ByName() const;

  std::string prefix_;
  std::vector<Entry> index_;  // sorted by id
  Slots<Counter> counters_;
  Slots<Gauge> gauges_;
  Slots<HistogramMetric> histograms_;
};

}  // namespace myraft::metrics

#endif  // MYRAFT_UTIL_METRICS_H_

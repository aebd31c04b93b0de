// In-memory log-entry cache. §3.4: the leader "compresses the transaction
// and stores it in its in-memory cache" before shipping. The cache holds
// each payload raw and compresses it once, on the first compressed send,
// then keeps that span beside it. Followers that fall behind the cache are
// served from historical binlog files through the log abstraction. Proxy
// relays also reconstitute PROXY_OP payloads from this cache.

#ifndef MYRAFT_RAFT_LOG_CACHE_H_
#define MYRAFT_RAFT_LOG_CACHE_H_

#include <map>
#include <memory>
#include <optional>

#include "util/metrics.h"
#include "util/result.h"
#include "wire/log_entry.h"

namespace myraft::raft {

class LogCache {
 public:
  /// Metrics land in `registry` under "log_cache.*"; a null registry gets
  /// a private per-instance one (unit-test isolation).
  explicit LogCache(uint64_t capacity_bytes,
                    metrics::MetricRegistry* registry = nullptr);

  /// Inserts the raw payload; evicts from the head if over capacity.
  void Put(const LogEntry& entry);

  /// Returns a copy of the entry or NotFound on a cache miss. Fails with
  /// Corruption if the cached bytes fail checksum on the way out.
  Result<LogEntry> Get(uint64_t index) const;

  /// Id and raw payload size of a cached entry, without compressing or
  /// counting a lookup. nullopt on miss.
  struct Meta {
    OpId id;
    uint64_t payload_size = 0;
  };
  std::optional<Meta> Peek(uint64_t index) const;

  /// Zero-copy send path: the entry's compressed span, made on the first
  /// call for that entry and memoized. The shared buffer stays valid
  /// across eviction/truncation for as long as the caller holds it.
  /// nullopt on miss.
  struct CompressedEntry {
    OpId id;
    EntryType type = EntryType::kNoOp;
    uint32_t checksum = 0;          // covers the uncompressed payload
    uint64_t uncompressed_size = 0;
    std::shared_ptr<const std::string> compressed;
  };
  std::optional<CompressedEntry> GetCompressed(uint64_t index) const;

  bool Contains(uint64_t index) const { return entries_.count(index) > 0; }

  /// Drops entries with index > `index` (log truncation).
  void TruncateAfter(uint64_t index);
  void Clear();

  /// Resident bytes: raw payloads plus memoized compressed spans.
  uint64_t size_bytes() const { return size_bytes_; }
  size_t entry_count() const { return entries_.size(); }
  /// Registry holding the "log_cache.*" metrics: hits, misses, evictions
  /// and compressions are cumulative, and the two byte gauges are what is
  /// resident now.
  metrics::MetricRegistry* metrics() const { return metrics_; }

 private:
  struct Cached {
    OpId id;
    EntryType type = EntryType::kNoOp;
    uint32_t checksum = 0;
    std::string payload;
    /// Made by the first GetCompressed and kept. Shared so the zero-copy
    /// send path can borrow the bytes; in-flight batches keep them alive
    /// after the cache drops this slot.
    mutable std::shared_ptr<const std::string> compressed;
  };

  void Retire(const Cached& cached);

  uint64_t capacity_;
  /// Mutable: memoizing a compressed span adds resident bytes.
  mutable uint64_t size_bytes_ = 0;
  std::map<uint64_t, Cached> entries_;

  std::unique_ptr<metrics::MetricRegistry> owned_registry_;
  metrics::MetricRegistry* metrics_;
  metrics::Counter* hits_;
  metrics::Counter* misses_;
  metrics::Counter* evictions_;
  metrics::Counter* compressions_;
  metrics::Gauge* compressed_bytes_;
  metrics::Gauge* uncompressed_bytes_;
};

}  // namespace myraft::raft

#endif  // MYRAFT_RAFT_LOG_CACHE_H_

#include "raft/log_cache.h"

#include "util/compression.h"

namespace myraft::raft {

LogCache::LogCache(uint64_t capacity_bytes,
                   metrics::MetricRegistry* registry)
    : capacity_(capacity_bytes), metrics_(registry) {
  if (metrics_ == nullptr) {
    owned_registry_ = std::make_unique<metrics::MetricRegistry>();
    metrics_ = owned_registry_.get();
  }
  hits_ = metrics_->GetCounter("log_cache.hits");
  misses_ = metrics_->GetCounter("log_cache.misses");
  evictions_ = metrics_->GetCounter("log_cache.evictions");
  compressions_ = metrics_->GetCounter("log_cache.compressions");
  compressed_bytes_ = metrics_->GetGauge("log_cache.compressed_bytes");
  uncompressed_bytes_ = metrics_->GetGauge("log_cache.uncompressed_bytes");
  // A long-lived registry can outlive the cache instance (sim node
  // restart); the resident-byte gauges describe *this* cache, which
  // starts empty.
  compressed_bytes_->Set(0);
  uncompressed_bytes_->Set(0);
}

void LogCache::Retire(const Cached& cached) {
  const uint64_t compressed =
      cached.compressed != nullptr ? cached.compressed->size() : 0;
  size_bytes_ -= cached.payload.size() + compressed;
  compressed_bytes_->Add(-(int64_t)compressed);
  uncompressed_bytes_->Add(-(int64_t)cached.payload.size());
}

void LogCache::Put(const LogEntry& entry) {
  Cached cached;
  cached.id = entry.id;
  cached.type = entry.type;
  cached.checksum = entry.checksum;
  cached.payload = entry.payload_bytes().ToString();

  // Retire a replaced entry before accounting the new one, so overwrites
  // (leader re-proposals, truncate-then-refill) don't inflate the byte
  // gauges.
  auto it = entries_.find(entry.id.index);
  if (it != entries_.end()) Retire(it->second);

  size_bytes_ += cached.payload.size();
  uncompressed_bytes_->Add((int64_t)cached.payload.size());
  entries_[entry.id.index] = std::move(cached);

  while (size_bytes_ > capacity_ && entries_.size() > 1) {
    auto head = entries_.begin();
    Retire(head->second);
    entries_.erase(head);
    evictions_->Increment();
  }
}

Result<LogEntry> LogCache::Get(uint64_t index) const {
  auto it = entries_.find(index);
  if (it == entries_.end()) {
    misses_->Increment();
    return Status::NotFound("log cache miss");
  }
  hits_->Increment();
  LogEntry entry;
  entry.id = it->second.id;
  entry.type = it->second.type;
  entry.checksum = it->second.checksum;
  entry.payload = it->second.payload;
  if (!entry.VerifyChecksum()) {
    return Status::Corruption("log cache entry failed checksum");
  }
  return entry;
}

std::optional<LogCache::Meta> LogCache::Peek(uint64_t index) const {
  auto it = entries_.find(index);
  if (it == entries_.end()) return std::nullopt;
  return Meta{it->second.id, it->second.payload.size()};
}

std::optional<LogCache::CompressedEntry> LogCache::GetCompressed(
    uint64_t index) const {
  auto it = entries_.find(index);
  if (it == entries_.end()) return std::nullopt;
  hits_->Increment();
  const Cached& cached = it->second;
  if (cached.compressed == nullptr) {
    auto compressed = std::make_shared<std::string>();
    LzCompress(cached.payload, compressed.get());
    size_bytes_ += compressed->size();
    compressed_bytes_->Add((int64_t)compressed->size());
    compressions_->Increment();
    cached.compressed = std::move(compressed);
  }
  CompressedEntry out;
  out.id = cached.id;
  out.type = cached.type;
  out.checksum = cached.checksum;
  out.uncompressed_size = cached.payload.size();
  out.compressed = cached.compressed;
  return out;
}

void LogCache::TruncateAfter(uint64_t index) {
  for (auto it = entries_.upper_bound(index); it != entries_.end();) {
    Retire(it->second);
    it = entries_.erase(it);
  }
}

void LogCache::EvictBefore(uint64_t index) {
  for (auto it = entries_.begin();
       it != entries_.end() && it->first < index;) {
    Retire(it->second);
    it = entries_.erase(it);
    evictions_->Increment();
  }
}

void LogCache::Clear() {
  entries_.clear();
  size_bytes_ = 0;
  compressed_bytes_->Set(0);
  uncompressed_bytes_->Set(0);
}

}  // namespace myraft::raft

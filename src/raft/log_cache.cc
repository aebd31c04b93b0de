#include "raft/log_cache.h"

#include <algorithm>

#include "util/compression.h"

namespace myraft::raft {

LogCache::LogCache(uint64_t capacity_bytes,
                   metrics::MetricRegistry* registry)
    : capacity_(capacity_bytes) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<metrics::MetricRegistry>();
    registry = owned_registry_.get();
  }
  hits_ = registry->GetCounter("log_cache.hits");
  misses_ = registry->GetCounter("log_cache.misses");
  evictions_ = registry->GetCounter("log_cache.evictions");
  compressed_bytes_ = registry->GetGauge("log_cache.compressed_bytes");
  uncompressed_bytes_ = registry->GetGauge("log_cache.uncompressed_bytes");
  // A long-lived registry can outlive the cache instance (sim node
  // restart); the resident-byte gauges describe *this* cache, which
  // starts empty.
  compressed_bytes_->Set(0);
  uncompressed_bytes_->Set(0);
}

void LogCache::Retire(const Cached& cached) {
  size_bytes_ -= cached.compressed_payload->size();
  compressed_bytes_->Add(-(int64_t)cached.compressed_payload->size());
  uncompressed_bytes_->Add(-(int64_t)cached.uncompressed_size);
}

LogCache::Cached LogCache::Compress(const LogEntry& entry) {
  Cached cached;
  cached.id = entry.id;
  cached.type = entry.type;
  cached.checksum = entry.checksum;
  const Slice payload = entry.payload_bytes();
  cached.uncompressed_size = payload.size();
  auto compressed = std::make_shared<std::string>();
  LzCompress(payload, compressed.get());
  cached.compressed_payload = std::move(compressed);
  return cached;
}

void LogCache::Put(const LogEntry& entry) {
  Cached cached = Compress(entry);

  // Retire a replaced entry before accounting the new one, so overwrites
  // (leader re-proposals, truncate-then-refill) don't inflate the byte
  // gauges.
  auto it = entries_.find(entry.id.index);
  if (it != entries_.end()) Retire(it->second);

  size_bytes_ += cached.compressed_payload->size();
  compressed_bytes_->Add((int64_t)cached.compressed_payload->size());
  uncompressed_bytes_->Add((int64_t)cached.uncompressed_size);
  entries_[entry.id.index] = std::move(cached);

  while (size_bytes_ > capacity_ && entries_.size() > 1) {
    auto head = entries_.begin();
    Retire(head->second);
    entries_.erase(head);
    evictions_->Increment();
  }
}

Result<LogEntry> LogCache::Inflate(const Cached& cached) {
  LogEntry entry;
  entry.id = cached.id;
  entry.type = cached.type;
  entry.checksum = cached.checksum;
  MYRAFT_RETURN_NOT_OK(
      LzDecompress(*cached.compressed_payload, &entry.payload));
  if (!entry.VerifyChecksum()) {
    return Status::Corruption("log cache entry failed checksum");
  }
  return entry;
}

Result<LogEntry> LogCache::Get(uint64_t index) const {
  auto it = entries_.find(index);
  if (it != entries_.end()) {
    hits_->Increment();
    return Inflate(it->second);
  }
  misses_->Increment();
  return Status::NotFound("log cache miss");
}

std::optional<LogCache::CompressedEntry> LogCache::GetCompressed(
    uint64_t index) const {
  auto it = entries_.find(index);
  if (it == entries_.end()) return std::nullopt;
  hits_->Increment();
  CompressedEntry out;
  out.id = it->second.id;
  out.type = it->second.type;
  out.checksum = it->second.checksum;
  out.uncompressed_size = it->second.uncompressed_size;
  out.compressed = it->second.compressed_payload;
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

LogCache::Stats LogCache::stats() const {
  Stats s;
  s.hits = hits_->value();
  s.misses = misses_->value();
  s.evictions = evictions_->value();
  s.compressed_bytes =
      (uint64_t)std::max<int64_t>(0, compressed_bytes_->value());
  s.uncompressed_bytes =
      (uint64_t)std::max<int64_t>(0, uncompressed_bytes_->value());
  return s;
}

}  // namespace myraft::raft

// The log abstraction layer (§3.1): kuduraft-style Raft is generic over
// its log storage; the MySQL server specialises this interface onto binlog
// files so "kuduraft [can] read and write transactions from binary logs
// without having to worry about its format". An in-memory implementation
// is provided for unit tests.

#ifndef MYRAFT_RAFT_LOG_ABSTRACTION_H_
#define MYRAFT_RAFT_LOG_ABSTRACTION_H_

#include <map>
#include <vector>

#include "util/result.h"
#include "wire/log_entry.h"

namespace myraft::raft {

class LogAbstraction {
 public:
  virtual ~LogAbstraction() = default;

  /// Appends one entry; indexes must be contiguous.
  virtual Status Append(const LogEntry& entry) = 0;
  /// Durability point (maps to binlog fsync in the flush stage).
  virtual Status Sync() = 0;
  virtual Result<LogEntry> Read(uint64_t index) const = 0;
  /// Reads consecutive entries starting at `first_index`, bounded by both
  /// limits. Used by the leader to serve followers that have fallen behind
  /// the in-memory cache (it parses historical files on disk).
  virtual Result<std::vector<LogEntry>> ReadBatch(uint64_t first_index,
                                                  size_t max_entries,
                                                  uint64_t max_bytes) const = 0;
  virtual Result<OpId> OpIdAt(uint64_t index) const = 0;
  virtual OpId LastOpId() const = 0;
  virtual uint64_t FirstIndex() const = 0;
  virtual bool HasEntry(uint64_t index) const = 0;
  /// Removes entries with index > `index` (conflict resolution on
  /// followers, demotion truncation on erstwhile leaders). Implementations
  /// owning GTID metadata clean it up internally.
  virtual Status TruncateAfter(uint64_t index) = 0;
};

/// Test/witness log kept purely in memory.
class MemLog final : public LogAbstraction {
 public:
  Status Append(const LogEntry& entry) override;
  Status Sync() override { return Status::OK(); }
  Result<LogEntry> Read(uint64_t index) const override;
  Result<std::vector<LogEntry>> ReadBatch(uint64_t first_index,
                                          size_t max_entries,
                                          uint64_t max_bytes) const override;
  Result<OpId> OpIdAt(uint64_t index) const override;
  OpId LastOpId() const override;
  uint64_t FirstIndex() const override;
  bool HasEntry(uint64_t index) const override {
    return entries_.count(index) > 0;
  }
  Status TruncateAfter(uint64_t index) override;

 private:
  std::map<uint64_t, LogEntry> entries_;
};

}  // namespace myraft::raft

#endif  // MYRAFT_RAFT_LOG_ABSTRACTION_H_

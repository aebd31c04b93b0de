// Raft's log abstraction specialised onto MySQL binary logs (§3.1): "we
// enhanced kuduraft to have a log abstraction layer, and then specialized
// this abstraction for MySQL in the plugin." GTID metadata cleanup on
// truncation happens inside BinlogManager; the GTIDs removed are surfaced
// through a callback so the server can update any additional bookkeeping
// (§3.3 demotion step 4).

#ifndef MYRAFT_SERVER_BINLOG_LOG_ADAPTER_H_
#define MYRAFT_SERVER_BINLOG_LOG_ADAPTER_H_

#include <functional>

#include "binlog/binlog_manager.h"
#include "raft/log_abstraction.h"

namespace myraft::server {

class BinlogLogAdapter final : public raft::LogAbstraction {
 public:
  using GtidsTruncatedFn = std::function<void(const binlog::GtidSet&)>;

  BinlogLogAdapter(binlog::BinlogManager* manager,
                   GtidsTruncatedFn gtids_truncated)
      : manager_(manager), gtids_truncated_(std::move(gtids_truncated)) {}

  Status Append(const LogEntry& entry) override {
    return manager_->AppendEntry(entry);
  }
  Status Sync() override { return manager_->Sync(); }
  Result<LogEntry> Read(uint64_t index) const override {
    return manager_->ReadEntry(index);
  }
  Result<std::vector<LogEntry>> ReadBatch(uint64_t first_index,
                                          size_t max_entries,
                                          uint64_t max_bytes) const override {
    return manager_->ReadEntries(first_index, max_entries, max_bytes);
  }
  Result<OpId> OpIdAt(uint64_t index) const override {
    return manager_->OpIdAt(index);
  }
  OpId LastOpId() const override { return manager_->LastOpId(); }
  uint64_t FirstIndex() const override { return manager_->FirstIndex(); }
  bool HasEntry(uint64_t index) const override {
    return manager_->HasEntry(index);
  }
  Status TruncateAfter(uint64_t index) override {
    auto removed = manager_->TruncateAfter(index);
    if (!removed.ok()) return removed.status();
    if (!removed->IsEmpty()) gtids_truncated_(*removed);
    return Status::OK();
  }

 private:
  binlog::BinlogManager* manager_;
  GtidsTruncatedFn gtids_truncated_;
};

}  // namespace myraft::server

#endif  // MYRAFT_SERVER_BINLOG_LOG_ADAPTER_H_

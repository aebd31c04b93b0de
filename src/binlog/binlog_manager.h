// BinlogManager: the MySQL replication log as a Raft-addressable entry
// store. It owns a directory of binlog/relay-log files plus their index
// file, maps Raft indexes to byte ranges, and implements:
//
//  * the Raft log-abstraction surface (§3.1): append / read-back (including
//    from historical files for lagging followers) / truncate;
//  * replicated rotation (§A.1): kRotate entries close the current file and
//    open the next, stamping the cumulative GTID set into the new header;
//  * purging (§A.1): PURGE LOGS TO, gated by the caller's watermarks;
//  * persona rewiring (§3.2): binlog <-> relay-log file naming, switched
//    during promotion/demotion without touching entry content;
//  * crash recovery: torn tails are trimmed to the last whole event group.

#ifndef MYRAFT_BINLOG_BINLOG_MANAGER_H_
#define MYRAFT_BINLOG_BINLOG_MANAGER_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "binlog/binlog_file.h"
#include "binlog/transaction.h"
#include "util/clock.h"
#include "util/env.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "wire/log_entry.h"

namespace myraft::binlog {

/// File-name prefixes for the two personas (§3.2).
inline constexpr char kBinlogPersona[] = "binlog";
inline constexpr char kRelayLogPersona[] = "relay-log";

struct BinlogManagerOptions {
  std::string dir;
  std::string persona = kBinlogPersona;
  uint32_t server_id = 0;
  Clock* clock = nullptr;  // required
  /// Destination for "binlog.*" metrics. Null means a private
  /// per-instance registry (unit-test isolation).
  metrics::MetricRegistry* metrics = nullptr;
  /// Optional trace journal; rotations emit "binlog.rotate" instants.
  trace::Tracer* tracer = nullptr;
};

struct LogFilePosition {
  std::string file;
  uint64_t offset = 0;
};

class BinlogManager {
 public:
  /// Opens (and recovers) the log in `options.dir`, creating the first
  /// file if the directory is empty.
  static Result<std::unique_ptr<BinlogManager>> Open(
      Env* env, BinlogManagerOptions options);

  BinlogManager(const BinlogManager&) = delete;
  BinlogManager& operator=(const BinlogManager&) = delete;

  // --- Raft log-abstraction surface ---------------------------------------

  /// Appends one replicated entry. Indexes must be contiguous. kRotate
  /// entries additionally rotate the file.
  Status AppendEntry(const LogEntry& entry);

  /// Durability point for the flush stage of the commit pipeline.
  Status Sync();

  Result<LogEntry> ReadEntry(uint64_t index) const;

  /// Reads up to `max_entries` / `max_bytes` consecutive entries starting
  /// at `first_index` (the leader uses this to re-ship historical entries
  /// that fell out of its in-memory cache).
  Result<std::vector<LogEntry>> ReadEntries(uint64_t first_index,
                                            size_t max_entries,
                                            uint64_t max_bytes) const;

  bool HasEntry(uint64_t index) const { return FindEntry(index) != nullptr; }
  Result<OpId> OpIdAt(uint64_t index) const;

  /// OpId of the last entry, or kZeroOpId when the log is empty.
  OpId LastOpId() const;
  /// Smallest / largest Raft index present (0,0 when empty).
  uint64_t FirstIndex() const;
  uint64_t LastIndex() const;

  /// Removes all entries with index > `index` (demotion step 4, §3.3).
  /// Returns the GTIDs of removed transactions so callers can erase them
  /// from GTID metadata.
  Result<GtidSet> TruncateAfter(uint64_t index);

  // --- Admin / MySQL command surface ---------------------------------------

  /// SHOW BINARY LOGS.
  std::vector<std::string> ListLogFiles() const;

  /// SHOW BINLOG EVENTS IN '<file>': one summary per event, in order.
  struct EventSummary {
    uint64_t offset = 0;
    EventType type = EventType::kFormatDescription;
    OpId opid;
    size_t size = 0;
    std::string info;  // type-specific detail (gtid, next file, ...)
  };
  Result<std::vector<EventSummary>> DescribeFile(
      const std::string& file) const;
  /// SHOW MASTER STATUS: current write file + offset.
  LogFilePosition CurrentPosition() const;
  /// Durable horizon of the current write file: the byte offset covered
  /// by the last fsync. Exact under a crash-fault-injection Env (the sim
  /// MemEnv); on envs that do not track a horizon it equals the current
  /// size. Everything past this offset is lost by a power-loss crash.
  LogFilePosition DurablePosition() const;
  Result<uint64_t> FileSize(const std::string& file) const;
  uint64_t TotalSizeBytes() const;

  /// PURGE LOGS TO '<file>': removes files strictly older than `file`.
  /// Caller is responsible for consulting Raft watermarks first (§A.1).
  Status PurgeLogsTo(const std::string& file);

  /// Smallest Raft index that would survive PurgeLogsTo(file).
  Result<uint64_t> FirstIndexOfFile(const std::string& file) const;

  /// Rewires the log to the other persona: subsequent files use the new
  /// prefix (promotion step 3 / demotion step 3, §3.3). Rotates
  /// immediately with an unreplicated infra rotate event.
  Status SwitchPersona(const std::string& persona);
  const std::string& persona() const { return options_.persona; }

  /// All GTIDs ever written to this log and not truncated. Purging does
  /// not remove them (mirrors MySQL's gtid_purged accounting), so rotated
  /// file headers always carry the complete preceding set.
  const GtidSet& gtids_in_log() const { return gtids_in_log_; }

 private:
  struct EntryPos {
    uint64_t term = 0;
    EntryType type = EntryType::kNoOp;
    uint64_t file_number = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
    /// CRC32C of the payload ReadEntry rebuilds, recorded at append (or
    /// computed by recovery) and checked on every read-back.
    uint32_t crc = 0;
  };

  struct FileInfo {
    std::string name;
    GtidSet previous_gtids;
  };

  BinlogManager(Env* env, BinlogManagerOptions options);

  std::string PathFor(const std::string& name) const;
  std::string MakeFileName(uint64_t number) const;
  static Result<uint64_t> FileNumberOf(const std::string& name);

  Status Recover();
  Status ScanFile(uint64_t number, const FileInfo& info, bool is_last);
  /// Recreates the tail file (torn/unreadable header) with a fresh header
  /// carrying the GTID history accumulated from earlier files.
  Status RebuildTornTailFile(uint64_t number);
  Status CreateFirstFile();
  /// Closes the current writer and opens file `next_number`.
  Status StartNewFile(uint64_t next_number);
  Status WriteIndexFile();
  Status AppendRotateAndStartNewFile(OpId opid);

  /// Position of the entry at `index`, or null if it is not in the log.
  const EntryPos* FindEntry(uint64_t index) const {
    if (index < first_index_ || index - first_index_ >= entries_.size()) {
      return nullptr;
    }
    return &entries_[index - first_index_];
  }
  /// Records the next contiguous entry (any index when the log is empty).
  void PushEntry(uint64_t index, const EntryPos& pos);

  Env* env_;
  BinlogManagerOptions options_;

  std::map<uint64_t, FileInfo> files_;       // by file number
  /// Dense position index: entries_[i] is raft index first_index_ + i.
  std::deque<EntryPos> entries_;
  uint64_t first_index_ = 0;
  std::unique_ptr<BinlogFileWriter> writer_; // current (last) file
  uint64_t current_file_number_ = 0;
  OpId last_opid_;
  GtidSet gtids_in_log_;

  std::unique_ptr<metrics::MetricRegistry> owned_metrics_;
  metrics::Counter* entries_appended_;
  metrics::Counter* bytes_written_;
  metrics::Counter* rotations_;
  metrics::Counter* purges_;
  metrics::Counter* purged_files_;
  metrics::Counter* syncs_;
};

}  // namespace myraft::binlog

#endif  // MYRAFT_BINLOG_BINLOG_MANAGER_H_

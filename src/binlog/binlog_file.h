// Single binlog/relay-log file I/O. Files start with a magic string, a
// FormatDescription event and a PreviousGtids event ("The previous-GTID-set
// of the last file is added to the header of the next file", §A.1), then
// carry the replicated event stream.

#ifndef MYRAFT_BINLOG_BINLOG_FILE_H_
#define MYRAFT_BINLOG_BINLOG_FILE_H_

#include <memory>
#include <string>

#include "binlog/binlog_event.h"
#include "util/env.h"

namespace myraft::binlog {

inline constexpr char kBinlogMagic[] = "MYRAFTLOG1";
inline constexpr size_t kBinlogMagicLen = sizeof(kBinlogMagic) - 1;
/// Server version every file's FormatDescription event carries.
inline constexpr char kServerVersion[] = "myraft-1.0";

/// Appends events to one log file.
class BinlogFileWriter {
 public:
  struct Options {
    std::string server_version = kServerVersion;
    uint32_t server_id = 0;
    uint64_t created_micros = 0;
    GtidSet previous_gtids;
  };

  /// Creates a fresh file with magic + header events.
  static Result<std::unique_ptr<BinlogFileWriter>> Create(
      Env* env, const std::string& path, const Options& options);

  /// Reopens an existing, already-validated file for append at `size`.
  static Result<std::unique_ptr<BinlogFileWriter>> OpenForAppend(
      Env* env, const std::string& path);

  /// Appends pre-encoded event bytes; returns the starting offset.
  Result<uint64_t> AppendRaw(const Slice& bytes);
  Result<uint64_t> AppendEvent(const BinlogEvent& event);

  Status Sync() { return file_->Sync(); }
  Status Close() { return file_->Close(); }

  uint64_t size() const { return file_->Size(); }
  const std::string& path() const { return path_; }

 private:
  BinlogFileWriter(std::string path, std::unique_ptr<WritableFile> file)
      : path_(std::move(path)), file_(std::move(file)) {}

  std::string path_;
  std::unique_ptr<WritableFile> file_;
};

/// Iterates events in one log file.
class BinlogFileReader {
 public:
  /// Opens and validates the magic header.
  static Result<std::unique_ptr<BinlogFileReader>> Open(
      Env* env, const std::string& path);

  /// Reads the next event. On success `*offset` receives the event's
  /// starting byte offset. Returns EndOfFile at a clean end, Corruption on
  /// a torn/garbled tail (offset() then points at the last good boundary).
  Result<BinlogEvent> Next(uint64_t* offset);

  /// Byte offset of the next unread position (== last good boundary after
  /// a clean read or EOF).
  uint64_t offset() const { return offset_; }

  /// Header events parsed during Open.
  const FormatDescriptionBody& format() const { return format_; }
  const GtidSet& previous_gtids() const { return previous_gtids_; }
  /// Offset of the first post-header event.
  uint64_t body_start() const { return body_start_; }
  /// The file's bytes in [offset, offset + length); both must lie within
  /// what Next has already consumed.
  Slice Bytes(uint64_t offset, uint64_t length) const {
    return Slice(contents_.data() + offset, length);
  }

 private:
  BinlogFileReader(std::string path, std::string contents)
      : path_(std::move(path)), contents_(std::move(contents)) {}

  Status ReadHeader();

  std::string path_;
  std::string contents_;
  uint64_t offset_ = 0;
  uint64_t body_start_ = 0;
  FormatDescriptionBody format_;
  GtidSet previous_gtids_;
};

}  // namespace myraft::binlog

#endif  // MYRAFT_BINLOG_BINLOG_FILE_H_

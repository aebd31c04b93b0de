#include "binlog/binlog_manager.h"

#include <algorithm>

#include "util/crc32c.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace myraft::binlog {

namespace {
constexpr char kIndexFileName[] = "log.index";
constexpr uint64_t kFirstFileNumber = 1;

uint32_t PayloadCrc(const Slice& payload) {
  return crc32c::Value(payload.data(), payload.size());
}
}  // namespace

BinlogManager::BinlogManager(Env* env, BinlogManagerOptions options)
    : env_(env), options_(std::move(options)) {
  metrics::MetricRegistry* registry = options_.metrics;
  if (registry == nullptr) {
    owned_metrics_ = std::make_unique<metrics::MetricRegistry>();
    registry = owned_metrics_.get();
  }
  entries_appended_ = registry->GetCounter("binlog.entries_appended");
  bytes_written_ = registry->GetCounter("binlog.bytes_written");
  rotations_ = registry->GetCounter("binlog.rotations");
  purges_ = registry->GetCounter("binlog.purges");
  purged_files_ = registry->GetCounter("binlog.purged_files");
  syncs_ = registry->GetCounter("binlog.syncs");
}

Result<std::unique_ptr<BinlogManager>> BinlogManager::Open(
    Env* env, BinlogManagerOptions options) {
  if (options.clock == nullptr) {
    return Status::InvalidArgument("binlog manager: clock is required");
  }
  MYRAFT_RETURN_NOT_OK(env->CreateDirIfMissing(options.dir));
  auto manager = std::unique_ptr<BinlogManager>(
      new BinlogManager(env, std::move(options)));
  MYRAFT_RETURN_NOT_OK(manager->Recover());
  return manager;
}

std::string BinlogManager::PathFor(const std::string& name) const {
  return options_.dir + "/" + name;
}

std::string BinlogManager::MakeFileName(uint64_t number) const {
  return StringPrintf("%s.%06llu", options_.persona.c_str(),
                      (unsigned long long)number);
}

Result<uint64_t> BinlogManager::FileNumberOf(const std::string& name) {
  const auto pos = name.rfind('.');
  if (pos == std::string::npos) {
    return Status::InvalidArgument("log file name without number: " + name);
  }
  uint64_t number;
  if (!ParseUint64(name.substr(pos + 1), &number) || number == 0) {
    return Status::InvalidArgument("bad log file number: " + name);
  }
  return number;
}

Status BinlogManager::Recover() {
  const std::string index_path = PathFor(kIndexFileName);
  if (!env_->FileExists(index_path)) {
    return CreateFirstFile();
  }

  auto index_contents = env_->ReadFileToString(index_path);
  if (!index_contents.ok()) return index_contents.status();
  std::vector<uint64_t> numbers;
  for (const std::string& line : SplitString(*index_contents, '\n')) {
    if (line.empty()) continue;
    uint64_t number;
    MYRAFT_ASSIGN_OR_RETURN(number, FileNumberOf(line));
    files_[number] = FileInfo{line, GtidSet()};
    numbers.push_back(number);
  }
  if (files_.empty()) return CreateFirstFile();
  if (!std::is_sorted(numbers.begin(), numbers.end())) {
    return Status::Corruption("log index out of order");
  }

  for (auto it = files_.begin(); it != files_.end(); ++it) {
    const bool is_last = std::next(it) == files_.end();
    if (is_last) {
      // Tolerate a torn header on the tail file (disks written before
      // headers were synced at creation, or any crash that zeroed the
      // newest file): every entry in it was unsynced and already lost, so
      // rebuilding an empty file with the accumulated GTID history is the
      // correct recovery, not a hard Corruption failure.
      auto probe = BinlogFileReader::Open(env_, PathFor(it->second.name));
      if (!probe.ok()) {
        MYRAFT_RETURN_NOT_OK_PREPEND(RebuildTornTailFile(it->first),
                                     "rebuilding " + it->second.name);
      }
    }
    MYRAFT_RETURN_NOT_OK_PREPEND(ScanFile(it->first, it->second, is_last),
                                 "recovering " + it->second.name);
    if (it == files_.begin()) {
      // The oldest file's PreviousGtids header carries the GTID history
      // of everything purged before it (§A.1) — without this, a reopen
      // after PURGE would forget purged GTIDs and stamp incomplete
      // headers into future files.
      gtids_in_log_.Union(it->second.previous_gtids);
    }
  }

  current_file_number_ = files_.rbegin()->first;
  auto writer = BinlogFileWriter::OpenForAppend(
      env_, PathFor(files_.rbegin()->second.name));
  if (!writer.ok()) return writer.status();
  writer_ = std::move(*writer);
  return Status::OK();
}

Status BinlogManager::ScanFile(uint64_t number, const FileInfo& info,
                               bool is_last) {
  auto reader_or = BinlogFileReader::Open(env_, PathFor(info.name));
  if (!reader_or.ok()) return reader_or.status();
  BinlogFileReader* reader = reader_or->get();
  files_[number].previous_gtids = reader->previous_gtids();

  // The current (possibly incomplete) transaction group and the offset
  // where it started; entries are only committed to the map once whole.
  TransactionGrammar group;
  uint64_t group_start = 0;
  OpId group_opid;
  Gtid group_gtid;

  auto record_entry = [&](uint64_t index, EntryPos pos,
                          const Gtid* gtid) -> Status {
    if (!entries_.empty() && index != LastIndex() + 1) {
      return Status::Corruption(
          StringPrintf("non-contiguous raft index %llu after %llu",
                       (unsigned long long)index,
                       (unsigned long long)LastIndex()));
    }
    PushEntry(index, pos);
    last_opid_ = OpId{pos.term, index};
    if (gtid != nullptr) gtids_in_log_.Add(*gtid);
    return Status::OK();
  };

  while (true) {
    uint64_t offset;
    auto event = reader->Next(&offset);
    if (event.status().IsEndOfFile()) break;
    if (!event.ok()) {
      if (!is_last) return event.status();
      // Torn tail: trim to the last whole event group.
      const uint64_t cut = group.open() ? group_start : reader->offset();
      MYRAFT_LOG(Warning) << "trimming torn tail of " << info.name << " at "
                          << cut << ": " << event.status();
      return env_->TruncateFile(PathFor(info.name), cut);
    }

    switch (event->type) {
      case EventType::kMetadata: {
        if (group.open()) {
          return Status::Corruption("Metadata inside transaction");
        }
        MetadataBody body;
        MYRAFT_ASSIGN_OR_RETURN(body, MetadataBody::Decode(event->body));
        EntryPos pos;
        pos.term = event->opid.term;
        pos.type = body.entry_type;
        pos.file_number = number;
        pos.offset = offset;
        pos.length = reader->offset() - offset;
        pos.crc = PayloadCrc(body.payload);
        MYRAFT_RETURN_NOT_OK(record_entry(event->opid.index, pos, nullptr));
        break;
      }
      case EventType::kRotate: {
        if (group.open()) {
          return Status::Corruption("Rotate inside transaction");
        }
        if (event->opid.index != 0) {
          EntryPos pos;
          pos.term = event->opid.term;
          pos.type = EntryType::kRotate;
          pos.file_number = number;
          pos.offset = offset;
          pos.length = reader->offset() - offset;
          pos.crc = PayloadCrc(Slice());
          MYRAFT_RETURN_NOT_OK(record_entry(event->opid.index, pos, nullptr));
        }
        break;
      }
      case EventType::kFormatDescription:
      case EventType::kPreviousGtids:
        return Status::Corruption("header event in file body");
      default: {  // an event of a transaction group
        if (!group.open()) {
          group.Reset();
          group_start = offset;
        }
        MYRAFT_RETURN_NOT_OK(group.Next(event->type, event->opid));
        if (event->type == EventType::kGtid) {
          group_opid = event->opid;
          GtidBody body;
          MYRAFT_ASSIGN_OR_RETURN(body, GtidBody::Decode(event->body));
          group_gtid = body.gtid;
        }
        if (group.complete()) {
          EntryPos pos;
          pos.term = group_opid.term;
          pos.type = EntryType::kTransaction;
          pos.file_number = number;
          pos.offset = group_start;
          pos.length = reader->offset() - group_start;
          pos.crc = PayloadCrc(reader->Bytes(group_start, pos.length));
          MYRAFT_RETURN_NOT_OK(
              record_entry(group_opid.index, pos, &group_gtid));
        }
        break;
      }
    }
  }

  if (group.open()) {
    if (!is_last) return Status::Corruption("truncated transaction mid-file");
    MYRAFT_LOG(Warning) << "trimming incomplete transaction group in "
                        << info.name << " at " << group_start;
    return env_->TruncateFile(PathFor(info.name), group_start);
  }
  return Status::OK();
}

Status BinlogManager::RebuildTornTailFile(uint64_t number) {
  FileInfo& info = files_[number];
  MYRAFT_LOG(Warning) << "torn header on tail log file " << info.name
                      << ": rebuilding with "
                      << gtids_in_log_.Count() << " preceding gtid(s)";
  // gtids_in_log_ holds everything recovered from earlier files at this
  // point — exactly the PreviousGtids set the file was created with.
  BinlogFileWriter::Options file_options;
  file_options.server_id = options_.server_id;
  file_options.created_micros = options_.clock->NowMicros();
  file_options.previous_gtids = gtids_in_log_;
  auto writer =
      BinlogFileWriter::Create(env_, PathFor(info.name), file_options);
  if (!writer.ok()) return writer.status();
  MYRAFT_RETURN_NOT_OK((*writer)->Close());
  info.previous_gtids = gtids_in_log_;
  return Status::OK();
}

Status BinlogManager::CreateFirstFile() {
  const std::string name = MakeFileName(kFirstFileNumber);
  BinlogFileWriter::Options file_options;
  file_options.server_id = options_.server_id;
  file_options.created_micros = options_.clock->NowMicros();
  file_options.previous_gtids = gtids_in_log_;
  auto writer = BinlogFileWriter::Create(env_, PathFor(name), file_options);
  if (!writer.ok()) return writer.status();
  writer_ = std::move(*writer);
  files_[kFirstFileNumber] = FileInfo{name, gtids_in_log_};
  current_file_number_ = kFirstFileNumber;
  return WriteIndexFile();
}

Status BinlogManager::StartNewFile(uint64_t next_number) {
  if (writer_ != nullptr) {
    MYRAFT_RETURN_NOT_OK(writer_->Sync());
    MYRAFT_RETURN_NOT_OK(writer_->Close());
  }
  const std::string name = MakeFileName(next_number);
  BinlogFileWriter::Options file_options;
  file_options.server_id = options_.server_id;
  file_options.created_micros = options_.clock->NowMicros();
  file_options.previous_gtids = gtids_in_log_;
  auto writer = BinlogFileWriter::Create(env_, PathFor(name), file_options);
  if (!writer.ok()) return writer.status();
  writer_ = std::move(*writer);
  files_[next_number] = FileInfo{name, gtids_in_log_};
  current_file_number_ = next_number;
  return WriteIndexFile();
}

Status BinlogManager::WriteIndexFile() {
  std::string contents;
  for (const auto& [number, info] : files_) {
    contents += info.name;
    contents += '\n';
  }
  const std::string tmp = PathFor(std::string(kIndexFileName) + ".tmp");
  MYRAFT_RETURN_NOT_OK(env_->WriteStringToFile(contents, tmp, /*sync=*/true));
  return env_->RenameFile(tmp, PathFor(kIndexFileName));
}

Status BinlogManager::AppendRotateAndStartNewFile(OpId opid) {
  const uint64_t next_number = current_file_number_ + 1;
  RotateBody body;
  body.next_file = MakeFileName(next_number);
  body.position = 0;
  const BinlogEvent event =
      MakeEvent(EventType::kRotate, options_.clock->NowMicros(),
                options_.server_id, opid, body.Encode());
  auto offset = writer_->AppendEvent(event);
  if (!offset.ok()) return offset.status();
  if (options_.tracer != nullptr) {
    options_.tracer->Instant("binlog", "rotate", 0, "next", body.next_file,
                             "opid", opid);
  }
  rotations_->Increment();
  bytes_written_->Increment(event.EncodedSize());
  if (opid.index != 0) {
    entries_appended_->Increment();
    EntryPos pos;
    pos.term = opid.term;
    pos.type = EntryType::kRotate;
    pos.file_number = current_file_number_;
    pos.offset = *offset;
    pos.length = event.EncodedSize();
    pos.crc = PayloadCrc(Slice());
    PushEntry(opid.index, pos);
    last_opid_ = opid;
  }
  return StartNewFile(next_number);
}

void BinlogManager::PushEntry(uint64_t index, const EntryPos& pos) {
  if (entries_.empty()) first_index_ = index;
  entries_.push_back(pos);
}

Status BinlogManager::AppendEntry(const LogEntry& entry) {
  if (entry.id.index == 0) {
    return Status::InvalidArgument("entry index must be > 0");
  }
  if (!entries_.empty()) {
    const uint64_t expected = LastIndex() + 1;
    if (entry.id.index != expected) {
      return Status::IllegalState(
          StringPrintf("append at index %llu, expected %llu",
                       (unsigned long long)entry.id.index,
                       (unsigned long long)expected));
    }
    if (entry.id.term < last_opid_.term) {
      return Status::IllegalState("append with decreasing term");
    }
  }
  if (!entry.VerifyChecksum()) {
    return Status::Corruption("entry checksum mismatch at append");
  }

  switch (entry.type) {
    case EntryType::kTransaction: {
      // The one parse of this transaction: ReadEntry trusts the CRC.
      Gtid gtid;
      MYRAFT_ASSIGN_OR_RETURN(
          gtid, ValidateTransactionPayload(entry.payload, entry.id));

      auto offset = writer_->AppendRaw(entry.payload);
      if (!offset.ok()) return offset.status();
      entries_appended_->Increment();
      bytes_written_->Increment(entry.payload.size());
      EntryPos pos;
      pos.term = entry.id.term;
      pos.type = EntryType::kTransaction;
      pos.file_number = current_file_number_;
      pos.offset = *offset;
      pos.length = entry.payload.size();
      pos.crc = entry.checksum;
      PushEntry(entry.id.index, pos);
      last_opid_ = entry.id;
      gtids_in_log_.Add(gtid);
      return Status::OK();
    }
    case EntryType::kNoOp: {
      MetadataBody body;
      body.entry_type = entry.type;
      body.payload = entry.payload;
      const BinlogEvent event =
          MakeEvent(EventType::kMetadata, options_.clock->NowMicros(),
                    options_.server_id, entry.id, body.Encode());
      auto offset = writer_->AppendEvent(event);
      if (!offset.ok()) return offset.status();
      entries_appended_->Increment();
      bytes_written_->Increment(event.EncodedSize());
      EntryPos pos;
      pos.term = entry.id.term;
      pos.type = entry.type;
      pos.file_number = current_file_number_;
      pos.offset = *offset;
      pos.length = event.EncodedSize();
      pos.crc = entry.checksum;
      PushEntry(entry.id.index, pos);
      last_opid_ = entry.id;
      return Status::OK();
    }
    case EntryType::kRotate:
      return AppendRotateAndStartNewFile(entry.id);
  }
  return Status::InvalidArgument("unknown entry type");
}

Status BinlogManager::Sync() {
  syncs_->Increment();
  return writer_->Sync();
}

Result<LogEntry> BinlogManager::ReadEntry(uint64_t index) const {
  const EntryPos* pos = FindEntry(index);
  if (pos == nullptr) {
    return Status::NotFound(StringPrintf("no entry at index %llu",
                                         (unsigned long long)index));
  }
  const auto file_it = files_.find(pos->file_number);
  if (file_it == files_.end()) {
    return Status::IllegalState("entry in purged file");
  }
  auto file = env_->NewRandomAccessFile(PathFor(file_it->second.name));
  if (!file.ok()) return file.status();
  // Read straight into the string a transaction entry takes as payload.
  std::string bytes(pos->length, '\0');
  Slice raw;
  MYRAFT_RETURN_NOT_OK(
      (*file)->Read(pos->offset, pos->length, &raw, bytes.data()));
  if (raw.size() != pos->length) {
    return Status::Corruption("short read of log entry");
  }
  // A file may hand back its own buffer instead of filling the scratch.
  if (raw.data() != bytes.data()) bytes.assign(raw.data(), raw.size());

  const OpId opid{pos->term, index};
  LogEntry entry;
  switch (pos->type) {
    case EntryType::kTransaction:
      entry = LogEntry::Make(opid, EntryType::kTransaction, std::move(bytes));
      break;
    case EntryType::kNoOp: {
      Slice in = raw;
      auto event = BinlogEvent::DecodeFrom(&in);
      if (!event.ok()) return event.status();
      MetadataBody body;
      MYRAFT_ASSIGN_OR_RETURN(body, MetadataBody::Decode(event->body));
      entry = LogEntry::Make(opid, pos->type, std::move(body.payload));
      break;
    }
    case EntryType::kRotate:
      entry = LogEntry::Make(opid, EntryType::kRotate, "");
      break;
    default:
      return Status::IllegalState("unknown entry type in position map");
  }
  // A transaction was validated once, at append; from then on its bytes
  // only have to match the CRC recorded with its position.
  if (entry.checksum != pos->crc) {
    return Status::Corruption(StringPrintf(
        "log entry %llu failed checksum", (unsigned long long)index));
  }
  return entry;
}

Result<std::vector<LogEntry>> BinlogManager::ReadEntries(
    uint64_t first_index, size_t max_entries, uint64_t max_bytes) const {
  std::vector<LogEntry> out;
  uint64_t bytes = 0;
  for (uint64_t index = first_index;
       out.size() < max_entries && HasEntry(index); ++index) {
    auto entry = ReadEntry(index);
    if (!entry.ok()) return entry.status();
    bytes += entry->payload.size();
    out.push_back(std::move(*entry));
    if (bytes >= max_bytes && !out.empty()) break;
  }
  if (out.empty() && !HasEntry(first_index)) {
    return Status::NotFound(StringPrintf("no entry at index %llu",
                                         (unsigned long long)first_index));
  }
  return out;
}

Result<OpId> BinlogManager::OpIdAt(uint64_t index) const {
  const EntryPos* pos = FindEntry(index);
  if (pos == nullptr) return Status::NotFound("no entry");
  return OpId{pos->term, index};
}

OpId BinlogManager::LastOpId() const { return last_opid_; }

uint64_t BinlogManager::FirstIndex() const {
  return entries_.empty() ? 0 : first_index_;
}

uint64_t BinlogManager::LastIndex() const {
  return entries_.empty() ? 0 : first_index_ + entries_.size() - 1;
}

Result<GtidSet> BinlogManager::TruncateAfter(uint64_t index) {
  GtidSet removed;
  if (entries_.empty() || index >= LastIndex()) return removed;
  if (index + 1 < first_index_) {
    return Status::IllegalState("cannot truncate into purged prefix");
  }

  const auto first_removed = entries_.begin() + (index + 1 - first_index_);

  // Collect GTIDs of removed transactions before dropping the bytes.
  for (auto it = first_removed; it != entries_.end(); ++it) {
    if (it->type != EntryType::kTransaction) continue;
    auto entry = ReadEntry(first_index_ + (it - entries_.begin()));
    if (!entry.ok()) return entry.status();
    Slice in(entry->payload);
    auto gtid_event = BinlogEvent::DecodeFrom(&in);
    if (!gtid_event.ok()) return gtid_event.status();
    GtidBody body;
    MYRAFT_ASSIGN_OR_RETURN(body, GtidBody::Decode(gtid_event->body));
    removed.Add(body.gtid);
  }

  const uint64_t cut_file = first_removed->file_number;
  const uint64_t cut_offset = first_removed->offset;

  // Close the writer before mutating files underneath it.
  MYRAFT_RETURN_NOT_OK(writer_->Close());
  writer_ = nullptr;

  MYRAFT_RETURN_NOT_OK(
      env_->TruncateFile(PathFor(files_[cut_file].name), cut_offset));
  for (auto it = files_.upper_bound(cut_file); it != files_.end();) {
    MYRAFT_RETURN_NOT_OK(env_->RemoveFile(PathFor(it->second.name)));
    it = files_.erase(it);
  }
  entries_.erase(first_removed, entries_.end());
  MYRAFT_RETURN_NOT_OK(WriteIndexFile());

  gtids_in_log_.Subtract(removed);
  last_opid_ =
      entries_.empty() ? kZeroOpId : OpId{entries_.back().term, LastIndex()};

  current_file_number_ = cut_file;
  auto writer =
      BinlogFileWriter::OpenForAppend(env_, PathFor(files_[cut_file].name));
  if (!writer.ok()) return writer.status();
  writer_ = std::move(*writer);
  return removed;
}

Result<std::vector<BinlogManager::EventSummary>> BinlogManager::DescribeFile(
    const std::string& file) const {
  uint64_t number;
  MYRAFT_ASSIGN_OR_RETURN(number, FileNumberOf(file));
  if (files_.count(number) == 0) {
    return Status::NotFound("no such log file: " + file);
  }
  auto reader = BinlogFileReader::Open(env_, PathFor(file));
  if (!reader.ok()) return reader.status();

  std::vector<EventSummary> out;
  // Header events first (consumed by Open).
  EventSummary format;
  format.offset = kBinlogMagicLen;
  format.type = EventType::kFormatDescription;
  format.info = (*reader)->format().server_version;
  out.push_back(format);
  EventSummary gtids;
  gtids.type = EventType::kPreviousGtids;
  gtids.info = (*reader)->previous_gtids().ToString();
  out.push_back(gtids);

  while (true) {
    uint64_t offset;
    auto event = (*reader)->Next(&offset);
    if (event.status().IsEndOfFile()) break;
    if (!event.ok()) return event.status();
    EventSummary summary;
    summary.offset = offset;
    summary.type = event->type;
    summary.opid = event->opid;
    summary.size = event->EncodedSize();
    switch (event->type) {
      case EventType::kGtid: {
        auto body = GtidBody::Decode(event->body);
        if (body.ok()) summary.info = body->gtid.ToString();
        break;
      }
      case EventType::kRotate: {
        auto body = RotateBody::Decode(event->body);
        if (body.ok()) summary.info = "next=" + body->next_file;
        break;
      }
      case EventType::kTableMap: {
        auto body = TableMapBody::Decode(event->body);
        if (body.ok()) summary.info = body->database + "." + body->table;
        break;
      }
      case EventType::kMetadata: {
        auto body = MetadataBody::Decode(event->body);
        if (body.ok()) {
          summary.info = std::string(EntryTypeToString(body->entry_type));
        }
        break;
      }
      default:
        break;
    }
    out.push_back(std::move(summary));
  }
  return out;
}

std::vector<std::string> BinlogManager::ListLogFiles() const {
  std::vector<std::string> out;
  for (const auto& [number, info] : files_) out.push_back(info.name);
  return out;
}

LogFilePosition BinlogManager::CurrentPosition() const {
  return LogFilePosition{files_.at(current_file_number_).name,
                         writer_->size()};
}

LogFilePosition BinlogManager::DurablePosition() const {
  const std::string& name = files_.at(current_file_number_).name;
  CrashFaultInjectionEnv* fault_env = GetCrashFaultInjectionEnv(env_);
  if (fault_env != nullptr) {
    return LogFilePosition{name, fault_env->SyncedSize(PathFor(name))};
  }
  return LogFilePosition{name, writer_->size()};
}

Result<uint64_t> BinlogManager::FileSize(const std::string& file) const {
  return env_->GetFileSize(PathFor(file));
}

uint64_t BinlogManager::TotalSizeBytes() const {
  uint64_t total = 0;
  for (const auto& [number, info] : files_) {
    auto size = env_->GetFileSize(PathFor(info.name));
    if (size.ok()) total += *size;
  }
  return total;
}

Status BinlogManager::PurgeLogsTo(const std::string& file) {
  uint64_t keep_number;
  MYRAFT_ASSIGN_OR_RETURN(keep_number, FileNumberOf(file));
  if (files_.count(keep_number) == 0) {
    return Status::NotFound("no such log file: " + file);
  }
  purges_->Increment();
  for (auto it = files_.begin(); it != files_.end() && it->first < keep_number;) {
    MYRAFT_RETURN_NOT_OK(env_->RemoveFile(PathFor(it->second.name)));
    it = files_.erase(it);
    purged_files_->Increment();
  }
  // Index order is file order: the purged entries are a prefix.
  while (!entries_.empty() && entries_.front().file_number < keep_number) {
    entries_.pop_front();
    ++first_index_;
  }
  return WriteIndexFile();
}

Result<uint64_t> BinlogManager::FirstIndexOfFile(
    const std::string& file) const {
  uint64_t number;
  MYRAFT_ASSIGN_OR_RETURN(number, FileNumberOf(file));
  if (files_.count(number) == 0) {
    return Status::NotFound("no such log file: " + file);
  }
  const auto first = std::partition_point(
      entries_.begin(), entries_.end(),
      [number](const EntryPos& pos) { return pos.file_number < number; });
  if (first == entries_.end()) return LastIndex() + 1;
  return first_index_ + (first - entries_.begin());
}

Status BinlogManager::SwitchPersona(const std::string& persona) {
  if (persona == options_.persona) return Status::OK();
  options_.persona = persona;
  // Unreplicated infra rotate (OpId zero): entry content across the ring
  // stays identical, only local file naming changes.
  return AppendRotateAndStartNewFile(kZeroOpId);
}

}  // namespace myraft::binlog

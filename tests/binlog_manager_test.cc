// BinlogManager: append/read-back, rotation, purge, truncation, persona
// rewiring and crash recovery (torn tails).

#include "binlog/binlog_manager.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace myraft::binlog {
namespace {

Uuid U(uint64_t i) { return Uuid::FromIndex(i); }

class BinlogManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    options_.dir = "/log";
    options_.persona = kBinlogPersona;
    options_.server_id = 7;
    options_.clock = &clock_;
    Reopen();
  }

  void Reopen() {
    manager_.reset();
    auto m = BinlogManager::Open(env_.get(), options_);
    ASSERT_TRUE(m.ok()) << m.status();
    manager_ = std::move(*m);
  }

  /// Builds a transaction entry with one insert.
  LogEntry Txn(OpId opid, uint64_t txn_no, const std::string& value = "v") {
    TransactionPayloadBuilder builder;
    RowOperation op;
    op.kind = RowOperation::Kind::kInsert;
    op.database = "db";
    op.table = "kv";
    op.column_count = 2;
    op.after_image = "k=" + value;
    builder.AddOperation(std::move(op));
    const std::string payload = builder.Finalize(
        Gtid{U(1), txn_no}, opid, txn_no, clock_.NowMicros(), 7);
    return LogEntry::Make(opid, EntryType::kTransaction, payload);
  }

  LogEntry NoOp(OpId opid) {
    return LogEntry::Make(opid, EntryType::kNoOp, "");
  }

  LogEntry Rotate(OpId opid) {
    return LogEntry::Make(opid, EntryType::kRotate, "");
  }

  ManualClock clock_;
  std::unique_ptr<Env> env_;
  BinlogManagerOptions options_;
  std::unique_ptr<BinlogManager> manager_;
};

TEST_F(BinlogManagerTest, StartsEmpty) {
  EXPECT_EQ(manager_->LastOpId(), kZeroOpId);
  EXPECT_EQ(manager_->FirstIndex(), 0u);
  EXPECT_EQ(manager_->LastIndex(), 0u);
  EXPECT_EQ(manager_->ListLogFiles(),
            std::vector<std::string>{"binlog.000001"});
  EXPECT_FALSE(manager_->ReadEntry(1).ok());
}

TEST_F(BinlogManagerTest, AppendAndReadBackMixedEntries) {
  ASSERT_TRUE(manager_->AppendEntry(NoOp({1, 1})).ok());
  const LogEntry txn = Txn({1, 2}, 1);
  ASSERT_TRUE(manager_->AppendEntry(txn).ok());
  ASSERT_TRUE(manager_->AppendEntry(NoOp({2, 3})).ok());

  EXPECT_EQ(manager_->LastOpId(), (OpId{2, 3}));
  EXPECT_EQ(manager_->FirstIndex(), 1u);

  auto read_noop = manager_->ReadEntry(1);
  ASSERT_TRUE(read_noop.ok());
  EXPECT_EQ(read_noop->type, EntryType::kNoOp);
  EXPECT_EQ(read_noop->id, (OpId{1, 1}));

  auto read_txn = manager_->ReadEntry(2);
  ASSERT_TRUE(read_txn.ok());
  EXPECT_EQ(*read_txn, txn);  // byte-identical payload
  EXPECT_TRUE(manager_->gtids_in_log().Contains({U(1), 1}));
}

TEST_F(BinlogManagerTest, AppendEnforcesContiguityAndTerms) {
  ASSERT_TRUE(manager_->AppendEntry(NoOp({1, 1})).ok());
  EXPECT_FALSE(manager_->AppendEntry(NoOp({1, 3})).ok());  // gap
  EXPECT_FALSE(manager_->AppendEntry(NoOp({1, 1})).ok());  // duplicate
  EXPECT_FALSE(manager_->AppendEntry(NoOp({0, 2})).ok());  // term regress
  EXPECT_TRUE(manager_->AppendEntry(NoOp({1, 2})).ok());
}

TEST_F(BinlogManagerTest, AppendRejectsMalformedTransaction) {
  LogEntry bogus = LogEntry::Make({1, 1}, EntryType::kTransaction, "not events");
  EXPECT_FALSE(manager_->AppendEntry(bogus).ok());
  // Payload stamped with a different OpId than the entry.
  LogEntry mismatched = Txn({1, 1}, 1);
  mismatched.id = {1, 2};
  // Fails contiguity? index 2 on empty log is allowed as a first entry, so
  // this exercises the OpId-stamp check.
  EXPECT_FALSE(manager_->AppendEntry(mismatched).ok());
}

TEST_F(BinlogManagerTest, AppendRefusesGroupThatRecoveryWouldReject) {
  // [Gtid, Gtid, Xid]: every event is whole and carries the entry's OpId,
  // but it is no transaction group. Append must refuse it, or the member
  // cannot reopen its own log.
  const OpId opid{1, 1};
  const std::string gtid = GtidBody{Gtid{U(1), 1}}.Encode();
  std::string payload;
  MakeEvent(EventType::kGtid, 0, 7, opid, gtid).EncodeTo(&payload);
  MakeEvent(EventType::kGtid, 0, 7, opid, gtid).EncodeTo(&payload);
  MakeEvent(EventType::kXid, 0, 7, opid, XidBody{1}.Encode())
      .EncodeTo(&payload);
  EXPECT_TRUE(
      manager_
          ->AppendEntry(LogEntry::Make(opid, EntryType::kTransaction, payload))
          .IsCorruption());
  EXPECT_FALSE(ParseTransactionPayload(payload).ok());

  ASSERT_TRUE(manager_->AppendEntry(Txn(opid, 1)).ok());
  Reopen();
  EXPECT_EQ(manager_->LastOpId(), opid);
}

TEST_F(BinlogManagerTest, ReadEntriesHonoursLimits) {
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(manager_->AppendEntry(Txn({1, i}, i)).ok());
  }
  auto batch = manager_->ReadEntries(3, 4, UINT64_MAX);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 4u);
  EXPECT_EQ((*batch)[0].id.index, 3u);
  EXPECT_EQ((*batch)[3].id.index, 6u);

  // Byte budget cuts the batch short (each txn payload is ~200 bytes).
  auto small = manager_->ReadEntries(1, 100, 1);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->size(), 1u);

  EXPECT_FALSE(manager_->ReadEntries(99, 10, UINT64_MAX).ok());
}

TEST_F(BinlogManagerTest, ReplicatedRotationCreatesNewFile) {
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 1}, 1)).ok());
  ASSERT_TRUE(manager_->AppendEntry(Rotate({1, 2})).ok());
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 3}, 2)).ok());

  const auto files = manager_->ListLogFiles();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[1], "binlog.000002");
  EXPECT_EQ(manager_->CurrentPosition().file, "binlog.000002");

  // The rotate entry itself reads back.
  auto rot = manager_->ReadEntry(2);
  ASSERT_TRUE(rot.ok());
  EXPECT_EQ(rot->type, EntryType::kRotate);

  // New file's header carries the GTIDs of the previous file.
  auto first_of_second = manager_->FirstIndexOfFile("binlog.000002");
  ASSERT_TRUE(first_of_second.ok());
  EXPECT_EQ(*first_of_second, 3u);
}

TEST_F(BinlogManagerTest, PurgeLogsToRemovesOldFiles) {
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 1}, 1)).ok());
  ASSERT_TRUE(manager_->AppendEntry(Rotate({1, 2})).ok());
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 3}, 2)).ok());
  ASSERT_TRUE(manager_->AppendEntry(Rotate({1, 4})).ok());
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 5}, 3)).ok());

  ASSERT_TRUE(manager_->PurgeLogsTo("binlog.000002").ok());
  EXPECT_EQ(manager_->ListLogFiles().size(), 2u);
  EXPECT_EQ(manager_->FirstIndex(), 3u);
  EXPECT_FALSE(manager_->ReadEntry(1).ok());
  EXPECT_TRUE(manager_->ReadEntry(3).ok());
  // GTID accounting survives purge (gtid_purged semantics).
  EXPECT_TRUE(manager_->gtids_in_log().Contains({U(1), 1}));

  EXPECT_FALSE(manager_->PurgeLogsTo("binlog.000009").ok());
}

TEST_F(BinlogManagerTest, TruncateAfterRemovesSuffixAndReportsGtids) {
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 1}, 1)).ok());
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 2}, 2)).ok());
  ASSERT_TRUE(manager_->AppendEntry(NoOp({1, 3})).ok());
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 4}, 3)).ok());

  auto removed = manager_->TruncateAfter(1);
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(removed->Count(), 2u);
  EXPECT_TRUE(removed->Contains({U(1), 2}));
  EXPECT_TRUE(removed->Contains({U(1), 3}));
  EXPECT_FALSE(removed->Contains({U(1), 1}));

  EXPECT_EQ(manager_->LastOpId(), (OpId{1, 1}));
  EXPECT_FALSE(manager_->ReadEntry(2).ok());
  EXPECT_FALSE(manager_->gtids_in_log().Contains({U(1), 2}));

  // The log keeps working after truncation.
  ASSERT_TRUE(manager_->AppendEntry(Txn({2, 2}, 2)).ok());
  auto reread = manager_->ReadEntry(2);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->id, (OpId{2, 2}));
}

TEST_F(BinlogManagerTest, TruncateAcrossFileBoundaryDropsFiles) {
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 1}, 1)).ok());
  ASSERT_TRUE(manager_->AppendEntry(Rotate({1, 2})).ok());
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 3}, 2)).ok());
  ASSERT_TRUE(manager_->AppendEntry(Rotate({1, 4})).ok());
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 5}, 3)).ok());
  ASSERT_EQ(manager_->ListLogFiles().size(), 3u);

  auto removed = manager_->TruncateAfter(1);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(manager_->ListLogFiles().size(), 1u);
  EXPECT_EQ(manager_->LastIndex(), 1u);
  EXPECT_EQ(manager_->CurrentPosition().file, "binlog.000001");
}

TEST_F(BinlogManagerTest, TruncateEverythingYieldsEmptyLog) {
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 1}, 1)).ok());
  auto removed = manager_->TruncateAfter(0);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(manager_->LastOpId(), kZeroOpId);
  EXPECT_EQ(manager_->FirstIndex(), 0u);
  ASSERT_TRUE(manager_->AppendEntry(Txn({3, 1}, 1)).ok());
  EXPECT_EQ(manager_->LastOpId(), (OpId{3, 1}));
}

TEST_F(BinlogManagerTest, SwitchPersonaRotatesWithNewPrefix) {
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 1}, 1)).ok());
  ASSERT_TRUE(manager_->SwitchPersona(kRelayLogPersona).ok());
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 2}, 2)).ok());

  const auto files = manager_->ListLogFiles();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "binlog.000001");
  EXPECT_EQ(files[1], "relay-log.000002");
  EXPECT_EQ(manager_->persona(), kRelayLogPersona);

  // Entries span personas seamlessly.
  EXPECT_TRUE(manager_->ReadEntry(1).ok());
  EXPECT_TRUE(manager_->ReadEntry(2).ok());
  // Switching to the current persona is a no-op.
  ASSERT_TRUE(manager_->SwitchPersona(kRelayLogPersona).ok());
  EXPECT_EQ(manager_->ListLogFiles().size(), 2u);
}

TEST_F(BinlogManagerTest, ReopenRecoversFullState) {
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 1}, 1)).ok());
  ASSERT_TRUE(manager_->AppendEntry(Rotate({1, 2})).ok());
  ASSERT_TRUE(manager_->AppendEntry(NoOp({2, 3})).ok());
  ASSERT_TRUE(manager_->AppendEntry(Txn({2, 4}, 2, "after-reopen")).ok());
  const LogEntry txn4 = *manager_->ReadEntry(4);
  ASSERT_TRUE(manager_->Sync().ok());

  Reopen();

  EXPECT_EQ(manager_->LastOpId(), (OpId{2, 4}));
  EXPECT_EQ(manager_->FirstIndex(), 1u);
  EXPECT_EQ(manager_->ListLogFiles().size(), 2u);
  EXPECT_TRUE(manager_->gtids_in_log().Contains({U(1), 2}));
  auto reread = manager_->ReadEntry(4);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(*reread, txn4);

  // Appends continue where the log left off.
  ASSERT_TRUE(manager_->AppendEntry(NoOp({2, 5})).ok());
  EXPECT_EQ(manager_->LastIndex(), 5u);
}

TEST_F(BinlogManagerTest, RecoveryTrimsTornEventTail) {
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 1}, 1)).ok());
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 2}, 2)).ok());
  ASSERT_TRUE(manager_->Sync().ok());

  // Simulate a crash mid-write: chop bytes off the current file.
  const auto position = manager_->CurrentPosition();
  manager_.reset();
  const std::string path = "/log/" + position.file;
  auto size = env_->GetFileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(env_->TruncateFile(path, *size - 7).ok());

  Reopen();
  // The torn second transaction is gone; the first survives.
  EXPECT_EQ(manager_->LastOpId(), (OpId{1, 1}));
  EXPECT_TRUE(manager_->ReadEntry(1).ok());
  EXPECT_FALSE(manager_->ReadEntry(2).ok());
  EXPECT_FALSE(manager_->gtids_in_log().Contains({U(1), 2}));

  // And the log accepts index 2 again.
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 2}, 2)).ok());
}

TEST_F(BinlogManagerTest, RecoveryTrimsHalfWrittenTransactionGroup) {
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 1}, 1)).ok());
  const uint64_t good_end = manager_->CurrentPosition().offset;
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 2}, 2)).ok());
  ASSERT_TRUE(manager_->Sync().ok());

  // Cut inside the second group but at an event boundary: keep its Gtid
  // event only. Find the boundary by scanning.
  const auto position = manager_->CurrentPosition();
  manager_.reset();
  const std::string path = "/log/" + position.file;
  auto reader = BinlogFileReader::Open(env_.get(), path);
  ASSERT_TRUE(reader.ok());
  uint64_t cut = 0;
  while (true) {
    uint64_t offset;
    auto event = (*reader)->Next(&offset);
    if (!event.ok()) break;
    if (offset >= good_end && event->type == EventType::kGtid) {
      cut = (*reader)->offset();  // just after the Gtid event
      break;
    }
  }
  ASSERT_GT(cut, 0u);
  ASSERT_TRUE(env_->TruncateFile(path, cut).ok());

  Reopen();
  EXPECT_EQ(manager_->LastOpId(), (OpId{1, 1}));
  // The dangling group start was trimmed, so appending works.
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 2}, 2)).ok());
  EXPECT_EQ(manager_->LastIndex(), 2u);
}

TEST_F(BinlogManagerTest, FirstEntryMayStartAboveOne) {
  // A freshly provisioned member that cloned a purged log starts at the
  // clone's first index.
  ASSERT_TRUE(manager_->AppendEntry(Txn({3, 100}, 50)).ok());
  EXPECT_EQ(manager_->FirstIndex(), 100u);
  EXPECT_EQ(manager_->LastOpId(), (OpId{3, 100}));
}

TEST_F(BinlogManagerTest, ReadEntriesSpansRotatedFiles) {
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 1}, 1)).ok());
  ASSERT_TRUE(manager_->AppendEntry(Rotate({1, 2})).ok());
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 3}, 2)).ok());
  ASSERT_TRUE(manager_->AppendEntry(Rotate({1, 4})).ok());
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 5}, 3)).ok());

  auto batch = manager_->ReadEntries(1, 100, UINT64_MAX);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*batch)[i].id.index, i + 1);
  }
  EXPECT_EQ((*batch)[1].type, EntryType::kRotate);
  EXPECT_EQ((*batch)[4].type, EntryType::kTransaction);
}

TEST_F(BinlogManagerTest, RecoveryFailsCleanlyOnMissingListedFile) {
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 1}, 1)).ok());
  ASSERT_TRUE(manager_->AppendEntry(Rotate({1, 2})).ok());
  manager_.reset();
  ASSERT_TRUE(env_->RemoveFile("/log/binlog.000001").ok());
  auto reopened = binlog::BinlogManager::Open(env_.get(), options_);
  EXPECT_FALSE(reopened.ok());  // surfaced, not silently skipped
}

TEST_F(BinlogManagerTest, RecoveryRejectsOutOfOrderIndex) {
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 1}, 1)).ok());
  ASSERT_TRUE(manager_->AppendEntry(Rotate({1, 2})).ok());
  manager_.reset();
  ASSERT_TRUE(env_->WriteStringToFile("binlog.000002\nbinlog.000001\n",
                                      "/log/log.index")
                  .ok());
  auto reopened = binlog::BinlogManager::Open(env_.get(), options_);
  EXPECT_TRUE(reopened.status().IsCorruption());
}

TEST_F(BinlogManagerTest, RecoveryRejectsGarbageIndexLine) {
  manager_.reset();
  ASSERT_TRUE(
      env_->WriteStringToFile("not-a-log-file\n", "/log/log.index").ok());
  auto reopened = binlog::BinlogManager::Open(env_.get(), options_);
  EXPECT_FALSE(reopened.ok());
}

TEST_F(BinlogManagerTest, ReadEntryChecksFlippedByteAgainstAppendCrc) {
  // ReadEntry no longer re-parses a transaction: the CRC recorded with the
  // position (by AppendEntry, or by recovery's scan) must catch a flipped
  // byte, both before and after a reopen.
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 1}, 1, "flip-me")).ok());
  ASSERT_TRUE(manager_->AppendEntry(Rotate({1, 2})).ok());  // close file 1
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 3}, 2)).ok());
  ASSERT_TRUE(manager_->Sync().ok());
  const std::string path = "/log/binlog.000001";
  auto pristine = env_->ReadFileToString(path);
  ASSERT_TRUE(pristine.ok());
  const size_t at = pristine->find("flip-me");
  ASSERT_NE(at, std::string::npos);
  std::string flipped = *pristine;
  flipped[at + 3] ^= 0x20;

  ASSERT_TRUE(manager_->ReadEntry(1).ok());
  ASSERT_TRUE(env_->WriteStringToFile(flipped, path).ok());
  EXPECT_TRUE(manager_->ReadEntry(1).status().IsCorruption());
  EXPECT_TRUE(manager_->ReadEntries(1, 10, UINT64_MAX).status().IsCorruption());
  EXPECT_TRUE(manager_->ReadEntry(3).ok());  // other files unaffected

  ASSERT_TRUE(env_->WriteStringToFile(*pristine, path).ok());
  Reopen();
  ASSERT_TRUE(manager_->ReadEntry(1).ok());
  ASSERT_TRUE(env_->WriteStringToFile(flipped, path).ok());
  EXPECT_TRUE(manager_->ReadEntry(1).status().IsCorruption());
  EXPECT_TRUE(manager_->ReadEntry(3).ok());
}

TEST_F(BinlogManagerTest, PositionIndexAcrossPurgeTruncateAndReopen) {
  // file 1: 1-2, file 2: 3-5, file 3: 6-7.
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 1}, 1)).ok());
  ASSERT_TRUE(manager_->AppendEntry(Rotate({1, 2})).ok());
  ASSERT_TRUE(manager_->AppendEntry(Txn({1, 3}, 2)).ok());
  ASSERT_TRUE(manager_->AppendEntry(NoOp({2, 4})).ok());
  ASSERT_TRUE(manager_->AppendEntry(Rotate({2, 5})).ok());
  ASSERT_TRUE(manager_->AppendEntry(Txn({2, 6}, 3)).ok());
  ASSERT_TRUE(manager_->AppendEntry(Txn({2, 7}, 4)).ok());

  auto expect_index = [&](uint64_t first, uint64_t last,
                          const std::vector<uint64_t>& terms) {
    ASSERT_EQ(manager_->FirstIndex(), first);
    ASSERT_EQ(manager_->LastIndex(), last);
    EXPECT_FALSE(manager_->HasEntry(first - 1));
    EXPECT_FALSE(manager_->HasEntry(last + 1));
    EXPECT_TRUE(manager_->OpIdAt(last + 1).status().IsNotFound());
    if (first > 1) {
      EXPECT_TRUE(manager_->OpIdAt(first - 1).status().IsNotFound());
    }
    for (uint64_t i = first; i <= last; ++i) {
      EXPECT_TRUE(manager_->HasEntry(i)) << i;
      auto opid = manager_->OpIdAt(i);
      ASSERT_TRUE(opid.ok()) << i;
      EXPECT_EQ(*opid, (OpId{terms[i - first], i}));
      auto entry = manager_->ReadEntry(i);
      ASSERT_TRUE(entry.ok()) << i << ": " << entry.status();
      EXPECT_EQ(entry->id, *opid);
    }
  };
  auto first_of = [&](const char* file) {
    auto first = manager_->FirstIndexOfFile(file);
    EXPECT_TRUE(first.ok()) << file;
    return first.ok() ? *first : 0;
  };

  expect_index(1, 7, {1, 1, 1, 2, 2, 2, 2});
  EXPECT_EQ(first_of("binlog.000001"), 1u);
  EXPECT_EQ(first_of("binlog.000002"), 3u);
  EXPECT_EQ(first_of("binlog.000003"), 6u);

  ASSERT_TRUE(manager_->PurgeLogsTo("binlog.000002").ok());
  expect_index(3, 7, {1, 2, 2, 2, 2});
  EXPECT_TRUE(manager_->FirstIndexOfFile("binlog.000001").status()
                  .IsNotFound());
  EXPECT_EQ(first_of("binlog.000002"), 3u);
  EXPECT_EQ(first_of("binlog.000003"), 6u);

  ASSERT_TRUE(manager_->TruncateAfter(6).ok());
  expect_index(3, 6, {1, 2, 2, 2});
  ASSERT_TRUE(manager_->AppendEntry(Txn({3, 7}, 4)).ok());
  expect_index(3, 7, {1, 2, 2, 2, 3});

  Reopen();
  expect_index(3, 7, {1, 2, 2, 2, 3});
  EXPECT_EQ(first_of("binlog.000002"), 3u);
  EXPECT_EQ(first_of("binlog.000003"), 6u);

  // Purge everything: rotate to an empty file 4 and purge up to it.
  ASSERT_TRUE(manager_->AppendEntry(Rotate({3, 8})).ok());
  EXPECT_EQ(first_of("binlog.000004"), 9u);
  ASSERT_TRUE(manager_->PurgeLogsTo("binlog.000004").ok());
  EXPECT_EQ(manager_->FirstIndex(), 0u);
  EXPECT_EQ(manager_->LastIndex(), 0u);
  for (uint64_t i = 0; i <= 9; ++i) {
    EXPECT_FALSE(manager_->HasEntry(i)) << i;
    EXPECT_FALSE(manager_->OpIdAt(i).ok()) << i;
  }
  // The next append re-anchors the index.
  ASSERT_TRUE(manager_->AppendEntry(Txn({3, 9}, 5)).ok());
  expect_index(9, 9, {3});
  EXPECT_EQ(first_of("binlog.000004"), 9u);
  Reopen();
  expect_index(9, 9, {3});
  ASSERT_TRUE(manager_->AppendEntry(NoOp({3, 10})).ok());
  expect_index(9, 10, {3, 3});
}

TEST_F(BinlogManagerTest, PosixEnvEndToEnd) {
  // Same flows against the real filesystem.
  char tmpl[] = "/tmp/myraft_binlog_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  BinlogManagerOptions options = options_;
  options.dir = tmpl;
  auto manager = BinlogManager::Open(GetPosixEnv(), options);
  ASSERT_TRUE(manager.ok()) << manager.status();
  ASSERT_TRUE((*manager)->AppendEntry(Txn({1, 1}, 1)).ok());
  ASSERT_TRUE((*manager)->AppendEntry(Rotate({1, 2})).ok());
  ASSERT_TRUE((*manager)->AppendEntry(Txn({1, 3}, 2)).ok());
  ASSERT_TRUE((*manager)->Sync().ok());
  auto entry = (*manager)->ReadEntry(3);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->id, (OpId{1, 3}));
  manager->reset();

  auto reopened = BinlogManager::Open(GetPosixEnv(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->LastOpId(), (OpId{1, 3}));
}

}  // namespace
}  // namespace myraft::binlog

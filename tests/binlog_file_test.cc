// Direct BinlogFileWriter/Reader tests (header handling, corruption) and
// the SHOW BINLOG EVENTS surface, plus decode-robustness fuzzing for every
// binary record decoder: malformed input must error, never crash.

#include <gtest/gtest.h>

#include "binlog/binlog_file.h"
#include "binlog/binlog_manager.h"
#include "binlog/transaction.h"
#include "raft/consensus_metadata.h"
#include "storage/engine.h"
#include "util/coding.h"
#include "util/random.h"
#include "wire/messages.h"

namespace myraft::binlog {
namespace {

TEST(BinlogFileTest, WriterEmitsValidatedHeader) {
  auto env = NewMemEnv();
  BinlogFileWriter::Options options;
  options.server_version = "myraft-test";
  options.server_id = 3;
  options.created_micros = 42;
  options.previous_gtids.AddRange(Uuid::FromIndex(1), 1, 9);
  auto writer = BinlogFileWriter::Create(env.get(), "/f", options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Close().ok());

  auto reader = BinlogFileReader::Open(env.get(), "/f");
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ((*reader)->format().server_version, "myraft-test");
  EXPECT_EQ((*reader)->format().created_micros, 42u);
  EXPECT_TRUE(
      (*reader)->previous_gtids().Contains({Uuid::FromIndex(1), 5}));
  // Clean EOF right after the header.
  uint64_t offset;
  EXPECT_TRUE((*reader)->Next(&offset).status().IsEndOfFile());
  EXPECT_EQ((*reader)->offset(), (*reader)->body_start());
}

TEST(BinlogFileTest, BadMagicRejected) {
  auto env = NewMemEnv();
  ASSERT_TRUE(env->WriteStringToFile("NOTABINLOG??????", "/bad").ok());
  EXPECT_TRUE(BinlogFileReader::Open(env.get(), "/bad")
                  .status()
                  .IsCorruption());
}

TEST(BinlogFileTest, MissingHeaderEventsRejected) {
  auto env = NewMemEnv();
  // Magic followed by a non-header event.
  std::string contents(kBinlogMagic, kBinlogMagicLen);
  MakeEvent(EventType::kBegin, 0, 0, {1, 1}, "BEGIN").EncodeTo(&contents);
  ASSERT_TRUE(env->WriteStringToFile(contents, "/f").ok());
  EXPECT_TRUE(
      BinlogFileReader::Open(env.get(), "/f").status().IsCorruption());
}

TEST(BinlogFileTest, ReaderStopsAtCorruptionBoundary) {
  auto env = NewMemEnv();
  BinlogFileWriter::Options options;
  auto writer = BinlogFileWriter::Create(env.get(), "/f", options);
  ASSERT_TRUE(writer.ok());
  const BinlogEvent good = MakeEvent(EventType::kBegin, 1, 2, {1, 1}, "ok");
  ASSERT_TRUE((*writer)->AppendEvent(good).ok());
  ASSERT_TRUE((*writer)->AppendRaw("garbage-tail-bytes").ok());
  ASSERT_TRUE((*writer)->Close().ok());

  auto reader = BinlogFileReader::Open(env.get(), "/f");
  ASSERT_TRUE(reader.ok());
  uint64_t offset;
  auto first = (*reader)->Next(&offset);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, good);
  const uint64_t boundary = (*reader)->offset();
  auto second = (*reader)->Next(&offset);
  EXPECT_TRUE(second.status().IsCorruption());
  // offset() stays at the last good boundary for tail trimming.
  EXPECT_EQ((*reader)->offset(), boundary);
}

TEST(BinlogFileTest, ShowBinlogEventsDescribesStream) {
  auto env = NewMemEnv();
  ManualClock clock;
  BinlogManagerOptions options;
  options.dir = "/log";
  options.clock = &clock;
  auto manager = BinlogManager::Open(env.get(), options);
  ASSERT_TRUE(manager.ok());

  TransactionPayloadBuilder builder;
  RowOperation op;
  op.kind = RowOperation::Kind::kInsert;
  op.database = "db";
  op.table = "users";
  op.after_image = "k=v";
  builder.AddOperation(op);
  const Gtid gtid{Uuid::FromIndex(2), 7};
  ASSERT_TRUE((*manager)
                  ->AppendEntry(LogEntry::Make(
                      {1, 1}, EntryType::kTransaction,
                      builder.Finalize(gtid, {1, 1}, 1, 0, 9)))
                  .ok());
  ASSERT_TRUE((*manager)
                  ->AppendEntry(LogEntry::Make({1, 2}, EntryType::kNoOp, ""))
                  .ok());

  const std::string file = (*manager)->ListLogFiles().front();
  auto events = (*manager)->DescribeFile(file);
  ASSERT_TRUE(events.ok()) << events.status();
  // FormatDescription, PreviousGtids, Gtid, Begin, TableMap, WriteRows,
  // Xid, Metadata.
  ASSERT_EQ(events->size(), 8u);
  EXPECT_EQ((*events)[0].type, EventType::kFormatDescription);
  EXPECT_EQ((*events)[2].type, EventType::kGtid);
  EXPECT_EQ((*events)[2].info, gtid.ToString());
  EXPECT_EQ((*events)[2].opid, (OpId{1, 1}));
  EXPECT_EQ((*events)[4].type, EventType::kTableMap);
  EXPECT_EQ((*events)[4].info, "db.users");
  EXPECT_EQ((*events)[7].type, EventType::kMetadata);
  EXPECT_EQ((*events)[7].info, "noop");

  EXPECT_TRUE(
      (*manager)->DescribeFile("binlog.000099").status().IsNotFound());
}

// --- Decode robustness fuzzing -----------------------------------------------

class DecodeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecodeFuzzTest, RandomBytesNeverCrashDecoders) {
  Random rng(GetParam());
  auto env = NewMemEnv();
  ManualClock clock;
  storage::EngineOptions engine_options;
  engine_options.dir = "/engine";
  engine_options.clock = &clock;
  ASSERT_TRUE(env->CreateDirIfMissing("/engine").ok());
  for (int i = 0; i < 2000; ++i) {
    std::string bytes(rng.Uniform(400), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.Next());
    // Every decoder must return an error or a (harmless) value.
    (void)DecodeMessage(bytes);
    (void)GtidSet::Decode(bytes);
    (void)GtidSet::Parse(bytes);
    Slice entry_in(bytes);
    (void)LogEntry::DecodeFrom(&entry_in);
    Slice event_in(bytes);
    (void)BinlogEvent::DecodeFrom(&event_in);
    (void)ParseTransactionPayload(bytes);
    (void)ValidateTransactionPayload(bytes, OpId{1, 1});
    (void)DecodeMembershipConfig(bytes);
    (void)FormatDescriptionBody::Decode(bytes);
    (void)PreviousGtidsBody::Decode(bytes);
    (void)GtidBody::Decode(bytes);
    (void)TableMapBody::Decode(bytes);
    (void)RowsBody::Decode(bytes);
    (void)XidBody::Decode(bytes);
    (void)RotateBody::Decode(bytes);
    (void)MetadataBody::Decode(bytes);
    (void)DecodeRecord<storage::WalRecord>(bytes, "wal");
    (void)DecodeRecord<raft::ConsensusMetadata>(bytes, "cmeta");
    ASSERT_TRUE(env->WriteStringToFile(bytes, "/engine/engine.snap").ok());
    (void)storage::MiniEngine::Open(env.get(), engine_options);
  }
}

TEST_P(DecodeFuzzTest, TruncatedValidMessagesNeverCrash) {
  Random rng(GetParam() + 100);
  AppendEntriesRequest request;
  request.leader = "a";
  request.dest = "b";
  request.route = {"r1", "r2"};
  request.term = 3;
  request.entries.push_back(
      LogEntry::Make({3, 9}, EntryType::kTransaction, std::string(300, 'q')));
  std::string buf;
  EncodeMessage(Message(request), &buf);
  for (int i = 0; i < 500; ++i) {
    std::string mutated = buf;
    // Random truncation + byte flips.
    mutated.resize(rng.Uniform(mutated.size() + 1));
    if (!mutated.empty() && rng.OneIn(2)) {
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<char>(1 + rng.Uniform(255));
    }
    (void)DecodeMessage(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace myraft::binlog

// Byte pins: the exact encoding of one fixed instance of every binary
// record format. A codec refactor must leave every line here passing
// unchanged; a pin that moves means the format changed.

#include <gtest/gtest.h>

#include "binlog/binlog_event.h"
#include "binlog/transaction.h"
#include "raft/consensus_metadata.h"
#include "storage/engine.h"
#include "util/clock.h"
#include "util/env.h"
#include "wire/messages.h"

namespace myraft {
namespace {

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<uint8_t>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

MembershipConfig PinConfig() {
  MembershipConfig config;
  config.members.push_back(
      MemberInfo{"db0", "r0", MemberKind::kMySql, RaftMemberType::kVoter});
  config.members.push_back(MemberInfo{"lt0", "r0", MemberKind::kLogtailer,
                                      RaftMemberType::kNonVoter});
  config.config_version = 3;
  config.config_term = 2;
  config.quorum_spec = "multi:2";
  return config;
}

std::string Encoded(const Message& msg) {
  std::string out;
  EncodeMessage(msg, &out);
  return out;
}

TEST(FormatPinTest, WireMessages) {
  AppendEntriesRequest req;
  req.leader = "db0";
  req.dest = "lt1";
  req.route = {"db1"};
  req.term = 300;
  req.prev = {2, 7};
  req.commit_marker = {2, 6};
  req.entries.push_back(LogEntry::Make({3, 8}, EntryType::kTransaction, "pq"));
  req.proxy_payload_omitted = true;
  req.entries_compressed = true;
  req.trace_id = 5;
  req.trace_span_id = 129;
  req.lease_sent_micros = 1000;
  req.config_payload = "cfg";
  EXPECT_EQ(Hex(Encoded(req)),
            "0003646230036c74310103646231ac020207020603010308015b74cbcd02"
            "7071058101e80703636667");

  AppendEntriesResponse resp;
  resp.from = "lt1";
  resp.dest = "db0";
  resp.route = {"db1"};
  resp.term = 3;
  resp.success = true;
  resp.last_received = {3, 8};
  resp.last_durable_index = 7;
  resp.request_prev_index = 7;
  resp.trace_id = 5;
  resp.trace_span_id = 129;
  resp.lease_granted_micros = 1000;
  resp.config_term = 2;
  resp.config_version = 3;
  EXPECT_EQ(Hex(Encoded(resp)),
            "01036c7431036462300103646231030103080707058101e8070203");

  VoteRequest vote;
  vote.candidate = "db1";
  vote.dest = "lt0";
  vote.term = 4;
  vote.last_log = {3, 8};
  vote.candidate_region = "r1";
  vote.pre_vote = true;
  vote.mock_election = false;
  vote.leader_cursor_snapshot = {3, 9};
  vote.config_term = 2;
  vote.config_version = 3;
  EXPECT_EQ(Hex(Encoded(vote)),
            "0203646231036c74300403080272310103090203");

  VoteResponse vote_resp{"lt0", "db1", 4, false, true, true, "stale-log", "r0",
                         3, "r0"};
  EXPECT_EQ(Hex(Encoded(vote_resp)),
            "03036c7430036462310406097374616c652d6c6f6702723003027230");

  StartElectionRequest start{"db0", "db1", 4, true, {4, 10}};
  EXPECT_EQ(Hex(Encoded(start)),
            "0403646230036462310401040a");
}

TEST(FormatPinTest, LogEntryAndConfig) {
  std::string entry;
  LogEntry::Make({3, 200}, EntryType::kRotate, "xyz").EncodeTo(&entry);
  EXPECT_EQ(Hex(entry),
            "03c80102856823250378797a");

  std::string config;
  EncodeMembershipConfig(PinConfig(), &config);
  EXPECT_EQ(Hex(config),
            "02036462300272300000036c743002723001010203076d756c74693a32");
}

TEST(FormatPinTest, BinlogEventsAndBodies) {
  using namespace binlog;
  const Uuid uuid = Uuid::FromIndex(7);

  std::string event;
  MakeEvent(EventType::kXid, 0x0102030405060708, 9, {3, 8},
            XidBody{0x1122}.Encode())
      .EncodeTo(&event);
  EXPECT_EQ(Hex(event),
            "080706050403020108090000000000030000000000000008000000000000"
            "00082211000000000000053beecd");

  EXPECT_EQ(Hex(FormatDescriptionBody{"myraft-1", 77}.Encode()),
            "086d79726166742d314d00000000000000");
  PreviousGtidsBody previous;
  previous.gtids.AddRange(uuid, 1, 5);
  previous.gtids.AddRange(uuid, 9, 300);
  previous.gtids.AddRange(Uuid::FromIndex(2), 4, 4);
  EXPECT_EQ(Hex(previous.Encode()),
            "02abcd0000000000000000000000000002010404abcd0000000000000000"
            "00000000000702010509ac02");

  GtidBody untraced;
  untraced.gtid = Gtid{uuid, 42};
  untraced.last_committed = 40;
  untraced.sequence_number = 41;
  EXPECT_EQ(Hex(untraced.Encode()),
            "abcd00000000000000000000000000072a2829");
  GtidBody traced = untraced;
  traced.trace_id = 6;
  traced.trace_span_id = 200;
  EXPECT_EQ(Hex(traced.Encode()),
            "abcd00000000000000000000000000072a282906c801");

  TableMapBody table_map;
  table_map.table_id = 1;
  table_map.database = "db";
  table_map.table = "kv";
  table_map.column_count = 2;
  EXPECT_EQ(Hex(table_map.Encode()),
            "01026462026b7602");

  RowsBody rows;
  rows.table_id = 1;
  rows.rows.emplace_back("k=a", "k=b");
  rows.rows.emplace_back("", "j=c");
  EXPECT_EQ(Hex(rows.Encode()),
            "0102036b3d61036b3d6200036a3d63");
  EXPECT_EQ(Hex(RotateBody{"binlog.000002", 4}.Encode()),
            "0d62696e6c6f672e3030303030320400000000000000");
  MetadataBody metadata;
  metadata.payload = "noop";
  EXPECT_EQ(Hex(metadata.Encode()),
            "00046e6f6f70");

  std::string gtid_set;
  previous.gtids.EncodeTo(&gtid_set);
  EXPECT_EQ(Hex(gtid_set), Hex(previous.Encode()));

  TransactionPayloadBuilder builder;
  RowOperation op;
  op.kind = RowOperation::Kind::kUpdate;
  op.database = "db";
  op.table = "kv";
  op.column_count = 2;
  op.before_image = "k=a";
  op.after_image = "k=b";
  builder.AddOperation(op);
  const std::string payload =
      builder.Finalize(Gtid{uuid, 42}, {3, 8}, 17, 1000, 9, 40, 41, 6, 200);
  EXPECT_EQ(Hex(payload),
            "e80300000000000002090000000000030000000000000008000000000000"
            "0016abcd00000000000000000000000000072a282906c801f23d8e77e803"
            "000000000000030900000000000300000000000000080000000000000005"
            "424547494ef3ecf68de80300000000000004090000000000030000000000"
            "000008000000000000000801026462026b76021d66836ce8030000000000"
            "0006090000000000030000000000000008000000000000000a0101036b3d"
            "61036b3d6224370dd3e80300000000000008090000000000030000000000"
            "00000800000000000000081100000000000000b4acf83f");
}

TEST(FormatPinTest, EngineWalAndSnapshot) {
  auto env = NewMemEnv();
  ManualClock clock;
  storage::EngineOptions options;
  options.dir = "/engine";
  options.clock = &clock;
  auto engine = storage::MiniEngine::Open(env.get(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const binlog::Gtid gtid{Uuid::FromIndex(7), 42};

  const storage::TxnId a = (*engine)->Begin();
  ASSERT_TRUE((*engine)->Put(a, "db.kv", "k", "k=b").ok());
  ASSERT_TRUE((*engine)->Delete(a, "db.kv", "j").ok());
  ASSERT_TRUE((*engine)->Prepare(a, 17).ok());
  ASSERT_TRUE((*engine)->CommitPrepared(17, {3, 8}, gtid).ok());
  const storage::TxnId b = (*engine)->Begin();
  ASSERT_TRUE((*engine)->Put(b, "db.kv", "m", "m=1").ok());
  ASSERT_TRUE((*engine)->Prepare(b, 18).ok());
  ASSERT_TRUE((*engine)->RollbackPrepared(18).ok());
  auto wal = env->ReadFileToString("/engine/engine.wal");
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ(Hex(*wal),
            "b88b1f811a0111020564622e6b76016b01036b3d620564622e6b76016a00"
            "0018bea1b023021103000000000000000800000000000000abcd00000000"
            "000000000000000000072a874fb57d100112010564622e6b76016d01036d"
            "3d31d368e334020312");

  ASSERT_TRUE((*engine)->Checkpoint().ok());
  auto snapshot = env->ReadFileToString("/engine/engine.snap");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(Hex(*snapshot),
            "4d5952414654534e415031030000000000000008000000000000001401ab"
            "cd0000000000000000000000000007012a2a010564622e6b7601016b036b"
            "3d622e65a63b");
}

TEST(FormatPinTest, ConsensusMetadata) {
  auto env = NewMemEnv();
  raft::ConsensusMetadataStore store(env.get(), "/cmeta");
  raft::ConsensusMetadata meta;
  meta.current_term = 4;
  meta.voted_for = "db1";
  meta.last_known_leader = "db0";
  meta.last_leader_region = "r0";
  meta.last_leader_term = 3;
  meta.last_vote_term = 4;
  meta.last_voted_for = "db1";
  meta.last_voted_region = "r1";
  meta.config = PinConfig();
  meta.committed_config = meta.config;
  ASSERT_TRUE(store.Save(meta).ok());
  auto same = env->ReadFileToString("/cmeta");
  ASSERT_TRUE(same.ok()) << same.status();
  EXPECT_EQ(Hex(*same),
            "0403646231036462300272300304036462310272311d0203646230027230"
            "0000036c743002723001010203076d756c74693a32ede322f6");

  meta.committed_config.config_version = 2;
  meta.committed_config.members.pop_back();
  ASSERT_TRUE(store.Save(meta).ok());
  auto differs = env->ReadFileToString("/cmeta");
  ASSERT_TRUE(differs.ok()) << differs.status();
  EXPECT_EQ(Hex(*differs),
            "0403646231036462300272300304036462310272311d0203646230027230"
            "0000036c743002723001010203076d756c74693a32140103646230027230"
            "00000202076d756c74693a32f3fde821");
}

}  // namespace
}  // namespace myraft

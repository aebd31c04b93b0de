// Codec tests: OpId ordering, membership helpers, entry and message
// round-trips, computed wire sizes, and one table that checks every binary
// record format (wire, binlog, engine, consensus metadata) the same way.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <random>

#include "binlog/transaction.h"
#include "raft/consensus_metadata.h"
#include "storage/engine.h"
#include "util/clock.h"
#include "util/coding.h"
#include "util/env.h"
#include "wire/messages.h"

namespace myraft {
namespace {

TEST(OpIdTest, OrderingFollowsRaftRules) {
  EXPECT_TRUE((OpId{2, 1}).IsLaterThan(OpId{1, 100}));
  EXPECT_TRUE((OpId{2, 5}).IsLaterThan(OpId{2, 4}));
  EXPECT_FALSE((OpId{2, 4}).IsLaterThan(OpId{2, 4}));
  EXPECT_FALSE(kZeroOpId.IsLaterThan(OpId{1, 1}));
  EXPECT_TRUE(kZeroOpId.IsZero());
  EXPECT_EQ((OpId{3, 14}).ToString(), "3.14");
}

/// Voters grouped by region, in order of each region's first appearance.
std::vector<std::pair<RegionId, std::vector<MemberId>>> VotersByRegion(
    const MembershipConfig& config) {
  std::vector<std::pair<RegionId, std::vector<MemberId>>> out;
  for (const auto& m : config.members) {
    if (!m.is_voter()) continue;
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& p) { return p.first == m.region; });
    if (it == out.end()) {
      out.emplace_back(m.region, std::vector<MemberId>{m.id});
    } else {
      it->second.push_back(m.id);
    }
  }
  return out;
}

MembershipConfig PaperTopology() {
  // Primary region has 1 mysql + 2 logtailers; two remote regions each a
  // follower + 2 logtailers; plus one learner.
  MembershipConfig config;
  config.config_version = 1;
  auto add = [&](const char* id, const char* region, MemberKind kind,
                 RaftMemberType type) {
    config.members.push_back(MemberInfo{id, region, kind, type});
  };
  add("db0", "r0", MemberKind::kMySql, RaftMemberType::kVoter);
  add("lt0a", "r0", MemberKind::kLogtailer, RaftMemberType::kVoter);
  add("lt0b", "r0", MemberKind::kLogtailer, RaftMemberType::kVoter);
  add("db1", "r1", MemberKind::kMySql, RaftMemberType::kVoter);
  add("lt1a", "r1", MemberKind::kLogtailer, RaftMemberType::kVoter);
  add("lt1b", "r1", MemberKind::kLogtailer, RaftMemberType::kVoter);
  add("learner0", "r2", MemberKind::kMySql, RaftMemberType::kNonVoter);
  return config;
}

TEST(MembershipTest, Lookups) {
  const auto config = PaperTopology();
  EXPECT_TRUE(config.Contains("db0"));
  EXPECT_FALSE(config.Contains("ghost"));
  EXPECT_EQ(config.NumVoters(), 6);
  EXPECT_EQ(config.MemberIds().size(), 7u);
  EXPECT_EQ(config.VoterIds().size(), 6u);

  const MemberInfo* witness = config.Find("lt0a");
  ASSERT_NE(witness, nullptr);
  EXPECT_TRUE(witness->is_witness());
  EXPECT_FALSE(witness->has_engine());

  const MemberInfo* learner = config.Find("learner0");
  ASSERT_NE(learner, nullptr);
  EXPECT_TRUE(learner->is_learner());
  EXPECT_FALSE(learner->is_voter());
  EXPECT_TRUE(learner->has_engine());
}

TEST(MembershipTest, VotersByRegionGroupsAndOrders) {
  const auto config = PaperTopology();
  const auto groups = VotersByRegion(config);
  ASSERT_EQ(groups.size(), 2u);  // learner region r2 has no voters
  EXPECT_EQ(groups[0].first, "r0");
  EXPECT_EQ(groups[0].second.size(), 3u);
  EXPECT_EQ(groups[1].first, "r1");
  EXPECT_EQ(groups[1].second.size(), 3u);
}

TEST(MembershipTest, ConfigCodecRoundTrip) {
  const auto config = PaperTopology();
  std::string buf;
  EncodeMembershipConfig(config, &buf);
  auto decoded = DecodeMembershipConfig(buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, config);
}

TEST(MembershipTest, VersionedConfigCodecRoundTrip) {
  // Identity group (§15): (config_term, config_version) and the
  // quorum-spec override survive the codec.
  auto config = PaperTopology();
  config.config_term = 7;
  config.config_version = 42;
  config.quorum_spec = "multi:2";
  std::string buf;
  EncodeMembershipConfig(config, &buf);
  auto decoded = DecodeMembershipConfig(buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, config);
  EXPECT_EQ(decoded->config_term, 7u);
  EXPECT_EQ(decoded->config_version, 42u);
  EXPECT_EQ(decoded->quorum_spec, "multi:2");
}

TEST(MembershipTest, ConfigIdentityOrderingTermDominates) {
  MembershipConfig a, b;
  a.config_term = 2;
  a.config_version = 1;
  b.config_term = 1;
  b.config_version = 9;
  EXPECT_TRUE(a.IdIsNewerThan(b));   // term dominates version
  EXPECT_FALSE(b.IdIsNewerThan(a));
  b.config_term = 2;
  b.config_version = 2;
  EXPECT_TRUE(b.IdIsNewerThan(a));   // same term: version decides
  EXPECT_FALSE(a.IdIsNewerThan(a));  // irreflexive
  EXPECT_TRUE(a.SameIdAs(a));
  EXPECT_FALSE(a.SameIdAs(b));
}

TEST(LogEntryTest, MakeComputesChecksum) {
  const LogEntry e = LogEntry::Make({3, 7}, EntryType::kTransaction, "data");
  EXPECT_TRUE(e.VerifyChecksum());
  LogEntry corrupted = e;
  corrupted.payload[0] ^= 0x01;
  EXPECT_FALSE(corrupted.VerifyChecksum());
}

TEST(LogEntryTest, RoundTrip) {
  std::string buf;
  const LogEntry a = LogEntry::Make({1, 1}, EntryType::kNoOp, "");
  const LogEntry b =
      LogEntry::Make({1, 2}, EntryType::kTransaction, std::string(5000, 'p'));
  a.EncodeTo(&buf);
  b.EncodeTo(&buf);
  Slice in(buf);
  auto da = LogEntry::DecodeFrom(&in);
  auto db = LogEntry::DecodeFrom(&in);
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(*da, a);
  EXPECT_EQ(*db, b);
  EXPECT_TRUE(in.empty());
}

TEST(LogEntryTest, DecodeRejectsBadType) {
  std::string buf;
  LogEntry::Make({1, 1}, EntryType::kNoOp, "x").EncodeTo(&buf);
  // The type byte follows the two single-byte varints. 3 was the retired
  // config-change entry type: configs never ride the log.
  for (const char type : {char{3}, char{99}}) {
    buf[2] = type;
    Slice in(buf);
    EXPECT_FALSE(LogEntry::DecodeFrom(&in).ok()) << int{type};
  }
}

AppendEntriesRequest MakeAppendRequest() {
  AppendEntriesRequest req;
  req.leader = "db0";
  req.dest = "lt1a";
  req.route = {"db1"};
  req.term = 9;
  req.prev = {8, 41};
  req.commit_marker = {9, 40};
  req.entries.push_back(LogEntry::Make({9, 42}, EntryType::kTransaction,
                                       std::string(500, 'q')));
  req.entries.push_back(LogEntry::Make({9, 43}, EntryType::kRotate, "rot"));
  return req;
}

TEST(MessagesTest, AppendEntriesRoundTrip) {
  const auto req = MakeAppendRequest();
  std::string buf;
  req.EncodeTo(&buf);
  auto decoded = AppendEntriesRequest::DecodeFrom(buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, req);
  EXPECT_EQ(req.PayloadBytes(), 503u);
  EXPECT_FALSE(req.IsHeartbeat());
}

TEST(MessagesTest, AppendEntriesLeaseRoundTrip) {
  // An untraced request carrying a lease stamp round-trips, and so does
  // the same request without one (0 = no grant requested).
  auto req = MakeAppendRequest();
  req.lease_sent_micros = 777'000'123;
  std::string buf;
  req.EncodeTo(&buf);
  auto decoded = AppendEntriesRequest::DecodeFrom(buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, req);
  req.lease_sent_micros = 0;
  std::string plain;
  req.EncodeTo(&plain);
  auto plain_decoded = AppendEntriesRequest::DecodeFrom(plain);
  ASSERT_TRUE(plain_decoded.ok()) << plain_decoded.status();
  EXPECT_EQ(plain_decoded->lease_sent_micros, 0u);
}

TEST(MessagesTest, AppendResponseLeaseEchoRoundTrip) {
  AppendEntriesResponse resp;
  resp.from = "lt1a";
  resp.dest = "db0";
  resp.term = 9;
  resp.success = true;
  resp.last_received = {9, 43};
  resp.last_durable_index = 43;
  resp.lease_granted_micros = 777'000'123;
  std::string buf;
  resp.EncodeTo(&buf);
  auto decoded = AppendEntriesResponse::DecodeFrom(buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, resp);
  // Without the echo (no grant).
  resp.lease_granted_micros = 0;
  std::string plain;
  resp.EncodeTo(&plain);
  auto plain_decoded = AppendEntriesResponse::DecodeFrom(plain);
  ASSERT_TRUE(plain_decoded.ok());
  EXPECT_EQ(plain_decoded->lease_granted_micros, 0u);
}

TEST(MessagesTest, AppendEntriesConfigPayloadRoundTrip) {
  // A request carrying only a config (no trace, no lease) round-trips.
  auto req = MakeAppendRequest();
  std::string cfg;
  EncodeMembershipConfig(PaperTopology(), &cfg);
  req.config_payload = cfg;
  std::string buf;
  req.EncodeTo(&buf);
  auto decoded = AppendEntriesRequest::DecodeFrom(buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, req);
  auto inner = DecodeMembershipConfig(decoded->config_payload);
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(*inner, PaperTopology());
  // Without the config (the peer already echoed it): empty payload.
  req.config_payload.clear();
  std::string plain;
  req.EncodeTo(&plain);
  auto plain_decoded = AppendEntriesRequest::DecodeFrom(plain);
  ASSERT_TRUE(plain_decoded.ok());
  EXPECT_TRUE(plain_decoded->config_payload.empty());
}

TEST(MessagesTest, AppendResponseConfigAckRoundTrip) {
  AppendEntriesResponse resp;
  resp.from = "lt1a";
  resp.dest = "db0";
  resp.term = 9;
  resp.success = false;  // config acks ride on rejections too (§15)
  resp.last_received = {9, 43};
  resp.last_durable_index = 43;
  resp.config_term = 9;
  resp.config_version = 4;
  std::string buf;
  resp.EncodeTo(&buf);
  auto decoded = AppendEntriesResponse::DecodeFrom(buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, resp);
  // No ack (an undecompressable batch): a (0,0) identity.
  resp.config_term = 0;
  resp.config_version = 0;
  std::string plain;
  resp.EncodeTo(&plain);
  ASSERT_TRUE(AppendEntriesResponse::DecodeFrom(plain).ok());
}

TEST(MessagesTest, VoteRequestConfigIdentityRoundTrip) {
  VoteRequest req;
  req.candidate = "db1";
  req.dest = "lt1b";
  req.term = 12;
  req.last_log = {11, 999};
  req.candidate_region = "r1";
  req.config_term = 11;
  req.config_version = 3;
  std::string buf;
  req.EncodeTo(&buf);
  auto decoded = VoteRequest::DecodeFrom(buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, req);
  req.config_term = 0;
  req.config_version = 0;
  std::string plain;
  req.EncodeTo(&plain);
  ASSERT_TRUE(VoteRequest::DecodeFrom(plain).ok());
}

TEST(MessagesTest, ProxyOpFlagSurvives) {
  auto req = MakeAppendRequest();
  req.proxy_payload_omitted = true;
  for (auto& e : req.entries) e.payload.clear();
  std::string buf;
  req.EncodeTo(&buf);
  auto decoded = AppendEntriesRequest::DecodeFrom(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->proxy_payload_omitted);
  EXPECT_EQ(decoded->PayloadBytes(), 0u);
  // Checksums still present for reconstitution verification.
  EXPECT_EQ(decoded->entries[0].checksum, req.entries[0].checksum);
}

TEST(MessagesTest, AppendResponseRoundTrip) {
  AppendEntriesResponse resp;
  resp.from = "lt1a";
  resp.dest = "db0";
  resp.route = {"db1"};
  resp.term = 9;
  resp.success = true;
  resp.last_received = {9, 43};
  resp.last_durable_index = 43;
  std::string buf;
  resp.EncodeTo(&buf);
  auto decoded = AppendEntriesResponse::DecodeFrom(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, resp);
}

TEST(MessagesTest, VoteRequestRoundTripAllFlagCombos) {
  for (bool pre : {false, true}) {
    for (bool mock : {false, true}) {
      VoteRequest req;
      req.candidate = "db1";
      req.dest = "lt1b";
      req.term = 12;
      req.last_log = {11, 999};
      req.candidate_region = "r1";
      req.pre_vote = pre;
      req.mock_election = mock;
      req.leader_cursor_snapshot = {11, 1000};
      std::string buf;
      req.EncodeTo(&buf);
      auto decoded = VoteRequest::DecodeFrom(buf);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(*decoded, req);
    }
  }
}

TEST(MessagesTest, VoteResponseRoundTrip) {
  VoteResponse resp;
  resp.from = "lt1b";
  resp.dest = "db1";
  resp.term = 12;
  resp.granted = false;
  resp.pre_vote = true;
  resp.mock_election = true;
  resp.reason = "lagging-same-region";
  resp.voter_region = "r1";
  std::string buf;
  resp.EncodeTo(&buf);
  auto decoded = VoteResponse::DecodeFrom(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, resp);
}

TEST(MessagesTest, EnvelopeRoundTripEveryType) {
  std::vector<Message> messages;
  messages.emplace_back(MakeAppendRequest());
  AppendEntriesResponse ar;
  ar.from = "a";
  ar.dest = "b";
  ar.term = 3;
  ar.success = true;
  ar.last_received = {3, 5};
  ar.last_durable_index = 5;
  messages.emplace_back(ar);
  VoteRequest vr;
  vr.candidate = "c";
  vr.dest = "d";
  vr.term = 4;
  messages.emplace_back(vr);
  VoteResponse vresp;
  vresp.from = "e";
  vresp.dest = "f";
  vresp.term = 4;
  vresp.granted = true;
  vresp.voter_region = "r0";
  messages.emplace_back(vresp);
  StartElectionRequest se;
  se.from = "g";
  se.dest = "h";
  se.term = 7;
  messages.emplace_back(se);

  for (const auto& msg : messages) {
    std::string buf;
    EncodeMessage(msg, &buf);
    auto decoded = DecodeMessage(buf);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(msg.index(), decoded->index());
    EXPECT_TRUE(msg == *decoded);
    EXPECT_EQ(MessageWireBytes(msg), buf.size());
  }
}

TEST(MessagesTest, FromAndDestHelpers) {
  const auto req = MakeAppendRequest();
  EXPECT_EQ(MessageFrom(Message(req)), "db0");
  EXPECT_EQ(MessageDest(Message(req)), "lt1a");
  VoteRequest vr;
  vr.candidate = "cand";
  vr.dest = "voter";
  EXPECT_EQ(MessageFrom(Message(vr)), "cand");
  EXPECT_EQ(MessageDest(Message(vr)), "voter");
}

TEST(MessagesTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeMessage(Slice()).ok());
  EXPECT_FALSE(DecodeMessage(Slice("\xFFgarbage", 8)).ok());
  // Truncated bodies: EveryStrictPrefixIsRejected.
}

// --- Every record format: one table -----------------------------------------

/// What a decoder made of some input.
struct Decoded {
  bool ok = false;
  bool equal = false;   // the value equals the row's instance
  size_t consumed = 0;  // bytes taken from the front of the input
};

/// One fixed instance of a format, every field populated, with the
/// format's encoding, its size-sink count (where the format has one) and
/// its decoder as production code calls it.
struct FormatCase {
  std::string name;
  std::string encoded;
  std::optional<uint64_t> size;
  /// Reads one record from the front of a stream: trailing bytes belong
  /// to the next record. Otherwise the record is the whole buffer.
  bool stream = false;
  std::function<Decoded(Slice)> decode;
  /// Where an optional trailer starts: the prefix that ends there is a
  /// whole record of its own, with the trailer's fields at their defaults.
  std::optional<size_t> trailer_at = std::nullopt;
};

template <typename T, typename Decode>
FormatCase WholeRow(std::string name, const T& instance, std::string encoded,
                    std::optional<uint64_t> size, Decode decode) {
  return FormatCase{std::move(name), std::move(encoded), size, false,
                    [instance, decode](Slice in) {
                      auto r = decode(in);
                      return r.ok() ? Decoded{true, *r == instance, in.size()}
                                    : Decoded{};
                    }};
}

/// A record with EncodeTo, its walk and the streaming DecodeFrom(Slice*).
template <typename T>
FormatCase StreamRow(std::string name, const T& instance) {
  std::string encoded;
  instance.EncodeTo(&encoded);
  return FormatCase{std::move(name), std::move(encoded), RecordSize(instance),
                    true, [instance](Slice in) {
                      const size_t before = in.size();
                      auto r = T::DecodeFrom(&in);
                      return r.ok() ? Decoded{true, *r == instance,
                                              before - in.size()}
                                    : Decoded{};
                    }};
}

/// A binlog body with Encode() and Decode(Slice).
template <typename T>
FormatCase BodyRow(std::string name, const T& instance) {
  return WholeRow(std::move(name), instance, instance.Encode(),
                  RecordSize(instance), [](Slice in) { return T::Decode(in); });
}

std::vector<Message> FullMessages() {
  auto req = MakeAppendRequest();
  req.entries_compressed = true;
  req.trace_id = 0x1234567;
  req.trace_span_id = 0x89abcde;
  req.lease_sent_micros = 777'000'123;
  EncodeMembershipConfig(PaperTopology(), &req.config_payload);

  AppendEntriesResponse resp;
  resp.from = "lt1a";
  resp.dest = "db0";
  resp.route = {"db1"};
  resp.term = 9;
  resp.success = true;
  resp.last_received = {9, 43};
  resp.last_durable_index = 42;
  resp.request_prev_index = 41;
  resp.trace_id = 0x1234567;
  resp.trace_span_id = 0x89abcde;
  resp.lease_granted_micros = 777'000'123;
  resp.config_term = 9;
  resp.config_version = 4;

  VoteRequest vote;
  vote.candidate = "db1";
  vote.dest = "lt1b";
  vote.term = 12;
  vote.last_log = {11, 999};
  vote.candidate_region = "r1";
  vote.pre_vote = true;
  vote.mock_election = true;
  vote.leader_cursor_snapshot = {11, 1000};
  vote.config_term = 11;
  vote.config_version = 3;

  VoteResponse vote_resp{"lt1b", "db1", 12, true, true, true,
                         "already-voted", "r1", 11, "r0"};
  StartElectionRequest start{"db0", "db1", 7, true, {7, 70}};
  return {req, resp, vote, vote_resp, start};
}

binlog::GtidSet SampleGtids() {
  binlog::GtidSet set;
  set.AddRange(Uuid::FromIndex(1), 1, 1000000);
  set.AddRange(Uuid::FromIndex(1), 1000002, 1000009);
  set.AddRange(Uuid::FromIndex(3), 10, 20);
  return set;
}

raft::ConsensusMetadata SampleMetadata() {
  raft::ConsensusMetadata meta;
  meta.current_term = 12;
  meta.voted_for = "db1";
  meta.last_known_leader = "db0";
  meta.last_leader_region = "r0";
  meta.last_leader_term = 11;
  meta.last_vote_term = 12;
  meta.last_voted_for = "db1";
  meta.last_voted_region = "r1";
  meta.config = PaperTopology();
  meta.config.quorum_spec = "multi:2";
  meta.committed_config = meta.config;
  return meta;
}

/// The consensus metadata file, written and read through its store.
FormatCase MetadataRow(std::string name, const raft::ConsensusMetadata& meta) {
  auto env = std::shared_ptr<Env>(NewMemEnv());
  EXPECT_TRUE(raft::ConsensusMetadataStore(env.get(), "/cmeta").Save(meta).ok());
  auto file = env->ReadFileToString("/cmeta");
  EXPECT_TRUE(file.ok());
  return WholeRow(std::move(name), meta, *file, RecordSize(meta),
                  [env](Slice in) {
                    EXPECT_TRUE(env->WriteStringToFile(in, "/cmeta").ok());
                    return raft::ConsensusMetadataStore(env.get(), "/cmeta")
                        .Load();
                  });
}

/// The engine snapshot file, written by Checkpoint and read by Open.
FormatCase SnapshotRow() {
  ManualClock clock;
  auto open = [&clock](Env* env) {
    storage::EngineOptions options;
    options.dir = "/engine";
    options.clock = &clock;
    return storage::MiniEngine::Open(env, options);
  };
  auto env = NewMemEnv();
  auto engine = open(env.get());
  EXPECT_TRUE(engine.ok());
  for (uint64_t xid = 1; xid <= 3; ++xid) {
    const storage::TxnId txn = (*engine)->Begin();
    const std::string key = "k" + std::to_string(xid);
    EXPECT_TRUE((*engine)->Put(txn, xid == 3 ? "db.b" : "db.a", key, key + "=v")
                    .ok());
    EXPECT_TRUE((*engine)->Prepare(txn, xid).ok());
    EXPECT_TRUE((*engine)
                    ->CommitPrepared(xid, {2, 10 + xid},
                                     binlog::Gtid{Uuid::FromIndex(4), xid})
                    .ok());
  }
  EXPECT_TRUE((*engine)->Checkpoint().ok());
  auto file = env->ReadFileToString("/engine/engine.snap");
  EXPECT_TRUE(file.ok());
  const OpId applied = (*engine)->LastAppliedOpId();
  const binlog::GtidSet gtids = (*engine)->ExecutedGtids();
  const uint64_t checksum = (*engine)->StateChecksum();
  return FormatCase{
      "engine snapshot", *file, std::nullopt, false,
      [open, applied, gtids, checksum](Slice in) {
        auto fresh = NewMemEnv();
        EXPECT_TRUE(fresh->CreateDirIfMissing("/engine").ok());
        EXPECT_TRUE(fresh->WriteStringToFile(in, "/engine/engine.snap").ok());
        auto reopened = open(fresh.get());
        if (!reopened.ok()) return Decoded{};
        return Decoded{true,
                       (*reopened)->LastAppliedOpId() == applied &&
                           (*reopened)->ExecutedGtids() == gtids &&
                           (*reopened)->StateChecksum() == checksum,
                       in.size()};
      }};
}

/// A transaction group, built by Finalize; append validates it and the
/// applier parses it, and every check below holds for both.
FormatCase TransactionRow() {
  binlog::TransactionPayloadBuilder builder;
  binlog::RowOperation op;
  op.database = "db";
  op.table = "kv";
  op.column_count = 2;
  op.kind = binlog::RowOperation::Kind::kUpdate;
  op.before_image = "k=a";
  op.after_image = "k=b";
  builder.AddOperation(op);
  op.kind = binlog::RowOperation::Kind::kDelete;
  op.after_image.clear();
  builder.AddOperation(op);
  const binlog::Gtid gtid{Uuid::FromIndex(5), 88};
  const OpId opid{4, 1234};
  return FormatCase{
      "transaction group",
      builder.Finalize(gtid, opid, 999, 111, 7, 80, 81, 6, 7), std::nullopt,
      false, [gtid, opid](Slice in) {
        auto parsed = binlog::ParseTransactionPayload(in);
        auto validated = binlog::ValidateTransactionPayload(in, opid);
        Decoded out;
        out.ok = parsed.ok() || validated.ok();
        out.equal = parsed.ok() && validated.ok() && *validated == gtid &&
                    parsed->gtid == gtid && parsed->opid == opid &&
                    parsed->xid == 999 && parsed->last_committed == 80 &&
                    parsed->sequence_number == 81 && parsed->trace_id == 6 &&
                    parsed->trace_span_id == 7 && parsed->ops.size() == 2 &&
                    parsed->ops[1].before_image == "k=a";
        out.consumed = in.size();
        return out;
      }};
}

std::vector<FormatCase> AllFormats() {
  std::vector<FormatCase> rows;
  for (const Message& msg : FullMessages()) {
    const std::string index = std::to_string(msg.index());
    std::string encoded;
    EncodeMessage(msg, &encoded);
    rows.push_back(WholeRow("envelope " + index, msg, encoded,
                            MessageWireBytes(msg),
                            [](Slice in) { return DecodeMessage(in); }));
    std::visit(
        [&](const auto& m) {
          using T = std::decay_t<decltype(m)>;
          std::string body;
          m.EncodeTo(&body);
          rows.push_back(WholeRow("message " + index, m, body, RecordSize(m),
                                  [](Slice in) { return T::DecodeFrom(in); }));
        },
        msg);
  }
  rows.push_back(StreamRow(
      "log entry", LogEntry::Make({9, 42}, EntryType::kTransaction, "pay")));
  MembershipConfig config = PaperTopology();
  config.config_term = 7;
  config.quorum_spec = "multi:2";
  std::string config_bytes;
  EncodeMembershipConfig(config, &config_bytes);
  rows.push_back(WholeRow("membership config", config, config_bytes,
                          RecordSize(config), DecodeMembershipConfig));
  rows.push_back(StreamRow(
      "binlog event", binlog::MakeEvent(binlog::EventType::kXid, 123456789, 42,
                                        {7, 99}, binlog::XidBody{5}.Encode())));
  {
    using namespace binlog;
    rows.push_back(BodyRow("format-description body",
                           FormatDescriptionBody{"myraft-1.0", 555}));
    rows.push_back(
        BodyRow("previous-gtids body", PreviousGtidsBody{SampleGtids()}));
    GtidBody gtid{Gtid{Uuid::FromIndex(2), 33}, 30, 31};
    rows.push_back(BodyRow("gtid body, untraced", gtid));
    const size_t untraced_size = gtid.Encode().size();
    gtid.trace_id = 1 << 20;
    gtid.trace_span_id = 3;
    rows.push_back(BodyRow("gtid body, traced", gtid));
    rows.back().trailer_at = untraced_size;
    rows.push_back(BodyRow("table-map body", TableMapBody{17, "db", "kv", 5}));
    RowsBody rows_body;
    rows_body.table_id = 17;
    rows_body.rows.emplace_back("before-img", "after-img");
    rows_body.rows.emplace_back("", "insert-only");
    rows.push_back(BodyRow("rows body", rows_body));
    rows.push_back(BodyRow("xid body", XidBody{0xDEADBEEFCAFEull}));
    rows.push_back(BodyRow("rotate body", RotateBody{"binlog.000002", 4096}));
    rows.push_back(
        BodyRow("metadata body", MetadataBody{EntryType::kNoOp, "noop"}));
  }
  const binlog::GtidSet gtids = SampleGtids();
  std::string gtid_bytes;
  gtids.EncodeTo(&gtid_bytes);
  rows.push_back(WholeRow("gtid set", gtids, gtid_bytes, RecordSize(gtids),
                          binlog::GtidSet::Decode));
  rows.push_back(TransactionRow());
  storage::WalRecord wal;
  wal.type = storage::WalRecord::Type::kPrepare;
  wal.xid = 17;
  wal.writes = {{"db.kv", "k", "k=b"}, {"db.kv", "j", std::nullopt}};
  for (const auto type :
       {storage::WalRecord::Type::kPrepare, storage::WalRecord::Type::kCommit,
        storage::WalRecord::Type::kRollback}) {
    storage::WalRecord record;
    record.type = type;
    record.xid = 17;
    if (type == storage::WalRecord::Type::kPrepare) record.writes = wal.writes;
    if (type == storage::WalRecord::Type::kCommit) {
      record.opid = {3, 8};
      record.gtid = binlog::Gtid{Uuid::FromIndex(7), 42};
    }
    std::string encoded;
    EncodeRecord(record, &encoded);
    rows.push_back(WholeRow(
        "wal record " + std::to_string(static_cast<int>(type)), record,
        encoded, RecordSize(record), [](Slice in) {
          return DecodeRecord<storage::WalRecord>(in, "wal");
        }));
  }
  raft::ConsensusMetadata meta = SampleMetadata();
  rows.push_back(MetadataRow("consensus metadata", meta));
  meta.committed_config.config_version = 1;
  meta.committed_config.members.pop_back();
  rows.push_back(
      MetadataRow("consensus metadata, committed config trailer", meta));
  rows.push_back(SnapshotRow());
  return rows;
}

TEST(CodecTableTest, EveryFormatRoundTripsAndRejectsDamage) {
  for (const FormatCase& c : AllFormats()) {
    SCOPED_TRACE(c.name);
    // Round trip.
    const Decoded whole = c.decode(c.encoded);
    EXPECT_TRUE(whole.ok && whole.equal);
    EXPECT_EQ(whole.consumed, c.encoded.size());
    // Every strict prefix is rejected: one fixed layout per format, so no
    // prefix may decode (silently dropping its tail fields). The one
    // exception is a prefix that ends where an optional trailer starts.
    for (size_t len = 0; len < c.encoded.size(); ++len) {
      const Decoded prefix = c.decode(Slice(c.encoded.data(), len));
      if (len == c.trailer_at) {
        EXPECT_TRUE(prefix.ok && !prefix.equal) << len;
      } else {
        EXPECT_FALSE(prefix.ok) << len;
      }
    }
    // One trailing byte: corrupt for a whole-buffer record, left for the
    // next record by a stream decoder.
    const Decoded longer = c.decode(c.encoded + '\0');
    if (c.stream) {
      EXPECT_TRUE(longer.ok && longer.equal);
      EXPECT_EQ(longer.consumed, c.encoded.size());
    } else {
      EXPECT_FALSE(longer.ok);
    }
    // The size sink runs the same walk as the encoder.
    if (c.size.has_value()) {
      EXPECT_EQ(*c.size, c.encoded.size());
    }
  }
}

// --- Computed wire sizes --------------------------------------------------------

/// Random message fields, biased to varint length boundaries (7 payload
/// bits per byte) so every encoded width is exercised.
class MessageFuzzer {
 public:
  explicit MessageFuzzer(uint64_t seed) : rng_(seed) {}

  uint64_t Varint() {
    const int bits = Below(65);  // 0 = zero, else a value of `bits` bits
    if (bits == 0) return 0;
    const uint64_t top = uint64_t{1} << (bits - 1);
    switch (Below(3)) {
      case 0: return top;                               // first of its width
      case 1: return top | (top - 1);                   // last of its width
      default: return top | (rng_() & (top - 1));
    }
  }
  bool Flag() { return Below(2) == 1; }
  /// Lengths straddle the one/two/three-byte length-prefix boundaries.
  std::string Bytes() {
    static constexpr size_t kLengths[] = {0, 1, 5, 127, 128, 300, 16383, 16384};
    return std::string(kLengths[Below(std::size(kLengths))],
                       static_cast<char>('a' + Below(26)));
  }
  std::string Id() { return "m" + std::to_string(Below(1000)); }
  OpId Op() { return OpId{Varint(), Varint()}; }
  std::vector<MemberId> Route() {
    std::vector<MemberId> route(Below(4));
    for (MemberId& hop : route) hop = Id();
    return route;
  }
  LogEntry Entry() {
    LogEntry entry = LogEntry::Make(
        Op(), static_cast<EntryType>(Below(3)), Bytes());
    entry.checksum = static_cast<uint32_t>(Varint());
    if (Flag()) {  // the borrowed-buffer form encodes the same bytes
      entry.shared_payload =
          std::make_shared<const std::string>(std::move(entry.payload));
      entry.payload.clear();
    }
    return entry;
  }

  Message Next(int type) {
    switch (type) {
      case 0: {
        AppendEntriesRequest m;
        m.leader = Id();
        m.dest = Id();
        m.route = Route();
        m.term = Varint();
        m.prev = Op();
        m.commit_marker = Op();
        for (int i = Below(4); i > 0; --i) m.entries.push_back(Entry());
        m.proxy_payload_omitted = Flag();
        m.entries_compressed = Flag();
        m.trace_id = Varint();
        m.trace_span_id = Varint();
        m.lease_sent_micros = Varint();
        if (Flag()) m.config_payload = Bytes() + "c";  // non-empty
        return m;
      }
      case 1: {
        AppendEntriesResponse m;
        m.from = Id();
        m.dest = Id();
        m.route = Route();
        m.term = Varint();
        m.success = Flag();
        m.last_received = Op();
        m.last_durable_index = Varint();
        m.request_prev_index = Varint();
        m.trace_id = Varint();
        m.trace_span_id = Varint();
        m.lease_granted_micros = Varint();
        m.config_term = Varint();
        m.config_version = Varint();
        return m;
      }
      case 2: {
        VoteRequest m;
        m.candidate = Id();
        m.dest = Id();
        m.term = Varint();
        m.last_log = Op();
        m.candidate_region = Bytes();
        m.pre_vote = Flag();
        m.mock_election = Flag();
        m.leader_cursor_snapshot = Op();
        m.config_term = Varint();
        m.config_version = Varint();
        return m;
      }
      case 3: {
        VoteResponse m;
        m.from = Id();
        m.dest = Id();
        m.term = Varint();
        m.granted = Flag();
        m.pre_vote = Flag();
        m.mock_election = Flag();
        m.reason = Bytes();
        m.voter_region = Bytes();
        m.last_leader_term = Varint();
        m.last_leader_region = Bytes();
        return m;
      }
      default: {
        StartElectionRequest m;
        m.from = Id();
        m.dest = Id();
        m.term = Varint();
        m.mock = Flag();
        m.leader_cursor_snapshot = Op();
        return m;
      }
    }
  }

 private:
  int Below(size_t n) { return static_cast<int>(rng_() % n); }

  std::mt19937_64 rng_;
};

TEST(WireTest, MessageWireBytesMatchesEncoding) {
  MessageFuzzer fuzzer(20240613);
  bool saw_config[2] = {false, false};
  bool saw_route = false;
  for (int i = 0; i < 2000; ++i) {
    const int type = i % 5;
    const Message msg = fuzzer.Next(type);
    ASSERT_EQ(static_cast<int>(msg.index()), type);
    std::string buf;
    EncodeMessage(msg, &buf);
    ASSERT_EQ(MessageWireBytes(msg), buf.size())
        << "message " << i << " of type " << type;
    if (const auto* req = std::get_if<AppendEntriesRequest>(&msg)) {
      saw_config[req->config_payload.empty() ? 0 : 1] = true;
      saw_route |= !req->route.empty();
    }
  }
  EXPECT_TRUE(saw_config[0] && saw_config[1] && saw_route);

  // Every varint width, one field at a time.
  for (int bits = 0; bits <= 64; ++bits) {
    const uint64_t value = bits == 0 ? 0 : ~uint64_t{0} >> (64 - bits);
    StartElectionRequest m{"a", "b", value, false, {value, value}};
    std::string buf;
    EncodeMessage(m, &buf);
    EXPECT_EQ(MessageWireBytes(m), buf.size()) << bits << " bits";
    EXPECT_EQ(buf.size(), 1 + 2 + 2 + 3 * VarintLength(value) + 1u);
  }
}

}  // namespace
}  // namespace myraft

// Message-level unit tests for RaftConsensus: a single instance driven by
// hand-crafted RPCs through a capturing outbox, covering protocol edge
// cases that are hard to hit deterministically in cluster tests.

#include <gtest/gtest.h>

#include "metric_value.h"
#include "queued_defer.h"
#include "raft/consensus.h"
#include "util/logging.h"

namespace myraft::raft {
namespace {

using raft_test::QueuedDefer;

class CapturingOutbox final : public RaftOutbox {
 public:
  void Send(Message message) override { sent.push_back(std::move(message)); }

  template <typename T>
  std::vector<T> OfType() const {
    std::vector<T> out;
    for (const auto& m : sent) {
      if (const T* typed = std::get_if<T>(&m)) out.push_back(*typed);
    }
    return out;
  }

  template <typename T>
  T Last() const {
    auto all = OfType<T>();
    MYRAFT_CHECK(!all.empty());
    return all.back();
  }

  std::vector<Message> sent;
};

/// LogAbstraction wrapper injecting Append/Sync faults into a real log,
/// for the mid-batch-failure and durability-reporting regression tests.
class FaultyLog final : public LogAbstraction {
 public:
  explicit FaultyLog(LogAbstraction* base) : base_(base) {}

  /// -1 = healthy; N >= 0 = the next N appends succeed, then all appends
  /// fail until the test resets this.
  int fail_append_countdown = -1;
  bool fail_sync = false;

  Status Append(const LogEntry& entry) override {
    if (fail_append_countdown == 0) {
      return Status::IoError("injected append fault");
    }
    if (fail_append_countdown > 0) --fail_append_countdown;
    return base_->Append(entry);
  }
  Status Sync() override {
    if (fail_sync) return Status::IoError("injected sync fault");
    return base_->Sync();
  }
  Result<LogEntry> Read(uint64_t index) const override {
    return base_->Read(index);
  }
  Result<std::vector<LogEntry>> ReadBatch(uint64_t first_index,
                                          size_t max_entries,
                                          uint64_t max_bytes) const override {
    return base_->ReadBatch(first_index, max_entries, max_bytes);
  }
  Result<OpId> OpIdAt(uint64_t index) const override {
    return base_->OpIdAt(index);
  }
  OpId LastOpId() const override { return base_->LastOpId(); }
  uint64_t FirstIndex() const override { return base_->FirstIndex(); }
  bool HasEntry(uint64_t index) const override {
    return base_->HasEntry(index);
  }
  Status TruncateAfter(uint64_t index) override {
    return base_->TruncateAfter(index);
  }

 private:
  LogAbstraction* base_;
};

class RecordingListener final : public StateMachineListener {
 public:
  void OnLeadershipAcquired(uint64_t term, OpId noop) override {
    ++acquired;
  }
  void OnLeadershipLost(uint64_t term) override { ++lost; }
  void OnCommitAdvanced(OpId marker) override { last_commit = marker; }
  void OnEntryAppended(const LogEntry& entry) override { ++appended; }
  void OnSuffixTruncated(OpId new_last) override { ++truncated; }

  int acquired = 0;
  int lost = 0;
  int appended = 0;
  int truncated = 0;
  OpId last_commit;
};

class ConsensusUnitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    meta_store_ =
        std::make_unique<ConsensusMetadataStore>(env_.get(), "/cmeta");
    RaftOptions options;
    options.self = "a";
    options.region = "r0";
    options.defer = defer_.Hook();
    consensus_ = std::make_unique<RaftConsensus>(
        options, &faulty_log_, &quorum_, meta_store_.get(), &clock_, &rng_,
        &outbox_, &listener_);
    MembershipConfig config;
    config.members = {
        {"a", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
        {"b", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
        {"c", "r1", MemberKind::kMySql, RaftMemberType::kVoter},
    };
    ASSERT_TRUE(consensus_->Bootstrap(config).ok());
  }

  /// Delivers one inbound message, then runs the work it deferred (the
  /// group-commit sync and any ack held for it), as a host's loop would.
  void Deliver(const Message& message) {
    consensus_->HandleMessage(message);
    defer_.Drain();
  }

  void Tick() {
    consensus_->Tick();
    defer_.Drain();
  }

  Result<OpId> Replicate(EntryType type, std::string payload) {
    auto opid = consensus_->Replicate(type, std::move(payload));
    defer_.Drain();
    return opid;
  }

  /// Drives `a` to leadership of term 1 by granting b's vote.
  void BecomeLeader() {
    ASSERT_TRUE(
        consensus_->StartElection(ElectionMode::kRealElection).ok());
    VoteResponse grant;
    grant.from = "b";
    grant.dest = "a";
    grant.term = consensus_->term();
    grant.granted = true;
    Deliver(Message(grant));
    ASSERT_EQ(consensus_->role(), RaftRole::kLeader);
    outbox_.sent.clear();
  }

  AppendEntriesRequest MakeAppend(uint64_t term, OpId prev,
                                  std::vector<LogEntry> entries,
                                  OpId commit = kZeroOpId,
                                  const MemberId& leader = "b") {
    AppendEntriesRequest request;
    request.leader = leader;
    request.dest = "a";
    request.term = term;
    request.prev = prev;
    request.commit_marker = commit;
    request.entries = std::move(entries);
    return request;
  }

  LogEntry E(uint64_t term, uint64_t index, const std::string& payload) {
    return LogEntry::Make({term, index}, EntryType::kNoOp, payload);
  }

  /// Rebuilds `consensus_` with LeaseGuard leases on (fresh meta dir,
  /// same log/clock/outbox). Call before any appends.
  void EnableLeases() {
    RaftOptions options;
    options.self = "a";
    options.region = "r0";
    options.enable_leader_leases = true;
    options.defer = defer_.Hook();
    lease_meta_store_ =
        std::make_unique<ConsensusMetadataStore>(env_.get(), "/cmeta-lease");
    consensus_ = std::make_unique<RaftConsensus>(
        options, &faulty_log_, &quorum_, lease_meta_store_.get(), &clock_,
        &rng_, &outbox_, &listener_);
    MembershipConfig config;
    config.members = {
        {"a", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
        {"b", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
        {"c", "r1", MemberKind::kMySql, RaftMemberType::kVoter},
    };
    ASSERT_TRUE(consensus_->Bootstrap(config).ok());
  }

  /// Durable ack of the leader's whole log from `peer`, echoing the
  /// leader's active config identity (the peer installed it) and
  /// `lease_echo_micros` (0 = no echo: no grant was requested).
  void AckAll(const MemberId& peer, uint64_t lease_echo_micros) {
    AppendEntriesResponse ack;
    ack.from = peer;
    ack.dest = "a";
    ack.term = consensus_->term();
    ack.success = true;
    ack.last_received = consensus_->last_logged();
    ack.last_durable_index = ack.last_received.index;
    ack.lease_granted_micros = lease_echo_micros;
    ack.config_term = consensus_->config().config_term;
    ack.config_version = consensus_->config().config_version;
    Deliver(Message(ack));
  }

  /// A vote request to `a` stamped with `voter`'s own config identity, so
  /// the rules after the stale-config check (stale log, leader
  /// stickiness, the restart embargo) decide the outcome.
  static VoteRequest MakeVote(const RaftConsensus& voter,
                              const MemberId& candidate, uint64_t term,
                              OpId last_log, const RegionId& region) {
    VoteRequest request;
    request.candidate = candidate;
    request.dest = "a";
    request.term = term;
    request.last_log = last_log;
    request.candidate_region = region;
    request.config_term = voter.config().config_term;
    request.config_version = voter.config().config_version;
    return request;
  }

  /// The most recent AppendEntries the leader sent to `peer`.
  AppendEntriesRequest LastAppendTo(const MemberId& peer) const {
    AppendEntriesRequest last;
    for (const auto& request : outbox_.OfType<AppendEntriesRequest>()) {
      if (request.dest == peer) last = request;
    }
    EXPECT_EQ(last.dest, peer) << "nothing sent to " << peer;
    return last;
  }

  /// Heartbeats all peers and returns the send timestamp the requests
  /// were lease-stamped with.
  uint64_t SendStampedHeartbeats() {
    clock_.AdvanceMicros(600'000);  // > heartbeat interval
    outbox_.sent.clear();
    Tick();
    const auto request = outbox_.Last<AppendEntriesRequest>();
    EXPECT_EQ(request.lease_sent_micros, clock_.NowMicros());
    return request.lease_sent_micros;
  }

  ManualClock clock_;
  Random rng_{1};
  QueuedDefer defer_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<ConsensusMetadataStore> meta_store_;
  std::unique_ptr<ConsensusMetadataStore> lease_meta_store_;
  MemLog log_;
  FaultyLog faulty_log_{&log_};
  MajorityQuorumEngine quorum_;
  CapturingOutbox outbox_;
  RecordingListener listener_;
  std::unique_ptr<RaftConsensus> consensus_;
};

TEST_F(ConsensusUnitTest, StaleTermAppendRejected) {
  Deliver(Message(MakeAppend(1, kZeroOpId, {E(1, 1, "x")})));
  ASSERT_EQ(consensus_->term(), 1u);
  // A lower-term append is rejected with our current term.
  outbox_.sent.clear();
  Deliver(Message(MakeAppend(0, kZeroOpId, {E(0, 1, "y")})));
  auto response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_FALSE(response.success);
  EXPECT_EQ(response.term, 1u);
}

TEST_F(ConsensusUnitTest, DuplicateAppendIsIdempotent) {
  const auto request = MakeAppend(1, kZeroOpId, {E(1, 1, "x"), E(1, 2, "y")});
  Deliver(Message(request));
  const int appended_before = listener_.appended;
  Deliver(Message(request));  // replayed RPC
  EXPECT_EQ(listener_.appended, appended_before);
  EXPECT_EQ(consensus_->last_logged(), (OpId{1, 2}));
  auto response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_TRUE(response.success);
  EXPECT_EQ(response.last_received, (OpId{1, 2}));
}

TEST_F(ConsensusUnitTest, MissingPrevAsksForRewind) {
  Deliver(Message(MakeAppend(1, OpId{1, 5}, {E(1, 6, "future")})));
  auto response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_FALSE(response.success);
  EXPECT_EQ(response.last_received, kZeroOpId);  // hint: our last
}

TEST_F(ConsensusUnitTest, ConflictingSuffixTruncatedAndReplaced) {
  Deliver(Message(
      MakeAppend(1, kZeroOpId, {E(1, 1, "a"), E(1, 2, "old"), E(1, 3, "old")})));
  // New leader at term 2 overwrites indexes 2-3.
  Deliver(Message(MakeAppend(2, OpId{1, 1}, {E(2, 2, "new")}, kZeroOpId, "c")));
  EXPECT_EQ(listener_.truncated, 1);
  EXPECT_EQ(consensus_->last_logged(), (OpId{2, 2}));
  auto entry = log_.Read(2);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->payload, "new");
  EXPECT_FALSE(log_.Read(3).ok());
}

TEST_F(ConsensusUnitTest, MidBatchAppendFailureReportsRealTail) {
  // Regression: a mid-batch AppendToLocalLog failure used to fall through
  // to the success response, acking entries the follower never wrote; the
  // leader then advanced next_index past them and the ring lost data.
  faulty_log_.fail_append_countdown = 1;  // entry 1 lands, entry 2 fails
  Deliver(Message(MakeAppend(
      1, kZeroOpId, {E(1, 1, "a"), E(1, 2, "b"), E(1, 3, "c")})));
  auto response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_FALSE(response.success);
  EXPECT_EQ(response.last_received, (OpId{1, 1}));  // real appended tail
  EXPECT_EQ(response.last_durable_index, 1u);  // the partial prefix synced
  EXPECT_FALSE(log_.HasEntry(2));
  EXPECT_FALSE(log_.HasEntry(3));

  // The leader rewinds to the hinted tail and retries; once the log
  // heals, the remainder lands and the tail catches up.
  faulty_log_.fail_append_countdown = -1;
  Deliver(Message(MakeAppend(1, OpId{1, 1}, {E(1, 2, "b"), E(1, 3, "c")})));
  response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_TRUE(response.success);
  EXPECT_EQ(response.last_received, (OpId{1, 3}));
  EXPECT_EQ(response.last_durable_index, 3u);
}

TEST_F(ConsensusUnitTest, UnsyncedEntriesNeverReportedDurable) {
  // Regression: responses used to report last_durable_index =
  // last_received.index even when Sync() had not succeeded, so the leader
  // could count a received-but-unfsynced suffix towards the commit quorum
  // — entries a crash in that window would erase.
  faulty_log_.fail_sync = true;
  Deliver(Message(MakeAppend(1, kZeroOpId, {E(1, 1, "a"), E(1, 2, "b")})));
  auto response = outbox_.Last<AppendEntriesResponse>();
  // The ack held for the failed group sync still goes out as a success:
  // the entries are in the log and match the leader's. Only its durable
  // index, which alone counts towards commit, must stay behind.
  EXPECT_TRUE(response.success);
  EXPECT_EQ(response.last_received, (OpId{1, 2}));  // entries are in the log
  EXPECT_EQ(response.last_durable_index, 0u);       // but none are durable

  // Rejections advertise only the synced tail too.
  outbox_.sent.clear();
  Deliver(Message(MakeAppend(0, kZeroOpId, {E(0, 1, "stale")})));
  response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_FALSE(response.success);
  EXPECT_EQ(response.last_durable_index, 0u);

  // Once fsync heals, even an empty heartbeat flushes the unsynced tail
  // and durability catches up to the log.
  faulty_log_.fail_sync = false;
  outbox_.sent.clear();
  Deliver(Message(MakeAppend(1, OpId{1, 2}, {})));
  response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_TRUE(response.success);
  EXPECT_EQ(response.last_received, (OpId{1, 2}));
  EXPECT_EQ(response.last_durable_index, 2u);
}

TEST_F(ConsensusUnitTest, LeaderIgnoresUndurableAcksForCommit) {
  // The leader's match_index must track what followers have fsynced, not
  // what they have merely received.
  BecomeLeader();
  auto opid = Replicate(EntryType::kNoOp, "payload");
  ASSERT_TRUE(opid.ok());

  AppendEntriesResponse ack;
  ack.from = "b";
  ack.dest = "a";
  ack.term = consensus_->term();
  ack.success = true;
  ack.last_received = *opid;
  ack.last_durable_index = 0;  // received, not yet fsynced
  Deliver(Message(ack));
  EXPECT_FALSE(consensus_->IsCommitted(*opid));

  ack.last_durable_index = opid->index;
  Deliver(Message(ack));
  EXPECT_TRUE(consensus_->IsCommitted(*opid));
}

TEST_F(ConsensusUnitTest, CorruptEntryFromLeaderRejected) {
  LogEntry bad = E(1, 1, "payload");
  bad.payload[0] = 'X';  // breaks the checksum
  Deliver(Message(MakeAppend(1, kZeroOpId, {bad})));
  auto response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_FALSE(response.success);
  EXPECT_EQ(consensus_->last_logged(), kZeroOpId);
}

TEST_F(ConsensusUnitTest, CommitMarkerNeverExceedsLocalLog) {
  Deliver(Message(
      MakeAppend(1, kZeroOpId, {E(1, 1, "x")}, /*commit=*/OpId{1, 10})));
  EXPECT_EQ(consensus_->commit_marker(), (OpId{1, 1}));
  EXPECT_EQ(listener_.last_commit, (OpId{1, 1}));
}

TEST_F(ConsensusUnitTest, CommitMarkerMonotonic) {
  Deliver(Message(
      MakeAppend(1, kZeroOpId, {E(1, 1, "x"), E(1, 2, "y")}, OpId{1, 2})));
  EXPECT_EQ(consensus_->commit_marker().index, 2u);
  // A heartbeat with an older marker must not regress it.
  Deliver(Message(MakeAppend(1, OpId{1, 2}, {}, OpId{1, 1})));
  EXPECT_EQ(consensus_->commit_marker().index, 2u);
}

TEST_F(ConsensusUnitTest, VoteDeniedToStaleLogAndPersisted) {
  Deliver(Message(MakeAppend(1, kZeroOpId, {E(1, 1, "x")})));
  outbox_.sent.clear();

  // Candidate with an empty log at a higher term: term adopted, vote
  // denied on the log check.
  VoteRequest request = MakeVote(*consensus_, "c", 5, kZeroOpId, "r1");
  Deliver(Message(request));
  auto response = outbox_.Last<VoteResponse>();
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "stale-log");
  EXPECT_EQ(consensus_->term(), 5u);

  // An up-to-date candidate at the same term gets the vote...
  request.candidate = "b";
  request.last_log = {1, 1};
  Deliver(Message(request));
  response = outbox_.Last<VoteResponse>();
  EXPECT_TRUE(response.granted);

  // ...and the vote binds within the term, including across restart.
  request.candidate = "c";
  Deliver(Message(request));
  response = outbox_.Last<VoteResponse>();
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "already-voted");

  RaftOptions options;
  options.self = "a";
  options.region = "r0";
  options.defer = defer_.Hook();
  RaftConsensus restarted(options, &log_, &quorum_, meta_store_.get(),
                          &clock_, &rng_, &outbox_, &listener_);
  ASSERT_TRUE(restarted.Start().ok());
  EXPECT_EQ(restarted.term(), 5u);
  outbox_.sent.clear();
  restarted.HandleMessage(Message(request));  // c again at term 5
  response = outbox_.Last<VoteResponse>();
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "already-voted");
}

TEST_F(ConsensusUnitTest, PreVoteDoesNotDisturbState) {
  Deliver(Message(MakeAppend(3, kZeroOpId, {E(3, 1, "x")})));
  outbox_.sent.clear();

  VoteRequest pre = MakeVote(*consensus_, "c", 4, {3, 1}, "r1");
  pre.pre_vote = true;
  Deliver(Message(pre));
  auto response = outbox_.Last<VoteResponse>();
  // Leader "b" is fresh: stickiness denies the pre-vote.
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "leader-alive");
  EXPECT_EQ(consensus_->term(), 3u);  // no term churn

  // Once the leader has been silent past the election timeout, the
  // pre-vote is granted — still without touching the term.
  clock_.AdvanceMicros(10'000'000);
  Deliver(Message(pre));
  response = outbox_.Last<VoteResponse>();
  EXPECT_TRUE(response.granted);
  EXPECT_EQ(consensus_->term(), 3u);
}

TEST_F(ConsensusUnitTest, LeaderCommitsViaMajorityAcks) {
  BecomeLeader();
  auto opid = Replicate(EntryType::kNoOp, "payload");
  ASSERT_TRUE(opid.ok());
  EXPECT_FALSE(consensus_->IsCommitted(*opid));

  AppendEntriesResponse ack;
  ack.from = "b";
  ack.dest = "a";
  ack.term = consensus_->term();
  ack.success = true;
  ack.last_received = *opid;
  ack.last_durable_index = opid->index;
  Deliver(Message(ack));
  EXPECT_TRUE(consensus_->IsCommitted(*opid));  // a + b = 2 of 3
  EXPECT_EQ(listener_.last_commit, *opid);
}

TEST_F(ConsensusUnitTest, LeaderStepsDownOnHigherTermResponse) {
  BecomeLeader();
  AppendEntriesResponse response;
  response.from = "b";
  response.dest = "a";
  response.term = consensus_->term() + 3;
  response.success = false;
  Deliver(Message(response));
  EXPECT_EQ(consensus_->role(), RaftRole::kFollower);
  EXPECT_EQ(listener_.lost, 1);
  EXPECT_EQ(consensus_->term(), 4u);
  // Replicate is now rejected.
  EXPECT_FALSE(Replicate(EntryType::kNoOp, "x").ok());
}

TEST_F(ConsensusUnitTest, LeaderRewindsNextIndexOnFailure) {
  BecomeLeader();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(Replicate(EntryType::kNoOp, "e").ok());
  }
  // b claims it is caught up to index 4 (leader advances next to 5)...
  AppendEntriesResponse ack;
  ack.from = "b";
  ack.dest = "a";
  ack.term = consensus_->term();
  ack.success = true;
  ack.last_received = {1, 4};
  Deliver(Message(ack));
  // ...then fails a subsequent append, hinting its log really ends at 2.
  AppendEntriesResponse nack = ack;
  nack.success = false;
  nack.last_received = {1, 2};
  outbox_.sent.clear();
  Deliver(Message(nack));
  auto resend = outbox_.Last<AppendEntriesRequest>();
  EXPECT_EQ(resend.prev.index, 2u);  // rewound to the hint
  ASSERT_FALSE(resend.entries.empty());
  EXPECT_EQ(resend.entries.front().id.index, 3u);
}

TEST_F(ConsensusUnitTest, TransferLeadershipValidation) {
  BecomeLeader();
  EXPECT_TRUE(consensus_->TransferLeadership("a").IsInvalidArgument());
  EXPECT_TRUE(consensus_->TransferLeadership("ghost").IsInvalidArgument());
  ASSERT_TRUE(consensus_->TransferLeadership("b").ok());
  EXPECT_TRUE(consensus_->TransferLeadership("c").IsIllegalState());
  EXPECT_EQ(consensus_->transfer_target(), "b");
}

TEST_F(ConsensusUnitTest, QuiescedLeaderRejectsTransactionsOnly) {
  BecomeLeader();
  RaftOptions options;  // mock disabled path goes straight to quiesce
  ASSERT_TRUE(consensus_->TransferLeadership("b").ok());
  // Mock election runs first (enabled by default): not yet quiesced.
  EXPECT_FALSE(consensus_->is_quiesced_for_transfer());
  // Deliver the mock outcome directly.
  VoteResponse outcome;
  outcome.from = "b";
  outcome.dest = "a";
  outcome.term = consensus_->term();
  outcome.granted = true;
  outcome.mock_election = true;
  outcome.reason = "mock-outcome";
  Deliver(Message(outcome));
  EXPECT_TRUE(consensus_->is_quiesced_for_transfer());
  EXPECT_TRUE(Replicate(EntryType::kTransaction, "txn")
                  .status()
                  .IsServiceUnavailable());
  // Control entries (no-op/config) still pass.
  EXPECT_TRUE(Replicate(EntryType::kNoOp, "").ok());
}

TEST_F(ConsensusUnitTest, ConfigChangeGatingAndCommit) {
  BecomeLeader();
  const MemberInfo d{"d", "r1", MemberKind::kMySql, RaftMemberType::kVoter};
  // The election rebased the config onto term 1; until an install quorum
  // echoes it, that rebase is the change in flight.
  EXPECT_TRUE(consensus_->has_pending_config_change());
  EXPECT_TRUE(consensus_->AddMember(d).IsIllegalState());

  // b echoes the rebased config without acking the no-op: the config
  // commits, but a reconfig still waits for a current-term log commit.
  AppendEntriesResponse echo;
  echo.from = "b";
  echo.dest = "a";
  echo.term = consensus_->term();
  echo.success = true;
  echo.config_term = consensus_->config().config_term;
  echo.config_version = consensus_->config().config_version;
  Deliver(Message(echo));
  EXPECT_FALSE(consensus_->has_pending_config_change());
  EXPECT_TRUE(consensus_->AddMember(d).IsServiceUnavailable());

  AckAll("b", 0);  // commits the leadership no-op
  ASSERT_TRUE(consensus_->AddMember(d).ok());
  EXPECT_TRUE(consensus_->has_pending_config_change());
  EXPECT_TRUE(consensus_->AddMember(MemberInfo{"e", "r1", MemberKind::kMySql,
                                               RaftMemberType::kVoter})
                  .IsIllegalState());
  EXPECT_TRUE(consensus_->config().Contains("d"));  // active on the leader

  // Commit on the NEW config's install quorum: 4 voters, majority = 3.
  AckAll("b", 0);
  EXPECT_TRUE(consensus_->has_pending_config_change());
  AckAll("c", 0);
  EXPECT_FALSE(consensus_->has_pending_config_change());
  // The new peer is being replicated to.
  EXPECT_TRUE(consensus_->peers().count("d") > 0);

  // And can be removed again.
  ASSERT_TRUE(consensus_->RemoveMember("d").ok());
  EXPECT_FALSE(consensus_->config().Contains("d"));
}

TEST_F(ConsensusUnitTest, ConfigStampedUntilPeerEchoesIt) {
  BecomeLeader();
  ASSERT_TRUE(Replicate(EntryType::kNoOp, "x").ok());
  // No peer has answered yet: every request carries the config.
  EXPECT_FALSE(LastAppendTo("b").config_payload.empty());
  EXPECT_FALSE(LastAppendTo("c").config_payload.empty());

  // Once b's latest response echoes the active identity, batches and
  // heartbeats to b go bare; c has not echoed and still gets it.
  AckAll("b", 0);
  outbox_.sent.clear();
  ASSERT_TRUE(Replicate(EntryType::kNoOp, "y").ok());
  EXPECT_TRUE(LastAppendTo("b").config_payload.empty());
  EXPECT_FALSE(LastAppendTo("c").config_payload.empty());
  AckAll("b", 0);
  AckAll("c", 0);
  clock_.AdvanceMicros(600'000);  // > heartbeat interval
  outbox_.sent.clear();
  Tick();
  for (const char* peer : {"b", "c"}) {
    const AppendEntriesRequest heartbeat = LastAppendTo(peer);
    EXPECT_TRUE(heartbeat.IsHeartbeat()) << peer;
    EXPECT_TRUE(heartbeat.config_payload.empty()) << peer;
  }

  // A new config is stamped to every peer until each echoes it.
  const MembershipConfig before = consensus_->config();
  outbox_.sent.clear();
  ASSERT_TRUE(consensus_
                  ->AddMember({"d", "r1", MemberKind::kMySql,
                               RaftMemberType::kVoter})
                  .ok());
  for (const char* peer : {"b", "c", "d"}) {
    auto sent = DecodeMembershipConfig(LastAppendTo(peer).config_payload);
    ASSERT_TRUE(sent.ok()) << peer;
    EXPECT_TRUE(sent->SameIdAs(consensus_->config())) << peer;
  }
  AckAll("b", 0);
  clock_.AdvanceMicros(600'000);
  outbox_.sent.clear();
  Tick();
  EXPECT_TRUE(LastAppendTo("b").config_payload.empty());
  EXPECT_FALSE(LastAppendTo("c").config_payload.empty());

  // An echo of an older identity (a follower whose config went backwards)
  // re-arms stamping.
  AppendEntriesResponse stale;
  stale.from = "b";
  stale.dest = "a";
  stale.term = consensus_->term();
  stale.success = true;
  stale.last_received = consensus_->last_logged();
  stale.last_durable_index = stale.last_received.index;
  stale.config_term = before.config_term;
  stale.config_version = before.config_version;
  Deliver(Message(stale));
  clock_.AdvanceMicros(600'000);
  outbox_.sent.clear();
  Tick();
  EXPECT_FALSE(LastAppendTo("b").config_payload.empty());

  // The farewell to a removed member carries the config that drops it,
  // even though that member had echoed the previous one.
  AckAll("b", 0);
  AckAll("c", 0);
  AckAll("d", 0);
  ASSERT_FALSE(consensus_->has_pending_config_change());
  outbox_.sent.clear();
  ASSERT_TRUE(consensus_->RemoveMember("c").ok());
  auto farewell = DecodeMembershipConfig(LastAppendTo("c").config_payload);
  ASSERT_TRUE(farewell.ok());
  EXPECT_FALSE(farewell->Contains("c"));
}

TEST_F(ConsensusUnitTest, LearnerIgnoresElectionMachinery) {
  // Reconfigure a's type to learner via a fresh instance.
  auto env = NewMemEnv();
  ConsensusMetadataStore store(env.get(), "/m");
  RaftOptions options;
  options.self = "a";
  options.region = "r0";
  options.defer = defer_.Hook();
  CapturingOutbox outbox;
  RecordingListener listener;
  RaftConsensus learner(options, &log_, &quorum_, &store, &clock_, &rng_,
                        &outbox, &listener);
  MembershipConfig config;
  config.members = {
      {"a", "r0", MemberKind::kMySql, RaftMemberType::kNonVoter},
      {"b", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
      {"c", "r1", MemberKind::kMySql, RaftMemberType::kVoter},
  };
  ASSERT_TRUE(learner.Bootstrap(config).ok());
  EXPECT_EQ(learner.role(), RaftRole::kLearner);
  EXPECT_TRUE(
      learner.StartElection(ElectionMode::kRealElection).IsIllegalState());

  VoteRequest request;
  request.candidate = "b";
  request.dest = "a";
  request.term = 1;
  learner.HandleMessage(Message(request));
  auto response = outbox.Last<VoteResponse>();
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "not-a-voter");

  // Election timeouts never fire for learners.
  clock_.AdvanceMicros(60'000'000);
  learner.Tick();
  EXPECT_EQ(MetricValue(learner.metrics(), "raft.elections_started"), 0u);
}

TEST_F(ConsensusUnitTest, HeartbeatsFlowOnTick) {
  BecomeLeader();
  // Clear the outstanding-RPC flow control by acking the no-op.
  for (const MemberId& peer : {"b", "c"}) {
    AppendEntriesResponse ack;
    ack.from = peer;
    ack.dest = "a";
    ack.term = consensus_->term();
    ack.success = true;
    ack.last_received = consensus_->last_logged();
    Deliver(Message(ack));
  }
  outbox_.sent.clear();
  clock_.AdvanceMicros(600'000);  // > 500ms heartbeat interval
  Tick();
  auto heartbeats = outbox_.OfType<AppendEntriesRequest>();
  ASSERT_EQ(heartbeats.size(), 2u);  // b and c
  for (const auto& hb : heartbeats) {
    EXPECT_TRUE(hb.IsHeartbeat());
    EXPECT_EQ(hb.term, consensus_->term());
  }
  EXPECT_GE(MetricValue(consensus_->metrics(), "raft.heartbeats_sent"), 2u);
}

TEST_F(ConsensusUnitTest, MisaddressedMessagesIgnored) {
  auto request = MakeAppend(1, kZeroOpId, {E(1, 1, "x")});
  request.dest = "someone-else";
  Deliver(Message(request));
  EXPECT_EQ(consensus_->last_logged(), kZeroOpId);
  EXPECT_TRUE(outbox_.sent.empty());
}

TEST_F(ConsensusUnitTest, PartitionedLeaderStaysLeader) {
  // Faithful to kuduraft: a fully partitioned leader stays leader (§4.1:
  // "we currently choose consistency over availability").
  BecomeLeader();
  clock_.AdvanceMicros(60'000'000);
  Tick();
  EXPECT_EQ(consensus_->role(), RaftRole::kLeader);
  EXPECT_EQ(MetricValue(consensus_->metrics(), "raft.step_downs"), 0u);
}

TEST_F(ConsensusUnitTest, VotesDeniedToRemovedCandidates) {
  // "d" is not in the config (e.g. removed while partitioned); its
  // campaigns must be rejected regardless of log length.
  VoteRequest request;
  request.candidate = "d";
  request.dest = "a";
  request.term = 9;
  request.last_log = {8, 100};
  request.candidate_region = "r1";
  Deliver(Message(request));
  auto response = outbox_.Last<VoteResponse>();
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "candidate-not-a-voter");
}

TEST_F(ConsensusUnitTest, BootstrapValidation) {
  auto env = NewMemEnv();
  ConsensusMetadataStore store(env.get(), "/m");
  RaftOptions options;
  options.self = "zz";
  options.region = "r0";
  options.defer = defer_.Hook();
  CapturingOutbox outbox;
  RecordingListener listener;
  MemLog log;
  RaftConsensus consensus(options, &log, &quorum_, &store, &clock_, &rng_,
                          &outbox, &listener);
  // Config without self is rejected; Start without bootstrap is too.
  MembershipConfig config;
  config.members = {{"a", "r0", MemberKind::kMySql, RaftMemberType::kVoter}};
  EXPECT_TRUE(consensus.Bootstrap(config).IsInvalidArgument());
  EXPECT_TRUE(consensus.Start().code() == StatusCode::kUninitialized);
}

// --- LeaseGuard leader leases (§13) --------------------------------------

TEST_F(ConsensusUnitTest, LeaseReadsNeedQuorumOfFreshGrants) {
  EnableLeases();
  BecomeLeader();
  AckAll("b", 0);  // commit the leadership no-op, no grant yet
  EXPECT_EQ(listener_.last_commit, consensus_->last_logged());
  EXPECT_FALSE(consensus_->HasValidLease());

  // Skip past the deferred-handoff window, then gather fresh grants:
  // self plus b's echo satisfy the 2-of-3 commit quorum.
  clock_.AdvanceMicros(kLeaseDurationMicros + kLeaseDriftMarginMicros + 1);
  const uint64_t sent = SendStampedHeartbeats();
  EXPECT_FALSE(consensus_->HasValidLease());
  AckAll("b", sent);
  EXPECT_TRUE(consensus_->HasValidLease());

  // Served locally at the commit marker, with zero outbound messages.
  outbox_.sent.clear();
  RaftConsensus::ReadResult read;
  consensus_->LinearizableRead(
      [&](const RaftConsensus::ReadResult& r) { read = r; });
  EXPECT_TRUE(read.status.ok());
  EXPECT_TRUE(read.served_by_lease);
  EXPECT_EQ(read.read_index, consensus_->commit_marker());
  EXPECT_TRUE(outbox_.sent.empty());
  EXPECT_EQ(MetricValue(consensus_->metrics(), "raft.reads_lease"), 1u);

  // Grants age out (duration minus drift margin after the stamp); the
  // lease must lapse on its own, bounding any stale window.
  clock_.AdvanceMicros(kLeaseDurationMicros);
  EXPECT_FALSE(consensus_->HasValidLease());
}

TEST_F(ConsensusUnitTest, NewLeaderDefersLeaseServiceThroughHandoffWindow) {
  EnableLeases();
  BecomeLeader();
  AckAll("b", 0);
  // Fresh grants from a commit quorum — but a brand-new leader must
  // first wait out every grant its deposed predecessor could still hold,
  // so the lease stays unusable through the serve-after window.
  const uint64_t sent = SendStampedHeartbeats();
  AckAll("b", sent);
  EXPECT_FALSE(consensus_->HasValidLease());

  // Reads still work: they fall back to a ReadIndex quorum round.
  outbox_.sent.clear();
  bool done = false;
  RaftConsensus::ReadResult read;
  consensus_->LinearizableRead(
      [&](const RaftConsensus::ReadResult& r) { read = r; done = true; });
  EXPECT_FALSE(done);  // awaiting a fresh round of acks
  const auto round = outbox_.Last<AppendEntriesRequest>();
  AckAll("b", round.lease_sent_micros);
  ASSERT_TRUE(done);
  EXPECT_TRUE(read.status.ok());
  EXPECT_FALSE(read.served_by_lease);

  // Once the window has provably drained, the standing grants count.
  clock_.AdvanceMicros(800'000);
  EXPECT_TRUE(consensus_->HasValidLease());
}

TEST_F(ConsensusUnitTest, DeposedLeaseholderRefusesReadsImmediately) {
  EnableLeases();
  BecomeLeader();
  AckAll("b", 0);
  clock_.AdvanceMicros(kLeaseDurationMicros + kLeaseDriftMarginMicros + 1);
  AckAll("b", SendStampedHeartbeats());
  ASSERT_TRUE(consensus_->HasValidLease());

  // A higher-term response deposes us mid-lease: reads must stop at
  // once, long before the grants' wall-clock expiry.
  AppendEntriesResponse higher;
  higher.from = "b";
  higher.dest = "a";
  higher.term = consensus_->term() + 1;
  higher.success = false;
  Deliver(Message(higher));
  EXPECT_EQ(consensus_->role(), RaftRole::kFollower);
  EXPECT_FALSE(consensus_->HasValidLease());
  RaftConsensus::ReadResult read;
  consensus_->LinearizableRead(
      [&](const RaftConsensus::ReadResult& r) { read = r; });
  EXPECT_TRUE(read.status.IsIllegalState());
}

TEST_F(ConsensusUnitTest, StepDownFailsPendingQuorumReads) {
  BecomeLeader();  // leases off: every read takes the quorum round
  AckAll("b", 0);
  bool done = false;
  Status status;
  consensus_->LinearizableRead(
      [&](const RaftConsensus::ReadResult& r) {
        done = true;
        status = r.status;
      });
  EXPECT_FALSE(done);
  AppendEntriesResponse higher;
  higher.from = "b";
  higher.dest = "a";
  higher.term = consensus_->term() + 1;
  higher.success = false;
  Deliver(Message(higher));
  ASSERT_TRUE(done);  // failed, not leaked
  EXPECT_FALSE(status.ok());
}

TEST_F(ConsensusUnitTest, ReadIndexIgnoresAcksSentBeforeRegistration) {
  // The echo round only runs with leases on (off, reads use the commit
  // barrier); a fresh leader inside the handoff window falls back to it.
  EnableLeases();
  BecomeLeader();
  AckAll("b", 0);
  clock_.AdvanceMicros(1'000);
  bool done = false;
  RaftConsensus::ReadResult read;
  consensus_->LinearizableRead(
      [&](const RaftConsensus::ReadResult& r) { read = r; done = true; });
  EXPECT_FALSE(done);
  // An ack echoing a send timestamp older than the registration — a
  // response already in flight when the read arrived — proves nothing
  // about current leadership and must not confirm the round.
  AckAll("b", clock_.NowMicros() - 1);
  EXPECT_FALSE(done);
  AckAll("b", clock_.NowMicros());
  ASSERT_TRUE(done);
  EXPECT_TRUE(read.status.ok());
  EXPECT_FALSE(read.served_by_lease);
  EXPECT_EQ(MetricValue(consensus_->metrics(), "raft.reads_quorum"), 1u);
}

TEST_F(ConsensusUnitTest, LeasesOffReadsCompleteOnBarrierCommit) {
  BecomeLeader();
  AckAll("b", 0);  // commit the leadership no-op at index 1
  const uint64_t before = consensus_->last_logged().index;
  bool done1 = false, done2 = false;
  RaftConsensus::ReadResult read1, read2;
  consensus_->LinearizableRead(
      [&](const RaftConsensus::ReadResult& r) { read1 = r; done1 = true; });
  consensus_->LinearizableRead(
      [&](const RaftConsensus::ReadResult& r) { read2 = r; done2 = true; });
  // One shared barrier no-op for both reads, not one each.
  EXPECT_EQ(consensus_->last_logged().index, before + 1);
  EXPECT_FALSE(done1);
  EXPECT_FALSE(done2);
  // An ack without an echo commits the barrier; both reads complete
  // at the marker captured when they registered.
  AckAll("b", 0);
  ASSERT_TRUE(done1);
  ASSERT_TRUE(done2);
  EXPECT_TRUE(read1.status.ok());
  EXPECT_FALSE(read1.served_by_lease);
  EXPECT_EQ(read1.read_index.index, before);
  EXPECT_TRUE(read2.status.ok());
  EXPECT_EQ(MetricValue(consensus_->metrics(), "raft.reads_quorum"), 2u);
}

TEST_F(ConsensusUnitTest, LeasesOffAppendsCarryNoLeaseFields) {
  // With leases off the leader requests no grant: followers then echo
  // nothing and reads take the commit-barrier path (§13.2).
  BecomeLeader();
  AckAll("b", 0);  // drain the no-op batch so the tick heartbeats
  clock_.AdvanceMicros(600'000);
  outbox_.sent.clear();
  Tick();
  const auto request = outbox_.Last<AppendEntriesRequest>();
  EXPECT_EQ(request.lease_sent_micros, 0u);
}

TEST_F(ConsensusUnitTest, PendingReadsFailAfterDeadline) {
  BecomeLeader();
  AckAll("b", 0);
  bool done = false;
  RaftConsensus::ReadResult read;
  consensus_->LinearizableRead(
      [&](const RaftConsensus::ReadResult& r) { read = r; done = true; });
  EXPECT_FALSE(done);
  // Quorum never answers (leader partitioned; it never steps down on its
  // own, §4.1): the callback must not be parked forever.
  clock_.AdvanceMicros(2'400'000);  // < rpc timeout + election timeout
  Tick();
  EXPECT_FALSE(done);
  clock_.AdvanceMicros(200'000);  // past the deadline
  Tick();
  ASSERT_TRUE(done);
  EXPECT_TRUE(read.status.IsTimedOut());
  EXPECT_EQ(MetricValue(consensus_->metrics(), "raft.reads_timed_out"), 1u);
}

TEST_F(ConsensusUnitTest, LeaseHolderCampaignsThroughPreVote) {
  // Lease safety rests on pre-vote stickiness (§13.6): a follower whose
  // leader times out asks for pre-votes first and touches neither its
  // term nor its vote until a pre-vote quorum answers.
  EnableLeases();
  outbox_.sent.clear();
  clock_.AdvanceMicros(10'000'000);  // past any jittered election timeout
  Tick();
  const auto request = outbox_.Last<VoteRequest>();
  EXPECT_TRUE(request.pre_vote);
  EXPECT_EQ(request.term, 1u);  // the term it would campaign in
  EXPECT_EQ(consensus_->term(), 0u);
  EXPECT_EQ(MetricValue(consensus_->metrics(), "raft.pre_votes_started"), 1u);
  EXPECT_EQ(MetricValue(consensus_->metrics(), "raft.elections_started"), 0u);
}

TEST_F(ConsensusUnitTest, StartRequiresDefer) {
  // A leader's writes become durable only through the group-commit sync
  // stage, which the host's defer hook drives: without one nothing could
  // ever commit, so Start() refuses.
  RaftOptions options;
  options.self = "a";
  options.region = "r0";
  auto store =
      std::make_unique<ConsensusMetadataStore>(env_.get(), "/cmeta-nodefer");
  RaftConsensus bad(options, &faulty_log_, &quorum_, store.get(), &clock_,
                    &rng_, &outbox_, &listener_);
  MembershipConfig config;
  config.members = {
      {"a", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
  };
  EXPECT_TRUE(bad.Bootstrap(config).IsInvalidArgument());
  EXPECT_TRUE(bad.Start().IsInvalidArgument());
}

TEST_F(ConsensusUnitTest, RestartEmbargoesVotesThroughGrantWindow) {
  EnableLeases();
  BecomeLeader();  // persists term 1; this node may have echoed a grant
  AckAll("b", 0);

  // Crash-restart on the same durable state: the grant promise lived in
  // volatile memory, so the voter must refuse to depose anyone until the
  // longest grant it could have made has expired.
  RaftOptions options;
  options.self = "a";
  options.region = "r0";
  options.defer = defer_.Hook();
  options.enable_leader_leases = true;
  RaftConsensus restarted(options, &faulty_log_, &quorum_,
                          lease_meta_store_.get(), &clock_, &rng_, &outbox_,
                          &listener_);
  ASSERT_TRUE(restarted.Start().ok());
  outbox_.sent.clear();

  VoteRequest pre = MakeVote(restarted, "c", restarted.term() + 1,
                             restarted.last_logged(), "r1");
  pre.pre_vote = true;
  restarted.HandleMessage(Message(pre));
  auto response = outbox_.Last<VoteResponse>();
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "startup-lease-embargo");

  VoteRequest binding = pre;
  binding.pre_vote = false;
  restarted.HandleMessage(Message(binding));
  response = outbox_.Last<VoteResponse>();
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "startup-lease-embargo");

  // Once duration + margin has passed, every possible grant has expired
  // and normal vote rules resume.
  clock_.AdvanceMicros(kLeaseDurationMicros + kLeaseDriftMarginMicros + 1);
  restarted.HandleMessage(Message(pre));
  response = outbox_.Last<VoteResponse>();
  EXPECT_TRUE(response.granted);
  restarted.HandleMessage(Message(binding));
  response = outbox_.Last<VoteResponse>();
  EXPECT_TRUE(response.granted);
}

TEST_F(ConsensusUnitTest, FirstBootSkipsVoteEmbargo) {
  // A freshly bootstrapped voter (term 0, empty log) can never have
  // granted a lease — an echo requires leader contact, which persists a
  // term bump first. No embargo, or every new cluster would stall.
  EnableLeases();
  Deliver(Message(MakeVote(*consensus_, "b", 1, kZeroOpId, "r0")));
  auto response = outbox_.Last<VoteResponse>();
  EXPECT_TRUE(response.granted);
}

TEST_F(ConsensusUnitTest, LeadershipTransferRevokesLease) {
  EnableLeases();
  BecomeLeader();
  AckAll("b", 0);
  clock_.AdvanceMicros(kLeaseDurationMicros + kLeaseDriftMarginMicros + 1);
  const uint64_t sent = SendStampedHeartbeats();
  AckAll("b", sent);
  ASSERT_TRUE(consensus_->HasValidLease());

  ASSERT_TRUE(consensus_->TransferLeadership("b").ok());
  VoteResponse outcome;  // mock election passes
  outcome.from = "b";
  outcome.dest = "a";
  outcome.term = consensus_->term();
  outcome.granted = true;
  outcome.mock_election = true;
  outcome.reason = "mock-outcome";
  Deliver(Message(outcome));
  ASSERT_TRUE(consensus_->is_quiesced_for_transfer());
  // The caught-up target triggers TimeoutNow; every grant is revoked
  // first so this (still unaware, not yet deposed) leaseholder can never
  // serve a lease read racing its successor's election.
  AckAll("b", clock_.NowMicros());
  EXPECT_FALSE(outbox_.OfType<StartElectionRequest>().empty());
  EXPECT_FALSE(consensus_->HasValidLease());
}

}  // namespace
}  // namespace myraft::raft

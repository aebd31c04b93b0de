// Pipelined-replication tests: the bounded in-flight window on the leader
// (streaming, duplicate suppression, stall accounting), out-of-order and
// stale response handling, rewind-cancels-suffix, timeout recovery and wire
// compression. Cluster-level convergence under heavy chaos jitter and loss
// (reordering as a fault) rides on the sim network.

#include <gtest/gtest.h>

#include "metric_value.h"
#include "queued_defer.h"
#include "raft/consensus.h"
#include "raft_test_harness.h"
#include "util/coding.h"
#include "util/compression.h"
#include "util/logging.h"

namespace myraft::raft {
namespace {

class CapturingOutbox final : public RaftOutbox {
 public:
  void Send(Message message) override { sent.push_back(std::move(message)); }

  std::vector<AppendEntriesRequest> AppendsTo(const MemberId& dest) const {
    std::vector<AppendEntriesRequest> out;
    for (const auto& m : sent) {
      const auto* typed = std::get_if<AppendEntriesRequest>(&m);
      if (typed != nullptr && typed->dest == dest) out.push_back(*typed);
    }
    return out;
  }

  uint64_t PayloadBytesTo(const MemberId& dest) const {
    uint64_t bytes = 0;
    for (const auto& request : AppendsTo(dest)) {
      for (const auto& entry : request.entries) bytes += entry.payload.size();
    }
    return bytes;
  }

  std::vector<Message> sent;
};

class PipeliningTest : public ::testing::Test {
 protected:
  void Start(RaftOptions options) {
    env_ = NewMemEnv();
    meta_store_ =
        std::make_unique<ConsensusMetadataStore>(env_.get(), "/cmeta");
    options.self = "a";
    options.region = "r0";
    options.defer = defer_.Hook();
    consensus_ = std::make_unique<RaftConsensus>(
        options, &log_, &quorum_, meta_store_.get(), &clock_, &rng_,
        &outbox_, &listener_);
    MembershipConfig config;
    config.members = {
        {"a", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
        {"b", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
        {"c", "r1", MemberKind::kMySql, RaftMemberType::kVoter},
    };
    ASSERT_TRUE(consensus_->Bootstrap(config).ok());
    ASSERT_TRUE(
        consensus_->StartElection(ElectionMode::kRealElection).ok());
    VoteResponse grant;
    grant.from = "b";
    grant.dest = "a";
    grant.term = consensus_->term();
    grant.granted = true;
    Deliver(Message(grant));
    ASSERT_EQ(consensus_->role(), RaftRole::kLeader);
    // Commit the leader's no-op so later batches start from a clean base.
    AckFrom("b", log_.LastOpId());
    outbox_.sent.clear();
  }

  /// Pipeline-friendly options: one entry per batch, window of 4. The
  /// tests' one-byte payloads stay far below kWireCompressionMinBytes, so
  /// batches ship raw unless a test replicates a larger payload.
  RaftOptions SmallBatchOptions() {
    RaftOptions options;
    options.max_entries_per_rpc = 1;
    options.max_inflight_batches = 4;
    return options;
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

  void AckFrom(const MemberId& from, OpId received) {
    AppendEntriesResponse response;
    response.from = from;
    response.dest = "a";
    response.term = consensus_->term();
    response.success = true;
    response.last_received = received;
    response.last_durable_index = received.index;
    Deliver(Message(response));
  }

  void RejectFrom(const MemberId& from, OpId hint,
                  uint64_t term_override = 0) {
    AppendEntriesResponse response;
    response.from = from;
    response.dest = "a";
    response.term = term_override != 0 ? term_override : consensus_->term();
    response.success = false;
    response.last_received = hint;
    response.last_durable_index = hint.index;
    // A real follower echoes the refused request's prev; its tail hint is
    // the closest stand-in a synthesized rejection has.
    response.request_prev_index = hint.index;
    Deliver(Message(response));
  }

  std::vector<OpId> Replicate(int n, const std::string& payload = "x") {
    std::vector<OpId> out;
    for (int i = 0; i < n; ++i) {
      auto opid = consensus_->Replicate(EntryType::kNoOp, payload);
      MYRAFT_CHECK(opid.ok());
      out.push_back(*opid);
    }
    defer_.Drain();  // one group sync covers the burst
    return out;
  }

  ManualClock clock_;
  Random rng_{1};
  raft_test::QueuedDefer defer_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<ConsensusMetadataStore> meta_store_;
  MemLog log_;
  MajorityQuorumEngine quorum_;
  CapturingOutbox outbox_;
  StateMachineListener listener_;
  std::unique_ptr<RaftConsensus> consensus_;
};

TEST_F(PipeliningTest, StreamsBatchesUpToWindowLimit) {
  Start(SmallBatchOptions());
  Replicate(6);
  // One entry per batch, window of 4: exactly 4 batches stream to each
  // peer before any ack; the remaining 2 stall.
  auto to_b = outbox_.AppendsTo("b");
  ASSERT_EQ(to_b.size(), 4u);
  for (size_t i = 0; i < to_b.size(); ++i) {
    ASSERT_EQ(to_b[i].entries.size(), 1u);
    // Consecutive batches chain: prev advances one entry at a time.
    EXPECT_EQ(to_b[i].prev.index, to_b[0].prev.index + i);
  }
  EXPECT_GT(MetricValue(consensus_->metrics(), "raft.pipeline_stalls"), 0u);
  EXPECT_EQ(consensus_->peers().at("b").inflight.size(), 4u);

  // A cumulative ack covering all four batches drains the window and the
  // stalled suffix streams immediately.
  outbox_.sent.clear();
  AckFrom("b", to_b.back().entries.back().id);
  to_b = outbox_.AppendsTo("b");
  ASSERT_EQ(to_b.size(), 2u);
  EXPECT_EQ(to_b[0].prev.index + 1, to_b[1].prev.index);
}

TEST_F(PipeliningTest, NoDuplicateSendWhileBatchOutstanding) {
  // Regression: the leader used to re-send from next_index on broadcast
  // ticks while a batch was outstanding, duplicating payload bytes under
  // latency. With the optimistic cursor, ticks send nothing new.
  Start(SmallBatchOptions());
  Replicate(2);
  const uint64_t bytes_after_send = outbox_.PayloadBytesTo("b");
  EXPECT_GT(bytes_after_send, 0u);
  for (int i = 0; i < 5; ++i) {
    clock_.AdvanceMicros(10'000);  // well under rpc_timeout
    Tick();
  }
  EXPECT_EQ(outbox_.PayloadBytesTo("b"), bytes_after_send);
}

TEST_F(PipeliningTest, OutOfOrderAcksAreMonotone) {
  Start(SmallBatchOptions());
  auto opids = Replicate(4);
  // The ack for batch 3 overtakes the acks for batches 1-2 (jittery
  // link): the cumulative tail retires all three batches at once...
  AckFrom("b", opids[2]);
  EXPECT_EQ(consensus_->peers().at("b").match_index, opids[2].index);
  EXPECT_EQ(consensus_->peers().at("b").inflight.size(), 1u);
  // ...and the late-arriving ack for batch 1 is a harmless no-op.
  AckFrom("b", opids[0]);
  EXPECT_EQ(consensus_->peers().at("b").match_index, opids[2].index);
  EXPECT_EQ(consensus_->peers().at("b").inflight.size(), 1u);
  AckFrom("b", opids[3]);
  EXPECT_TRUE(consensus_->peers().at("b").inflight.empty());
  EXPECT_TRUE(consensus_->IsCommitted(opids[3]));
}

TEST_F(PipeliningTest, StaleRejectionBelowMatchIgnored) {
  Start(SmallBatchOptions());
  auto opids = Replicate(4);
  AckFrom("b", opids[3]);  // fully caught up: match = last
  const uint64_t next_before = consensus_->peers().at("b").next_index;
  outbox_.sent.clear();
  // A reordered rejection from before the acks arrives late. Its hint is
  // below b's match index, so acting on it would re-stream an
  // already-acked suffix; it must be dropped.
  RejectFrom("b", opids[0]);
  EXPECT_EQ(MetricValue(consensus_->metrics(), "raft.stale_responses_ignored"),
            1u);
  EXPECT_EQ(consensus_->peers().at("b").next_index, next_before);
  EXPECT_TRUE(outbox_.AppendsTo("b").empty());
}

TEST_F(PipeliningTest, RejectionCancelsInflightSuffixAndRewinds) {
  Start(SmallBatchOptions());
  Replicate(4);
  auto first_wave = outbox_.AppendsTo("b");
  ASSERT_EQ(first_wave.size(), 4u);
  const uint64_t base = first_wave[0].entries[0].id.index;
  outbox_.sent.clear();
  // b rejects the first batch (log-matching conflict at prev). The three
  // batches behind it chain off the rejected one, so the whole window is
  // cancelled and the leader restreams from the rewound cursor — stepping
  // back at least one entry below the rejected batch to guarantee
  // progress against a conflicting prev.
  RejectFrom("b", OpId{0, base - 1});
  EXPECT_GE(MetricValue(consensus_->metrics(), "raft.window_rewinds"), 1u);
  auto second_wave = outbox_.AppendsTo("b");
  ASSERT_EQ(second_wave.size(), 4u);
  EXPECT_EQ(second_wave[0].prev.index, base - 2);
  EXPECT_EQ(second_wave[0].entries[0].id.index, base - 1);
}

TEST_F(PipeliningTest, OldestBatchTimeoutRewindsWindow) {
  Start(SmallBatchOptions());
  Replicate(3);
  auto first_wave = outbox_.AppendsTo("b");
  ASSERT_EQ(first_wave.size(), 3u);
  outbox_.sent.clear();
  // No response at all: past rpc_timeout the oldest in-flight batch is
  // declared lost, the window is rewound, and the suffix restreams.
  clock_.AdvanceMicros(2'000'000);
  Tick();
  EXPECT_GE(MetricValue(consensus_->metrics(), "raft.window_rewinds"), 1u);
  auto second_wave = outbox_.AppendsTo("b");
  ASSERT_EQ(second_wave.size(), 3u);
  EXPECT_EQ(second_wave[0].prev.index, first_wave[0].prev.index);
}

TEST_F(PipeliningTest, StallCountsTransitionsNotAttempts) {
  Start(SmallBatchOptions());
  auto opids = Replicate(7);
  // Window of 4: entries 5-7 each bounce off the full window, but the
  // stall counter records the *transition* into the stalled state — one
  // per peer (b and c) — not one per blocked send attempt.
  EXPECT_EQ(MetricValue(consensus_->metrics(), "raft.pipeline_stalls"), 2u);
  // Draining b's window ends its stall and records its duration in the
  // stall histogram; c stays stalled without further counting.
  clock_.AdvanceMicros(3'000);
  AckFrom("b", opids[3]);
  const auto* stall_hist =
      consensus_->metrics()->FindHistogram("raft.stall_duration_us");
  ASSERT_NE(stall_hist, nullptr);
  EXPECT_GE(stall_hist->histogram().count(), 1u);
  EXPECT_EQ(MetricValue(consensus_->metrics(), "raft.pipeline_stalls"), 2u);
}

TEST_F(PipeliningTest, MarkerOnlyHeartbeatWhenWindowFull) {
  RaftOptions options = SmallBatchOptions();
  options.max_inflight_batches = 1;
  Start(options);
  auto opids = Replicate(2);
  // "c" never acks: its one-slot window is pinned by the bootstrap no-op
  // batch, so the commit marker cannot ride a new entry batch to it.
  outbox_.sent.clear();
  AckFrom("b", opids[1]);  // a+b majority commits both entries
  ASSERT_TRUE(consensus_->IsCommitted(opids[1]));
  clock_.AdvanceMicros(10'000);  // under heartbeat interval & rpc timeout
  Tick();
  // The marker still reaches c: an entry-less heartbeat anchored at c's
  // acked match point, leaving the in-flight window untouched.
  auto to_c = outbox_.AppendsTo("c");
  ASSERT_GE(to_c.size(), 1u);
  const AppendEntriesRequest& hb = to_c.back();
  EXPECT_TRUE(hb.entries.empty());
  EXPECT_EQ(hb.commit_marker.index, opids[1].index);
  EXPECT_EQ(hb.prev.index, consensus_->peers().at("c").match_index);
  EXPECT_GE(MetricValue(consensus_->metrics(), "raft.marker_only_heartbeats"),
            1u);
  EXPECT_EQ(consensus_->peers().at("c").inflight.size(), 1u);
  // The marker is only re-sent once it advances again: an immediate
  // second tick stays quiet.
  outbox_.sent.clear();
  Tick();
  EXPECT_TRUE(outbox_.AppendsTo("c").empty());
}

TEST_F(PipeliningTest, WindowStaysStaticUnderFastAcks) {
  Start(SmallBatchOptions());  // window of 4
  auto opids = Replicate(4);
  // One cumulative ack 5ms later: four batches delivered inside one RTT.
  clock_.AdvanceMicros(5'000);
  AckFrom("b", opids[3]);
  // However fast the acks came back, the next burst streams only
  // max_inflight_batches batches before the window closes.
  outbox_.sent.clear();
  Replicate(6);
  EXPECT_EQ(outbox_.AppendsTo("b").size(), 4u);
  EXPECT_EQ(consensus_->peers().at("b").inflight.size(), 4u);
  // "c" never acked: its window has been full since setup.
  EXPECT_EQ(outbox_.AppendsTo("c").size(), 0u);
}

TEST_F(PipeliningTest, TermBumpMidWindowStepsDown) {
  Start(SmallBatchOptions());
  Replicate(4);
  ASSERT_EQ(consensus_->peers().at("b").inflight.size(), 4u);
  RejectFrom("b", OpId{0, 0}, consensus_->term() + 1);
  EXPECT_EQ(consensus_->role(), RaftRole::kFollower);
  EXPECT_TRUE(consensus_->peers().empty());  // window state discarded
}

TEST_F(PipeliningTest, LargeBatchesCompressedOnTheWire) {
  Start(SmallBatchOptions());
  const std::string compressible(4096, 'z');
  Replicate(1, compressible);
  auto to_b = outbox_.AppendsTo("b");
  ASSERT_EQ(to_b.size(), 1u);
  EXPECT_TRUE(to_b[0].entries_compressed);
  // The hot tail ships the LogCache's already-compressed span borrowed
  // via shared_payload (zero-copy), so size the logical bytes, not the
  // owned payload string (empty for a borrowed buffer).
  EXPECT_GT(to_b[0].entries[0].payload_bytes().size(), 0u);
  EXPECT_LT(to_b[0].entries[0].payload_bytes().size(), compressible.size());
  EXPECT_GE(MetricValue(consensus_->metrics(), "raft.wire_batches_compressed"),
            1u);
  EXPECT_GE(MetricValue(consensus_->metrics(), "raft.zero_copy_batches"), 1u);
}

TEST_F(PipeliningTest, CompressionStartsAtTheThreshold) {
  Start(SmallBatchOptions());
  // One byte short of kWireCompressionMinBytes ships raw; the threshold
  // itself ships compressed.
  Replicate(1, std::string(kWireCompressionMinBytes - 1, 'z'));
  Replicate(1, std::string(kWireCompressionMinBytes, 'z'));
  auto to_b = outbox_.AppendsTo("b");
  ASSERT_EQ(to_b.size(), 2u);
  EXPECT_FALSE(to_b[0].entries_compressed);
  EXPECT_EQ(to_b[0].entries[0].payload_bytes().size(),
            kWireCompressionMinBytes - 1);
  EXPECT_TRUE(to_b[1].entries_compressed);
  EXPECT_LT(to_b[1].entries[0].payload_bytes().size(),
            kWireCompressionMinBytes);
  // One compressed batch each for b and c.
  EXPECT_EQ(MetricValue(consensus_->metrics(), "raft.wire_batches_compressed"),
            2u);
}

TEST_F(PipeliningTest, FollowerInflatesCompressedBatch) {
  Start(RaftOptions());  // "a" is leader; step it down to follow "b" at term 9
  const std::string payload(2048, 'q');
  LogEntry entry = LogEntry::Make({9, 2}, EntryType::kNoOp, payload);
  // Wire form: payload LzCompress'd, checksum still over the original.
  LogEntry wire = entry;
  LzCompress(entry.payload, &wire.payload);
  ASSERT_LT(wire.payload.size(), payload.size());

  AppendEntriesRequest request;
  request.leader = "b";
  request.dest = "a";
  request.term = 9;
  request.prev = consensus_->last_logged();
  request.entries = {wire};
  request.entries_compressed = true;
  Deliver(Message(request));

  ASSERT_EQ(consensus_->role(), RaftRole::kFollower);
  auto stored = log_.Read(entry.id.index);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->payload, payload);  // inflated before append
  EXPECT_TRUE(stored->VerifyChecksum());
}

TEST_F(PipeliningTest, CorruptCompressedBatchRejectedNotApplied) {
  Start(RaftOptions());
  // Garbage, and a decompression bomb: a block declaring 8 bytes whose
  // match would expand to 2^34 (it used to abort the process).
  std::string bomb;
  PutVarint64(&bomb, 8);
  bomb += std::string("\x00\x01" "a" "\x01", 4);
  PutVarint64(&bomb, 1ull << 34);
  PutVarint64(&bomb, 1);
  for (const std::string& corrupt : {std::string("\xff\xff garbage"), bomb}) {
    LogEntry wire = LogEntry::Make({9, 2}, EntryType::kNoOp, "not-lz-data");
    wire.payload = corrupt;
    AppendEntriesRequest request;
    request.leader = "b";
    request.dest = "a";
    request.term = 9;
    request.prev = consensus_->last_logged();
    request.entries = {wire};
    request.entries_compressed = true;
    outbox_.sent.clear();
    Deliver(Message(request));
    EXPECT_FALSE(log_.HasEntry(wire.id.index));
    bool saw_failure = false;
    for (const auto& m : outbox_.sent) {
      const auto* r = std::get_if<AppendEntriesResponse>(&m);
      if (r != nullptr && !r->success) saw_failure = true;
    }
    EXPECT_TRUE(saw_failure);
  }
}

// --- Cluster-level: reordering and delay via the sim network ------------------

TEST(PipeliningClusterTest, ConvergesUnderJitterLossAndLaggedFollower) {
  using namespace myraft::raft_test;
  // Heavy chaos jitter makes in-flight batches and their acks arrive out
  // of order (latency-model jitter cannot: links are FIFO); loss
  // exercises the timeout-rewind path.
  sim::NetworkOptions net;
  net.same_region = {150, 0};
  net.cross_region = {5'000, 0};
  net.chaos_jitter_micros = 10'000;
  net.loss_rate = 0.03;
  RaftTestCluster cluster(1234, net);
  cluster.AddMemberSpec("a", "r0");
  cluster.AddMemberSpec("b", "r0");
  cluster.AddMemberSpec("c", "r1");
  MajorityQuorumEngine quorum;
  RaftOptions options;
  options.max_entries_per_rpc = 2;  // many small batches in flight
  options.max_inflight_batches = 4;
  cluster.StartAll(&quorum, options);
  const MemberId leader = cluster.WaitForLeader(30'000'000);
  ASSERT_FALSE(leader.empty());
  // One follower's data path is badly backlogged while its acks stay
  // fast — rejections/acks for old windows keep crossing new batches.
  MemberId lagged;
  for (const auto& id : cluster.ids()) {
    if (id != leader) {
      lagged = id;
      break;
    }
  }
  cluster.network()->SetNodeReplicationLag(lagged, 30'000);

  RaftConsensus* lead = cluster.node(leader)->consensus();
  OpId last;
  for (int i = 0; i < 120; ++i) {
    auto opid =
        lead->Replicate(EntryType::kNoOp, "p" + std::to_string(i));
    if (opid.ok()) last = *opid;
    cluster.loop()->RunFor(5'000);
    if (lead->role() != RaftRole::kLeader) break;  // jitter cost an election
  }
  ASSERT_GT(last.index, 0u);
  // Let the ring settle and the lagged follower drain its backlog, then
  // push one more entry through whoever leads now and wait for it: its
  // commit proves the whole surviving prefix is committed too.
  cluster.network()->SetNodeReplicationLag(lagged, 0);
  cluster.network()->SetLossRate(0.0);
  const MemberId final_leader = cluster.WaitForLeader(60'000'000);
  ASSERT_FALSE(final_leader.empty());
  RaftConsensus* fin = cluster.node(final_leader)->consensus();
  auto marker = fin->Replicate(EntryType::kNoOp, "fin");
  ASSERT_TRUE(marker.ok());
  for (int i = 0; i < 600 && !fin->IsCommitted(*marker); ++i) {
    cluster.loop()->RunFor(100'000);
  }
  ASSERT_TRUE(fin->IsCommitted(*marker));
  // Every node converges on an identical log prefix through the window
  // machinery (stale acks dropped, rewinds cancel suffixes).
  const OpId committed = fin->commit_marker();
  EXPECT_GE(committed.index, marker->index);
  for (const auto& id : cluster.ids()) {
    RaftConsensus* c = cluster.node(id)->consensus();
    for (int i = 0; i < 600 && c->commit_marker() < committed; ++i) {
      cluster.loop()->RunFor(100'000);
    }
    EXPECT_GE(c->commit_marker(), committed) << id;
    for (uint64_t index = 1; index <= committed.index; ++index) {
      auto mine = cluster.node(final_leader)->log()->Read(index);
      auto theirs = cluster.node(id)->log()->Read(index);
      ASSERT_TRUE(mine.ok() && theirs.ok()) << id << " @" << index;
      ASSERT_EQ(mine->id, theirs->id) << id << " @" << index;
      ASSERT_EQ(mine->payload, theirs->payload) << id << " @" << index;
    }
  }
}

}  // namespace
}  // namespace myraft::raft

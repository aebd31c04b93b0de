// Proxying (§4.2): replication through relays with payload
// reconstitution, bandwidth savings on cross-region links, degrade to
// heartbeat, route-around of dead relays, and votes staying peer-to-peer.

#include "proxy/proxy_router.h"

#include <gtest/gtest.h>

#include "flexiraft/flexiraft.h"
#include "metric_value.h"
#include "queued_defer.h"
#include "raft_test_harness.h"

namespace myraft::proxy {
namespace {

using raft_test::RaftTestCluster;
using raft_test::TestNode;
constexpr uint64_t kSecond = 1'000'000;

/// Cluster harness variant with a ProxyRouter between each consensus and
/// the network.
class ProxyCluster {
 public:
  ProxyCluster(uint64_t seed, ProxyOptions proxy_options)
      : cluster_(seed), proxy_options_(proxy_options) {}

  void AddPaperTopology(int regions = 3, int logtailers_per_region = 2) {
    for (int r = 0; r < regions; ++r) {
      const std::string region = "r" + std::to_string(r);
      cluster_.AddMemberSpec("db" + std::to_string(r), region,
                             MemberKind::kMySql);
      for (int l = 0; l < logtailers_per_region; ++l) {
        cluster_.AddMemberSpec(
            StringPrintf("lt%d%c", r, static_cast<char>('a' + l)), region,
            MemberKind::kLogtailer);
      }
    }
  }

  void Start(const raft::QuorumEngine* quorum) {
    raft::RaftOptions options;
    options.heartbeat_interval_micros = 500'000;
    cluster_.StartAll(quorum, options);
    // Interpose routers both ways: consensus outbox -> router -> network
    // on the way out, network -> router -> consensus on the way in.
    for (const MemberId& id : cluster_.ids()) {
      TestNode* node = cluster_.node(id);
      auto router = std::make_unique<ProxyRouter>(
          id, node->region(), proxy_options_, cluster_.loop(),
          [this, slot = node->net_slot()](Message m) {
            cluster_.network()->Send(slot, std::move(m));
          });
      router->BindConsensus(node->consensus());
      ProxyRouter* raw = router.get();
      node->set_outbound_hook([raw](Message m) { raw->Send(std::move(m)); });
      cluster_.network()->RegisterNode(
          id, node->region(),
          [node, raw](const MemberId& physical_from, const Message& m) {
            raw->ObserveTraffic(physical_from);
            if (!raw->HandleInbound(m)) node->Deliver(m);
          });
      routers_[id] = std::move(router);
    }
  }

  RaftTestCluster* cluster() { return &cluster_; }
  ProxyRouter* router(const MemberId& id) { return routers_.at(id).get(); }

 private:
  RaftTestCluster cluster_;
  ProxyOptions proxy_options_;
  std::map<MemberId, std::unique_ptr<ProxyRouter>> routers_;
};

TEST(ProxyRouterTest, LeaderStripsPayloadForRemoteNonRelayMembers) {
  // Router-level unit test with a captured send function.
  sim::EventLoop loop(1);
  std::vector<Message> sent;
  ProxyOptions options;
  ProxyRouter router("db0", "r0", options, &loop,
                     [&](Message m) { sent.push_back(std::move(m)); });

  // Minimal consensus for config/cache/log access.
  auto env = NewMemEnv();
  raft::ConsensusMetadataStore meta(env.get(), "/m");
  raft::MemLog log;
  static raft::MajorityQuorumEngine quorum;
  Random rng(7);
  struct NullOutbox : raft::RaftOutbox {
    void Send(Message) override {}
  } null_outbox;
  raft::StateMachineListener listener;
  raft::RaftOptions raft_options;
  raft_options.self = "db0";
  raft_options.region = "r0";
  raft_test::QueuedDefer defer;  // never drained: nothing is replicated
  raft_options.defer = defer.Hook();
  raft::RaftConsensus consensus(raft_options, &log, &quorum, &meta,
                                loop.clock(), &rng, &null_outbox, &listener);
  MembershipConfig config;
  config.members = {
      {"db0", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
      {"db1", "r1", MemberKind::kMySql, RaftMemberType::kVoter},
      {"lt1a", "r1", MemberKind::kLogtailer, RaftMemberType::kVoter},
  };
  ASSERT_TRUE(consensus.Bootstrap(config).ok());
  router.BindConsensus(&consensus);

  AppendEntriesRequest request;
  request.leader = "db0";
  request.term = 1;
  request.entries.push_back(
      LogEntry::Make({1, 1}, EntryType::kTransaction, std::string(500, 'x')));

  // To the remote relay itself (db1, the region's mysql): direct + full.
  request.dest = "db1";
  router.Send(Message(request));
  ASSERT_EQ(sent.size(), 1u);
  {
    const auto& out = std::get<AppendEntriesRequest>(sent[0]);
    EXPECT_FALSE(out.proxy_payload_omitted);
    EXPECT_TRUE(out.route.empty());
    EXPECT_EQ(out.PayloadBytes(), 500u);
  }

  // To the remote logtailer: PROXY_OP through db1.
  request.dest = "lt1a";
  router.Send(Message(request));
  ASSERT_EQ(sent.size(), 2u);
  {
    const auto& out = std::get<AppendEntriesRequest>(sent[1]);
    EXPECT_TRUE(out.proxy_payload_omitted);
    ASSERT_EQ(out.route, std::vector<MemberId>{"db1"});
    EXPECT_EQ(out.PayloadBytes(), 0u);
    EXPECT_EQ(out.entries[0].checksum, request.entries[0].checksum);
  }

  // Same-region member: never proxied. Votes: never proxied.
  VoteRequest vote;
  vote.candidate = "db0";
  vote.dest = "lt1a";
  router.Send(Message(vote));
  ASSERT_EQ(sent.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<VoteRequest>(sent[2]));
  EXPECT_EQ(MetricValue(router.metrics(), "proxy.proxied_requests"), 1u);
  EXPECT_EQ(MetricValue(router.metrics(), "proxy.direct_requests"), 1u);
}

TEST(ProxyClusterTest, ReplicationFlowsThroughRelaysAndConverges) {
  ProxyOptions proxy_options;
  ProxyCluster proxy_cluster(42, proxy_options);
  proxy_cluster.AddPaperTopology();
  proxy_cluster.Start(flexiraft::SingleRegionDynamic());
  RaftTestCluster* cluster = proxy_cluster.cluster();

  ASSERT_FALSE(cluster->WaitForLeader(10 * kSecond).empty());
  // A logtailer can win the bootstrap race as a temporary witness leader
  // (§2.2); let its automatic handoff to a database replica settle so
  // the replication burst below runs under a stable leader.
  cluster->loop()->RunFor(2 * kSecond);
  const MemberId leader_id = cluster->CurrentLeader();
  ASSERT_FALSE(leader_id.empty());
  raft::RaftConsensus* leader = cluster->node(leader_id)->consensus();

  OpId last;
  for (int i = 0; i < 30; ++i) {
    auto opid =
        leader->Replicate(EntryType::kNoOp, std::string(500, 'a' + i % 26));
    ASSERT_TRUE(opid.ok());
    last = *opid;
  }
  ASSERT_TRUE(cluster->WaitForCommit(leader_id, last, 5 * kSecond));
  cluster->loop()->RunFor(5 * kSecond);

  // Everyone converges even though remote members only got PROXY_OPs.
  for (const MemberId& id : cluster->ids()) {
    EXPECT_EQ(cluster->node(id)->consensus()->last_logged(), last) << id;
  }
  // Entries were reconstituted at remote relays.
  uint64_t total_reconstitutions = 0;
  for (const MemberId& id : cluster->ids()) {
    total_reconstitutions += MetricValue(proxy_cluster.router(id)->metrics(),
                                         "proxy.reconstitutions");
  }
  EXPECT_GT(total_reconstitutions, 0u);
}

TEST(ProxyClusterTest, ProxySavesCrossRegionBytes) {
  // Same workload with proxying on vs off; cross-region bytes must drop
  // by roughly the remote fan-out factor (§4.2.2).
  uint64_t bytes_with_proxy = 0, bytes_without = 0;
  for (const bool proxy_on : {true, false}) {
    ProxyOptions proxy_options;
    proxy_options.enabled = proxy_on;
    ProxyCluster proxy_cluster(77, proxy_options);
    proxy_cluster.AddPaperTopology();
    proxy_cluster.Start(flexiraft::SingleRegionDynamic());
    RaftTestCluster* cluster = proxy_cluster.cluster();
    ASSERT_FALSE(cluster->WaitForLeader(10 * kSecond).empty());
    cluster->loop()->RunFor(2 * kSecond);  // settle any witness handoff
    const MemberId leader_id = cluster->CurrentLeader();
    ASSERT_FALSE(leader_id.empty());
    raft::RaftConsensus* leader = cluster->node(leader_id)->consensus();
    cluster->loop()->RunFor(kSecond);
    cluster->network()->ResetStats();

    OpId last;
    for (int i = 0; i < 50; ++i) {
      auto opid = leader->Replicate(
          EntryType::kNoOp, std::string(500, static_cast<char>('a' + i % 26)));
      ASSERT_TRUE(opid.ok());
      last = *opid;
      cluster->loop()->RunFor(20'000);
    }
    cluster->loop()->RunFor(2 * kSecond);
    for (const MemberId& id : cluster->ids()) {
      ASSERT_EQ(cluster->node(id)->consensus()->last_logged(), last)
          << id << " proxy=" << proxy_on;
    }
    (proxy_on ? bytes_with_proxy : bytes_without) =
        cluster->network()->CrossRegionBytes();
  }
  // Each remote region has 3 members; with proxying only 1 full copy +
  // 2 small PROXY_OPs cross the WAN.
  EXPECT_LT(bytes_with_proxy, bytes_without * 2 / 3)
      << "with=" << bytes_with_proxy << " without=" << bytes_without;
}

TEST(ProxyClusterTest, DeadRelayIsRoutedAround) {
  ProxyCluster proxy_cluster(4242, ProxyOptions{});
  proxy_cluster.AddPaperTopology();
  proxy_cluster.Start(flexiraft::SingleRegionDynamic());
  RaftTestCluster* cluster = proxy_cluster.cluster();

  ASSERT_FALSE(cluster->WaitForLeader(10 * kSecond).empty());
  cluster->loop()->RunFor(2 * kSecond);  // settle any witness handoff
  const MemberId leader_id = cluster->CurrentLeader();
  ASSERT_FALSE(leader_id.empty());
  raft::RaftConsensus* leader = cluster->node(leader_id)->consensus();
  const RegionId home = cluster->node(leader_id)->region();

  // Find a remote region and kill its preferred relay (the mysql member).
  RegionId remote;
  for (const MemberId& id : cluster->ids()) {
    if (cluster->node(id)->region() != home) {
      remote = cluster->node(id)->region();
      break;
    }
  }
  MemberId relay, downstream;
  for (const MemberId& id : cluster->ids()) {
    if (cluster->node(id)->region() != remote) continue;
    if (cluster->node(id)->kind() == MemberKind::kMySql) {
      relay = id;
    } else if (downstream.empty()) {
      downstream = id;
    }
  }
  ASSERT_FALSE(relay.empty());
  ASSERT_FALSE(downstream.empty());
  cluster->Crash(relay);
  // Let health tracking notice.
  cluster->loop()->RunFor(kRelayUnhealthyAfterMicros + kSecond);

  OpId last;
  for (int i = 0; i < 10; ++i) {
    auto opid = leader->Replicate(EntryType::kNoOp, std::string(300, 'z'));
    ASSERT_TRUE(opid.ok());
    last = *opid;
    cluster->loop()->RunFor(100'000);
  }
  cluster->loop()->RunFor(3 * kSecond);
  // The downstream member still converges: the leader routed around the
  // dead relay (either via the surviving logtailer or directly).
  EXPECT_EQ(cluster->node(downstream)->consensus()->last_logged(), last);
}

TEST(ProxyClusterTest, MissingEntryDegradesToHeartbeatThenRecovers) {
  ProxyCluster proxy_cluster(11, ProxyOptions{});
  proxy_cluster.AddPaperTopology();
  proxy_cluster.Start(flexiraft::SingleRegionDynamic());
  RaftTestCluster* cluster = proxy_cluster.cluster();

  ASSERT_FALSE(cluster->WaitForLeader(10 * kSecond).empty());
  cluster->loop()->RunFor(2 * kSecond);  // settle any witness handoff
  const MemberId leader_id = cluster->CurrentLeader();
  ASSERT_FALSE(leader_id.empty());
  raft::RaftConsensus* leader = cluster->node(leader_id)->consensus();
  const RegionId home = cluster->node(leader_id)->region();

  // Delay one remote relay heavily so PROXY_OPs reach other members of
  // its region before the relay has the entry.
  MemberId relay;
  for (const MemberId& id : cluster->ids()) {
    if (cluster->node(id)->region() != home &&
        cluster->node(id)->kind() == MemberKind::kMySql) {
      relay = id;
      break;
    }
  }
  ASSERT_FALSE(relay.empty());
  cluster->network()->SetNodeExtraDelay(relay, 200'000);  // +200 ms

  OpId last;
  for (int i = 0; i < 10; ++i) {
    auto opid = leader->Replicate(EntryType::kNoOp, std::string(300, 'q'));
    ASSERT_TRUE(opid.ok());
    last = *opid;
    cluster->loop()->RunFor(50'000);
  }
  cluster->loop()->RunFor(5 * kSecond);

  // The ring converges despite the slow relay (waits, degradations and
  // leader retries all compose).
  for (const MemberId& id : cluster->ids()) {
    EXPECT_EQ(cluster->node(id)->consensus()->last_logged(), last) << id;
  }
}

TEST(ProxyClusterTest, FaultFreeReplicationSendsEachEntryOnce) {
  // No faults, proxying on, pipelined batches crossing 15 ms WAN links
  // with 2 ms latency jitter: the leader must ship each entry to each
  // follower about once. Links that reorder batches, or a relay that lets
  // a later PROXY_OP overtake an earlier one, turn every overtaken batch
  // into a rejection and a window rewind (the rewind storm).
  ProxyCluster proxy_cluster(2024, ProxyOptions{});
  proxy_cluster.AddPaperTopology();
  proxy_cluster.Start(flexiraft::SingleRegionDynamic());
  RaftTestCluster* cluster = proxy_cluster.cluster();
  ASSERT_FALSE(cluster->WaitForLeader(10 * kSecond).empty());
  cluster->loop()->RunFor(2 * kSecond);  // settle any witness handoff
  const MemberId leader_id = cluster->CurrentLeader();
  ASSERT_FALSE(leader_id.empty());
  raft::RaftConsensus* leader = cluster->node(leader_id)->consensus();

  auto sum_counter = [&](const char* name) {
    uint64_t total = 0;
    for (const MemberId& id : cluster->ids()) {
      total += MetricValue(cluster->node(id)->consensus()->metrics(), name);
    }
    return total;
  };
  const uint64_t replicated_before =
      MetricValue(leader->metrics(), "raft.entries_replicated");
  const uint64_t rewinds_before = sum_counter("raft.window_rewinds");
  const uint64_t rejections_before = sum_counter("raft.append_rejections");
  const uint64_t duplicates_before =
      sum_counter("raft.duplicate_entries_received");
  const uint64_t first_index = leader->last_logged().index + 1;

  constexpr int kWrites = 300;
  OpId last;
  for (int i = 0; i < kWrites; ++i) {
    auto opid = leader->Replicate(
        EntryType::kNoOp, std::string(300, static_cast<char>('a' + i % 26)));
    ASSERT_TRUE(opid.ok());
    last = *opid;
    cluster->loop()->RunFor(1'000);  // ~15 batches in flight per WAN link
  }
  ASSERT_TRUE(cluster->WaitForCommit(leader_id, last, 5 * kSecond));
  cluster->loop()->RunFor(2 * kSecond);
  for (const MemberId& id : cluster->ids()) {
    ASSERT_EQ(cluster->node(id)->consensus()->last_logged(), last) << id;
  }
  ASSERT_EQ(cluster->CurrentLeader(), leader_id);

  const uint64_t committed = last.index - first_index + 1;
  const uint64_t followers = cluster->ids().size() - 1;
  const uint64_t replicated =
      MetricValue(leader->metrics(), "raft.entries_replicated") -
      replicated_before;
  EXPECT_LE(replicated * 10, committed * followers * 11)
      << "shipped " << replicated << " entries for " << committed
      << " committed x " << followers << " followers";
  EXPECT_EQ(sum_counter("raft.window_rewinds") - rewinds_before, 0u);
  EXPECT_EQ(sum_counter("raft.append_rejections") - rejections_before, 0u);
  EXPECT_EQ(sum_counter("raft.duplicate_entries_received") - duplicates_before,
            0u);
}

TEST(ProxyRouterTest, ResponsesRelayUpstreamThroughOwnRegion) {
  // §4.2.1: "the response from the downstream follower will then be
  // proxied back upstream" — a logtailer's response to a remote leader
  // routes via its region's relay; the relay itself responds direct.
  sim::EventLoop loop(2);
  std::vector<Message> sent;
  ProxyOptions options;
  ProxyRouter router("lt1a", "r1", options, &loop,
                     [&](Message m) { sent.push_back(std::move(m)); });

  auto env = NewMemEnv();
  raft::ConsensusMetadataStore meta(env.get(), "/m");
  raft::MemLog log;
  static raft::MajorityQuorumEngine quorum;
  Random rng(3);
  struct NullOutbox : raft::RaftOutbox {
    void Send(Message) override {}
  } null_outbox;
  raft::StateMachineListener listener;
  raft::RaftOptions raft_options;
  raft_options.self = "lt1a";
  raft_options.region = "r1";
  raft_test::QueuedDefer defer;  // never drained: nothing is replicated
  raft_options.defer = defer.Hook();
  raft::RaftConsensus consensus(raft_options, &log, &quorum, &meta,
                                loop.clock(), &rng, &null_outbox, &listener);
  MembershipConfig config;
  config.members = {
      {"db0", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
      {"db1", "r1", MemberKind::kMySql, RaftMemberType::kVoter},
      {"lt1a", "r1", MemberKind::kLogtailer, RaftMemberType::kVoter},
  };
  ASSERT_TRUE(consensus.Bootstrap(config).ok());
  router.BindConsensus(&consensus);

  AppendEntriesResponse response;
  response.from = "lt1a";
  response.dest = "db0";  // remote leader
  response.term = 1;
  response.success = true;
  router.Send(Message(response));
  ASSERT_EQ(sent.size(), 1u);
  {
    const auto& out = std::get<AppendEntriesResponse>(sent[0]);
    ASSERT_EQ(out.route, std::vector<MemberId>{"db1"});  // region relay
    EXPECT_EQ(MessageNextHop(sent[0]), "db1");
    EXPECT_EQ(MessageDest(sent[0]), "db0");
  }

  // Same-region responses are direct.
  response.dest = "db1";
  router.Send(Message(response));
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_TRUE(std::get<AppendEntriesResponse>(sent[1]).route.empty());

  // The relay (db1's router) would pop itself and forward: simulate the
  // hop on an intermediate router.
  ProxyRouter relay("db1", "r1", options, &loop,
                    [&](Message m) { sent.push_back(std::move(m)); });
  relay.BindConsensus(&consensus);  // config access only
  AppendEntriesResponse routed = response;
  routed.dest = "db0";
  routed.route = {"db1"};
  EXPECT_TRUE(relay.HandleInbound(Message(routed)));
  ASSERT_EQ(sent.size(), 3u);
  {
    const auto& out = std::get<AppendEntriesResponse>(sent[2]);
    EXPECT_TRUE(out.route.empty());
    EXPECT_EQ(out.dest, "db0");
  }
  EXPECT_EQ(MetricValue(relay.metrics(), "proxy.relayed_responses"), 1u);
}

/// A final-hop relay ("relay", region r1) with its own consensus, fed by
/// hand: PROXY_OPs for "lt1a" and the relay's own replication stream
/// both enter through HandleInbound, as they do from the network.
class RelayFinalHopTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kTerm = 3;

  RelayFinalHopTest()
      : loop_(1),
        env_(NewMemEnv()),
        meta_(env_.get(), "/m"),
        rng_(9) {
    options_.metrics = &metrics_;
    router_ = std::make_unique<ProxyRouter>(
        "relay", "r1", options_, &loop_,
        [this](Message m) { sent_.push_back(std::move(m)); });
    raft::RaftOptions raft_options;
    raft_options.self = "relay";
    raft_options.region = "r1";
    raft_options.defer = defer_.Hook();
    consensus_ = std::make_unique<raft::RaftConsensus>(
        raft_options, &log_, &quorum_, &meta_, loop_.clock(), &rng_,
        &null_outbox_, &listener_);
    MembershipConfig config;
    config.members = {
        {"leader", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
        {"relay", "r1", MemberKind::kMySql, RaftMemberType::kVoter},
        {"lt1a", "r1", MemberKind::kLogtailer, RaftMemberType::kVoter},
    };
    EXPECT_TRUE(consensus_->Bootstrap(config).ok());
    router_->BindConsensus(consensus_.get());
  }

  static LogEntry Entry(uint64_t index) {
    return LogEntry::Make(
        {kTerm, index}, EntryType::kTransaction,
        std::string(100 + index, static_cast<char>('a' + index)));
  }

  /// PROXY_OP for lt1a carrying the stripped stamp of entry `index`.
  static AppendEntriesRequest ProxyOp(uint64_t index) {
    AppendEntriesRequest proxied;
    proxied.leader = "leader";
    proxied.dest = "lt1a";
    proxied.route = {"relay"};
    proxied.term = kTerm;
    proxied.prev = {kTerm, index - 1};
    proxied.proxy_payload_omitted = true;
    LogEntry stripped = Entry(index);
    stripped.payload.clear();
    proxied.entries.push_back(stripped);
    return proxied;
  }

  /// The leader's AppendEntries to the relay itself for [first, last],
  /// delivered the way a host does: router first, then consensus.
  void DeliverOwnAppend(uint64_t first, uint64_t last) {
    AppendEntriesRequest own;
    own.leader = "leader";
    own.dest = "relay";
    own.term = kTerm;
    own.prev = {first > 1 ? kTerm : 0, first - 1};
    for (uint64_t i = first; i <= last; ++i) own.entries.push_back(Entry(i));
    const Message message(own);
    if (!router_->HandleInbound(message)) consensus_->HandleMessage(message);
    defer_.Drain();
  }

  const AppendEntriesRequest& SentRequest(size_t i) const {
    return std::get<AppendEntriesRequest>(sent_.at(i));
  }

  uint64_t WaitCount() const {
    return metrics_.GetHistogram("proxy.reconstitute_wait_us")
        ->histogram()
        .count();
  }

  sim::EventLoop loop_;
  std::unique_ptr<Env> env_;
  raft::ConsensusMetadataStore meta_;
  raft::MemLog log_;
  raft::MajorityQuorumEngine quorum_;
  Random rng_;
  struct NullOutbox : raft::RaftOutbox {
    void Send(Message) override {}
  } null_outbox_;
  raft::StateMachineListener listener_;
  mutable metrics::MetricRegistry metrics_;
  ProxyOptions options_;
  raft_test::QueuedDefer defer_;
  std::unique_ptr<raft::RaftConsensus> consensus_;
  std::unique_ptr<ProxyRouter> router_;
  std::vector<Message> sent_;
};

TEST_F(RelayFinalHopTest, MissingEntryWaitsThenDegradesToHeartbeat) {
  // A PROXY_OP referencing an entry the relay does not have waits
  // kReconstituteWaitMicros, then degrades to a heartbeat (§4.2.1); if
  // the relay's own replication stream delivers the entry during the wait
  // it is reconstituted at that instant instead.

  // Case 1: entry never arrives -> degrade at the deadline, not before.
  EXPECT_TRUE(router_->HandleInbound(Message(ProxyOp(9))));
  loop_.RunFor(kReconstituteWaitMicros - 1);
  EXPECT_TRUE(sent_.empty());
  loop_.RunFor(1);
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_TRUE(SentRequest(0).entries.empty());  // heartbeat
  EXPECT_EQ(SentRequest(0).dest, "lt1a");
  EXPECT_FALSE(SentRequest(0).proxy_payload_omitted);
  EXPECT_EQ(MetricValue(router_->metrics(), "proxy.degraded_to_heartbeat"), 1u);

  // Case 2: entry arrives mid-wait -> reconstituted in full.
  sent_.clear();
  EXPECT_TRUE(router_->HandleInbound(Message(ProxyOp(9))));
  loop_.Schedule(20'000, [&]() { DeliverOwnAppend(1, 9); });
  loop_.RunFor(20'000);
  ASSERT_EQ(sent_.size(), 1u);
  ASSERT_EQ(SentRequest(0).entries.size(), 1u);
  EXPECT_EQ(SentRequest(0).entries[0], Entry(9));
  EXPECT_FALSE(SentRequest(0).proxy_payload_omitted);
  EXPECT_EQ(MetricValue(router_->metrics(), "proxy.reconstitutions"), 1u);
  loop_.RunFor(200'000);
  EXPECT_EQ(sent_.size(), 1u);
  EXPECT_EQ(MetricValue(router_->metrics(), "proxy.degraded_to_heartbeat"),
            1u);  // unchanged
  const Histogram waits =
      metrics_.GetHistogram("proxy.reconstitute_wait_us")->histogram();
  EXPECT_EQ(waits.count(), 2u);
  EXPECT_EQ(waits.max(), kReconstituteWaitMicros);
  EXPECT_EQ(waits.min(), 20'000u);
}

TEST_F(RelayFinalHopTest, ProxyOpsLeaveInArrivalOrder) {
  // The relay has entries 1..8. PROXY_OP A needs entry 9 (missing); B,
  // for the same destination, needs entry 8 (present). B must not
  // overtake A: nothing leaves until the relay's own append of 9 arrives
  // through the inbound path, and then A goes, then B, at that instant.
  DeliverOwnAppend(1, 8);
  EXPECT_TRUE(router_->HandleInbound(Message(ProxyOp(9))));   // A
  EXPECT_TRUE(router_->HandleInbound(Message(ProxyOp(8))));   // B
  loop_.RunFor(10'000);
  EXPECT_TRUE(sent_.empty());
  DeliverOwnAppend(9, 9);
  EXPECT_TRUE(sent_.empty());  // the drain runs after the host's append
  loop_.RunFor(0);
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(SentRequest(0).entries.at(0), Entry(9));
  EXPECT_EQ(SentRequest(1).entries.at(0), Entry(8));
  EXPECT_EQ(MetricValue(router_->metrics(), "proxy.reconstitutions"), 2u);
  EXPECT_EQ(WaitCount(), 2u);

  // The degrade path still fires at the head's deadline, and releases
  // the present op queued behind it in the same instant.
  sent_.clear();
  loop_.RunFor(1'000);
  EXPECT_TRUE(router_->HandleInbound(Message(ProxyOp(20))));  // never comes
  loop_.RunFor(1'000);
  EXPECT_TRUE(router_->HandleInbound(Message(ProxyOp(9))));
  loop_.RunFor(kReconstituteWaitMicros - 1'000 - 1);
  EXPECT_TRUE(sent_.empty());
  loop_.RunFor(1);
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_TRUE(SentRequest(0).entries.empty());  // degraded head
  EXPECT_EQ(SentRequest(0).prev.index, 19u);
  EXPECT_EQ(SentRequest(1).entries.at(0), Entry(9));
  EXPECT_EQ(MetricValue(router_->metrics(), "proxy.degraded_to_heartbeat"), 1u);
}

}  // namespace
}  // namespace myraft::proxy

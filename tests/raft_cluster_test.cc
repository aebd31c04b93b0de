// Cluster-level Raft tests on the deterministic simulator: elections,
// replication, failover, graceful transfer with mock elections, witness
// behaviour, membership changes, log-cache fallback and the Quorum Fixer
// override.

#include <gtest/gtest.h>

#include "metric_value.h"
#include "raft_test_harness.h"

namespace myraft::raft_test {
namespace {

constexpr uint64_t kSecond = 1'000'000;

MajorityQuorumEngine* Majority() {
  static MajorityQuorumEngine* engine = new MajorityQuorumEngine();
  return engine;
}

RaftOptions FastOptions() {
  RaftOptions options;
  options.heartbeat_interval_micros = 500'000;
  options.missed_heartbeats_before_election = 3;
  options.election_jitter_micros = 300'000;
  return options;
}

class ThreeNodeClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<RaftTestCluster>(1234);
    cluster_->AddMemberSpec("a", "r0");
    cluster_->AddMemberSpec("b", "r0");
    cluster_->AddMemberSpec("c", "r0");
    cluster_->StartAll(Majority(), FastOptions());
  }

  std::unique_ptr<RaftTestCluster> cluster_;
};

TEST_F(ThreeNodeClusterTest, ElectsLeaderAndCommitsNoOp) {
  const MemberId leader = cluster_->WaitForLeader(5 * kSecond);
  ASSERT_FALSE(leader.empty());
  RaftConsensus* consensus = cluster_->node(leader)->consensus();
  // The leadership no-op must commit.
  ASSERT_TRUE(cluster_->WaitForCommit(leader, consensus->last_logged(),
                                      2 * kSecond));
  EXPECT_EQ(cluster_->node(leader)->leadership_acquired_, 1);
  EXPECT_GE(consensus->term(), 1u);
}

TEST_F(ThreeNodeClusterTest, ReplicatesToAllAndAdvancesCommit) {
  const MemberId leader_id = cluster_->WaitForLeader(5 * kSecond);
  ASSERT_FALSE(leader_id.empty());
  RaftConsensus* leader = cluster_->node(leader_id)->consensus();

  OpId last;
  for (int i = 0; i < 20; ++i) {
    auto opid = leader->Replicate(EntryType::kNoOp,
                                  "payload-" + std::to_string(i));
    ASSERT_TRUE(opid.ok()) << opid.status();
    last = *opid;
  }
  ASSERT_TRUE(cluster_->WaitForCommit(leader_id, last, 2 * kSecond));

  // All members converge to identical logs and commit markers.
  cluster_->loop()->RunFor(2 * kSecond);
  for (const MemberId& id : cluster_->ids()) {
    RaftConsensus* consensus = cluster_->node(id)->consensus();
    EXPECT_EQ(consensus->last_logged(), last) << id;
    EXPECT_EQ(consensus->commit_marker(), last) << id;
    auto entry = consensus->log()->Read(last.index);
    ASSERT_TRUE(entry.ok()) << id;
    EXPECT_EQ(entry->payload, "payload-19");
  }
  // Followers were notified of appends.
  for (const MemberId& id : cluster_->ids()) {
    EXPECT_GT(cluster_->node(id)->entries_appended_, 0) << id;
  }
}

TEST_F(ThreeNodeClusterTest, ReplicateRejectedOnFollower) {
  const MemberId leader = cluster_->WaitForLeader(5 * kSecond);
  ASSERT_FALSE(leader.empty());
  for (const MemberId& id : cluster_->ids()) {
    if (id == leader) continue;
    auto result =
        cluster_->node(id)->consensus()->Replicate(EntryType::kNoOp, "x");
    EXPECT_FALSE(result.ok());
  }
}

TEST_F(ThreeNodeClusterTest, FailoverAfterLeaderCrash) {
  const MemberId old_leader = cluster_->WaitForLeader(5 * kSecond);
  ASSERT_FALSE(old_leader.empty());
  auto opid = cluster_->node(old_leader)
                  ->consensus()
                  ->Replicate(EntryType::kNoOp, "before-crash");
  ASSERT_TRUE(opid.ok());
  ASSERT_TRUE(cluster_->WaitForCommit(old_leader, *opid, 2 * kSecond));

  const uint64_t crash_time = cluster_->loop()->now();
  cluster_->Crash(old_leader);
  const MemberId new_leader = cluster_->WaitForLeader(10 * kSecond);
  ASSERT_FALSE(new_leader.empty());
  ASSERT_NE(new_leader, old_leader);

  // Detection takes ~3 missed 500 ms heartbeats plus election time (§6.2:
  // ~2 s average in production).
  const uint64_t failover_micros = cluster_->loop()->now() - crash_time;
  EXPECT_GT(failover_micros, 1'000'000u);
  EXPECT_LT(failover_micros, 8'000'000u);

  // Committed entry survives (leader completeness).
  auto entry = cluster_->node(new_leader)->consensus()->log()->Read(
      opid->index);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->payload, "before-crash");
}

TEST_F(ThreeNodeClusterTest, ErstwhileLeaderRejoinsAndTruncates) {
  const MemberId old_leader = cluster_->WaitForLeader(5 * kSecond);
  ASSERT_FALSE(old_leader.empty());
  RaftConsensus* old = cluster_->node(old_leader)->consensus();
  auto committed = old->Replicate(EntryType::kNoOp, "durable");
  ASSERT_TRUE(committed.ok());
  ASSERT_TRUE(cluster_->WaitForCommit(old_leader, *committed, 2 * kSecond));

  // Isolate the leader, write entries that never reach anyone (§A.2 case
  // 2), then crash it.
  for (const MemberId& id : cluster_->ids()) {
    if (id != old_leader) {
      cluster_->network()->SetLinkCut(old_leader, id, true);
    }
  }
  auto lost1 = old->Replicate(EntryType::kNoOp, "lost-1");
  auto lost2 = old->Replicate(EntryType::kNoOp, "lost-2");
  ASSERT_TRUE(lost1.ok());
  ASSERT_TRUE(lost2.ok());
  cluster_->Crash(old_leader);
  for (const MemberId& id : cluster_->ids()) {
    if (id != old_leader) {
      cluster_->network()->SetLinkCut(old_leader, id, false);
    }
  }

  const MemberId new_leader = cluster_->WaitForLeader(10 * kSecond);
  ASSERT_FALSE(new_leader.empty());
  ASSERT_NE(new_leader, old_leader);
  auto replacement = cluster_->node(new_leader)
                         ->consensus()
                         ->Replicate(EntryType::kNoOp, "new-era");
  ASSERT_TRUE(replacement.ok());
  ASSERT_TRUE(cluster_->WaitForCommit(new_leader, *replacement, 2 * kSecond));

  // The erstwhile leader restarts, rejoins as follower, and its divergent
  // suffix is truncated and replaced.
  cluster_->Restart(old_leader);
  cluster_->loop()->RunFor(4 * kSecond);
  RaftConsensus* rejoined = cluster_->node(old_leader)->consensus();
  EXPECT_EQ(rejoined->role(), RaftRole::kFollower);
  EXPECT_EQ(rejoined->leader(), new_leader);
  EXPECT_GT(cluster_->node(old_leader)->truncations_, 0);
  auto entry = rejoined->log()->Read(lost1->index);
  ASSERT_TRUE(entry.ok());
  EXPECT_NE(entry->payload, "lost-1");
  EXPECT_EQ(rejoined->last_logged(),
            cluster_->node(new_leader)->consensus()->last_logged());
}

TEST_F(ThreeNodeClusterTest, GracefulTransferLeadership) {
  const MemberId old_leader = cluster_->WaitForLeader(5 * kSecond);
  ASSERT_FALSE(old_leader.empty());
  RaftConsensus* old = cluster_->node(old_leader)->consensus();
  ASSERT_TRUE(
      cluster_->WaitForCommit(old_leader, old->last_logged(), 2 * kSecond));

  MemberId target;
  for (const MemberId& id : cluster_->ids()) {
    if (id != old_leader) {
      target = id;
      break;
    }
  }
  const uint64_t old_term = old->term();
  ASSERT_TRUE(old->TransferLeadership(target).ok());
  // A second transfer while one is pending is rejected.
  EXPECT_FALSE(old->TransferLeadership(target).ok());

  cluster_->loop()->RunFor(3 * kSecond);
  RaftConsensus* new_leader = cluster_->node(target)->consensus();
  EXPECT_EQ(new_leader->role(), RaftRole::kLeader);
  EXPECT_EQ(new_leader->term(), old_term + 1);
  EXPECT_EQ(old->role(), RaftRole::kFollower);
  EXPECT_EQ(cluster_->node(old_leader)->leadership_lost_, 1);
  // Mock election ran before the transfer (§4.3).
  EXPECT_GT(MetricValue(new_leader->metrics(), "raft.mock_elections_started"),
            0u);
}

TEST(RaftClusterTest, MockElectionFailureAbortsTransferWithoutDowntime) {
  RaftTestCluster cluster(99);
  for (const char* id : {"a", "b", "c", "d", "e"}) {
    cluster.AddMemberSpec(id, "r0");
  }
  cluster.StartAll(Majority(), FastOptions());
  const MemberId leader_id = cluster.WaitForLeader(5 * kSecond);
  ASSERT_FALSE(leader_id.empty());
  RaftConsensus* leader = cluster.node(leader_id)->consensus();
  ASSERT_TRUE(
      cluster.WaitForCommit(leader_id, leader->last_logged(), 2 * kSecond));

  // Choose a target, then lag every other follower far behind by cutting
  // their links and writing more entries.
  MemberId target;
  std::vector<MemberId> laggards;
  for (const MemberId& id : cluster.ids()) {
    if (id == leader_id) continue;
    if (target.empty()) {
      target = id;
    } else {
      laggards.push_back(id);
    }
  }
  for (const MemberId& id : laggards) {
    cluster.network()->SetLinkCut(leader_id, id, true);
    cluster.network()->SetLinkCut(target, id, true);
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(leader->Replicate(EntryType::kNoOp, "ahead").ok());
  }
  cluster.loop()->RunFor(1 * kSecond);

  // Mock election: target + leader grant (caught up), three laggards
  // cannot even be reached => quorum of 3/5 unreachable... but wait: the
  // leader and target both grant, links to laggards are cut so no
  // response arrives; the round times out and the transfer fails. Writes
  // were never disallowed.
  ASSERT_TRUE(leader->TransferLeadership(target).ok());
  EXPECT_FALSE(leader->is_quiesced_for_transfer());
  ASSERT_TRUE(leader->Replicate(EntryType::kNoOp, "still-writable").ok());

  cluster.loop()->RunFor(6 * kSecond);
  EXPECT_EQ(leader->role(), RaftRole::kLeader);
  EXPECT_FALSE(leader->transfer_target().has_value());
  EXPECT_GE(cluster.node(leader_id)->transfer_failures_, 1);
  ASSERT_TRUE(leader->Replicate(EntryType::kNoOp, "after-abort").ok());
}

TEST(RaftClusterTest, WitnessWinsThenHandsOffToDatabase) {
  // Leader + witness get ahead of the other mysql voter; on leader crash
  // the witness has the longest log, wins, then transfers to the mysql
  // member once it catches up (§2.2, §4.1).
  RaftTestCluster cluster(555);
  cluster.AddMemberSpec("db0", "r0", MemberKind::kMySql);
  cluster.AddMemberSpec("db1", "r0", MemberKind::kMySql);
  cluster.AddMemberSpec("witness", "r0", MemberKind::kLogtailer);
  cluster.StartAll(Majority(), FastOptions());

  const MemberId leader_id = cluster.WaitForLeader(5 * kSecond);
  ASSERT_FALSE(leader_id.empty());
  // Force a mysql leader for the scenario.
  if (leader_id == "witness") {
    cluster.loop()->RunFor(5 * kSecond);  // witness auto-transfers
  }
  const MemberId db_leader = cluster.CurrentLeader();
  ASSERT_TRUE(db_leader == "db0" || db_leader == "db1");
  const MemberId other_db = db_leader == "db0" ? "db1" : "db0";
  RaftConsensus* leader = cluster.node(db_leader)->consensus();

  // Lag the other database replica.
  cluster.network()->SetLinkCut(db_leader, other_db, true);
  OpId last;
  for (int i = 0; i < 10; ++i) {
    auto opid = leader->Replicate(EntryType::kNoOp, "w" + std::to_string(i));
    ASSERT_TRUE(opid.ok());
    last = *opid;
  }
  ASSERT_TRUE(cluster.WaitForCommit(db_leader, last, 2 * kSecond));

  cluster.Crash(db_leader);
  cluster.network()->SetLinkCut(db_leader, other_db, false);

  // The witness must win first (longest log), then hand off to the db.
  cluster.loop()->RunFor(15 * kSecond);
  const MemberId final_leader = cluster.CurrentLeader();
  EXPECT_EQ(final_leader, other_db);
  EXPECT_GT(cluster.node("witness")->leadership_acquired_, 0);
  EXPECT_GT(cluster.node("witness")->leadership_lost_, 0);
  // Committed entries survived the double hop.
  auto entry =
      cluster.node(other_db)->consensus()->log()->Read(last.index);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->payload, "w9");
}

TEST_F(ThreeNodeClusterTest, MembershipChangeAddsAndRemoves) {
  const MemberId leader_id = cluster_->WaitForLeader(5 * kSecond);
  ASSERT_FALSE(leader_id.empty());
  RaftConsensus* leader = cluster_->node(leader_id)->consensus();
  ASSERT_TRUE(
      cluster_->WaitForCommit(leader_id, leader->last_logged(), 2 * kSecond));

  // AddMember is initiated by automation (§2.2); the harness has no
  // transport entry for a brand-new node, so add a learner spec that
  // points at an existing region and verify config propagation.
  MemberInfo learner{"learner-x", "r0", MemberKind::kMySql,
                     RaftMemberType::kNonVoter};
  ASSERT_TRUE(leader->AddMember(learner).ok());
  // Second change while the first is uncommitted is refused.
  Status second = leader->AddMember(
      MemberInfo{"learner-y", "r0", MemberKind::kMySql,
                 RaftMemberType::kNonVoter});
  EXPECT_FALSE(second.ok());

  ASSERT_TRUE(cluster_->WaitForCommit(leader_id, leader->last_logged(),
                                      2 * kSecond));
  EXPECT_FALSE(leader->has_pending_config_change());
  cluster_->loop()->RunFor(2 * kSecond);
  for (const MemberId& id : cluster_->ids()) {
    EXPECT_TRUE(
        cluster_->node(id)->consensus()->config().Contains("learner-x"))
        << id;
  }

  // Remove it again.
  ASSERT_TRUE(leader->RemoveMember("learner-x").ok());
  ASSERT_TRUE(cluster_->WaitForCommit(leader_id, leader->last_logged(),
                                      2 * kSecond));
  cluster_->loop()->RunFor(2 * kSecond);
  for (const MemberId& id : cluster_->ids()) {
    EXPECT_FALSE(
        cluster_->node(id)->consensus()->config().Contains("learner-x"))
        << id;
  }
  EXPECT_FALSE(leader->RemoveMember(leader_id).ok());  // self-removal
  EXPECT_FALSE(leader->RemoveMember("ghost").ok());
}

TEST(RaftClusterTest, QuorumFixerOverrideRestoresAvailability) {
  RaftTestCluster cluster(777);
  for (const char* id : {"a", "b", "c", "d", "e"}) {
    cluster.AddMemberSpec(id, "r0");
  }
  cluster.StartAll(Majority(), FastOptions());
  const MemberId leader_id = cluster.WaitForLeader(5 * kSecond);
  ASSERT_FALSE(leader_id.empty());
  auto opid = cluster.node(leader_id)
                  ->consensus()
                  ->Replicate(EntryType::kNoOp, "precious");
  ASSERT_TRUE(opid.ok());
  ASSERT_TRUE(cluster.WaitForCommit(leader_id, *opid, 2 * kSecond));
  cluster.loop()->RunFor(1 * kSecond);

  // Shattered quorum: 3 of 5 voters die, including the leader.
  std::vector<MemberId> victims{leader_id};
  for (const MemberId& id : cluster.ids()) {
    if (victims.size() >= 3) break;
    if (id != leader_id) victims.push_back(id);
  }
  for (const MemberId& id : victims) cluster.Crash(id);

  // No leader can emerge.
  EXPECT_EQ(cluster.WaitForLeader(8 * kSecond), "");

  // Quorum Fixer: pick the longest-log survivor and override the election
  // quorum (§5.3).
  MemberId survivor;
  OpId longest;
  for (const MemberId& id : cluster.ids()) {
    TestNode* node = cluster.node(id);
    if (!node->up_) continue;
    if (survivor.empty() ||
        node->consensus()->last_logged().IsLaterThan(longest)) {
      survivor = id;
      longest = node->consensus()->last_logged();
    }
  }
  ASSERT_FALSE(survivor.empty());
  RaftConsensus* chosen = cluster.node(survivor)->consensus();
  chosen->SetElectionVotesOverride(2);  // self + one other survivor
  ASSERT_TRUE(chosen->StartElection(ElectionMode::kRealElection).ok());
  cluster.loop()->RunFor(2 * kSecond);
  EXPECT_EQ(chosen->role(), RaftRole::kLeader);
  chosen->SetElectionVotesOverride(std::nullopt);

  // The committed entry survived the disaster.
  auto entry = chosen->log()->Read(opid->index);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->payload, "precious");
}

TEST(RaftClusterTest, LaggingFollowerServedFromDiskFallback) {
  // Incompressible payloads catch up raw; compressible ones read from
  // disk ship compressed.
  for (const bool compressible : {false, true}) {
    SCOPED_TRACE(compressible ? "compressible" : "incompressible");
    RaftTestCluster cluster(31);
    cluster.AddMemberSpec("a", "r0");
    cluster.AddMemberSpec("b", "r0");
    cluster.AddMemberSpec("c", "r0");
    RaftOptions options = FastOptions();
    options.log_cache_capacity_bytes = 4'000;  // tiny cache
    cluster.StartAll(Majority(), options);

    const MemberId leader_id = cluster.WaitForLeader(5 * kSecond);
    ASSERT_FALSE(leader_id.empty());
    RaftConsensus* leader = cluster.node(leader_id)->consensus();

    MemberId laggard;
    for (const MemberId& id : cluster.ids()) {
      if (id != leader_id) {
        laggard = id;
        break;
      }
    }
    cluster.network()->SetLinkCut(leader_id, laggard, true);

    // Push entries well past the cache capacity.
    Random payload_rng(5);
    OpId last;
    for (int i = 0; i < 50; ++i) {
      std::string payload(400, static_cast<char>('a' + i % 26));
      if (!compressible) {
        for (char& ch : payload) ch = static_cast<char>(payload_rng.Next());
      }
      auto opid = leader->Replicate(EntryType::kNoOp, payload);
      ASSERT_TRUE(opid.ok());
      last = *opid;
    }
    ASSERT_TRUE(cluster.WaitForCommit(leader_id, last, 3 * kSecond));
    EXPECT_GT(
        MetricValue(leader->log_cache().metrics(), "log_cache.evictions"),
        0u);
    const uint64_t compressed_before =
        MetricValue(leader->metrics(), "raft.wire_batches_compressed");

    // Reconnect: the laggard must be served from the log abstraction (the
    // "parse historical binary log files" path, §3.1).
    cluster.network()->SetLinkCut(leader_id, laggard, false);
    cluster.loop()->RunFor(5 * kSecond);
    RaftConsensus* follower = cluster.node(laggard)->consensus();
    ASSERT_EQ(follower->last_logged(), last);
    EXPECT_GT(MetricValue(leader->metrics(), "raft.cache_fallback_reads"), 0u);
    const uint64_t compressed =
        MetricValue(leader->metrics(), "raft.wire_batches_compressed");
    if (compressible) {
      EXPECT_GT(compressed, compressed_before);
    } else {
      EXPECT_EQ(compressed, 0u);
    }
    for (uint64_t index = 1; index <= last.index; ++index) {
      auto theirs = follower->log()->Read(index);
      auto ours = leader->log()->Read(index);
      ASSERT_TRUE(theirs.ok() && ours.ok()) << "index " << index;
      EXPECT_EQ(*theirs, *ours) << "index " << index;
    }
  }
}

TEST(RaftClusterTest, LearnerReceivesDataButNeverVotesOrCampaigns) {
  RaftTestCluster cluster(41);
  cluster.AddMemberSpec("a", "r0");
  cluster.AddMemberSpec("b", "r0");
  cluster.AddMemberSpec("c", "r0");
  cluster.AddMemberSpec("learner", "r1", MemberKind::kMySql,
                        RaftMemberType::kNonVoter);
  cluster.StartAll(Majority(), FastOptions());

  const MemberId leader_id = cluster.WaitForLeader(5 * kSecond);
  ASSERT_FALSE(leader_id.empty());
  ASSERT_NE(leader_id, "learner");
  RaftConsensus* leader = cluster.node(leader_id)->consensus();
  auto opid = leader->Replicate(EntryType::kNoOp, "to-learner");
  ASSERT_TRUE(opid.ok());
  cluster.loop()->RunFor(2 * kSecond);

  RaftConsensus* learner = cluster.node("learner")->consensus();
  EXPECT_EQ(learner->role(), RaftRole::kLearner);
  EXPECT_EQ(learner->last_logged(), *opid);
  EXPECT_FALSE(learner->StartElection(ElectionMode::kRealElection).ok());

  // Crash everything but the learner: it must never claim leadership.
  for (const char* id : {"a", "b", "c"}) cluster.Crash(id);
  cluster.loop()->RunFor(10 * kSecond);
  EXPECT_NE(learner->role(), RaftRole::kLeader);
  EXPECT_EQ(MetricValue(learner->metrics(), "raft.elections_started"), 0u);
}

TEST(RaftClusterTest, NoSplitBrainUnderPartitions) {
  // Safety sweep: random partitions and heals; at every step at most one
  // leader per term, and committed entries are never lost.
  for (uint64_t seed : {7u, 21u, 63u}) {
    RaftTestCluster cluster(seed);
    for (const char* id : {"a", "b", "c", "d", "e"}) {
      cluster.AddMemberSpec(id, "r0");
    }
    cluster.StartAll(Majority(), FastOptions());
    Random rng(seed * 13);

    std::map<uint64_t, std::string> committed;  // index -> payload
    int counter = 0;
    for (int round = 0; round < 20; ++round) {
      // Random partition event.
      const auto ids = cluster.ids();
      const MemberId a = ids[rng.Uniform(ids.size())];
      const MemberId b = ids[rng.Uniform(ids.size())];
      if (a != b) cluster.network()->SetLinkCut(a, b, rng.OneIn(2));

      cluster.loop()->RunFor(2 * kSecond);

      // Try writing on the current leader.
      const MemberId leader_id = cluster.CurrentLeader();
      if (!leader_id.empty()) {
        RaftConsensus* leader = cluster.node(leader_id)->consensus();
        const std::string payload = "c" + std::to_string(counter++);
        auto opid = leader->Replicate(EntryType::kNoOp, payload);
        if (opid.ok() && cluster.WaitForCommit(leader_id, *opid, kSecond)) {
          committed[opid->index] = payload;
        }
      }

      // Invariant: at most one leader per term among up nodes.
      std::map<uint64_t, int> leaders_per_term;
      for (const MemberId& id : cluster.ids()) {
        RaftConsensus* consensus = cluster.node(id)->consensus();
        if (consensus->role() == RaftRole::kLeader) {
          ++leaders_per_term[consensus->term()];
        }
      }
      for (const auto& [term, count] : leaders_per_term) {
        ASSERT_LE(count, 1) << "split brain in term " << term;
      }
    }

    // Heal everything and converge.
    for (const MemberId& a : cluster.ids()) {
      for (const MemberId& b : cluster.ids()) {
        if (a < b) cluster.network()->SetLinkCut(a, b, false);
      }
    }
    const MemberId final_leader = cluster.WaitForLeader(15 * kSecond);
    ASSERT_FALSE(final_leader.empty()) << "seed " << seed;
    cluster.loop()->RunFor(5 * kSecond);

    // Every committed entry is present with the same payload everywhere.
    for (const MemberId& id : cluster.ids()) {
      RaftConsensus* consensus = cluster.node(id)->consensus();
      for (const auto& [index, payload] : committed) {
        auto entry = consensus->log()->Read(index);
        ASSERT_TRUE(entry.ok()) << id << " lost index " << index;
        ASSERT_EQ(entry->payload, payload)
            << id << " diverged at " << index << " (seed " << seed << ")";
      }
    }
  }
}

}  // namespace
}  // namespace myraft::raft_test

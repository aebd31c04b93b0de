// End-to-end membership changes on the full server stack: automation
// provisions a new process, AddMember brings it into the ring, it
// catches up and participates; RemoveMember shrinks the ring (§2.2).

#include <gtest/gtest.h>

#include "flexiraft/flexiraft.h"
#include "sim/cluster.h"

namespace myraft::sim {
namespace {

constexpr uint64_t kSecond = 1'000'000;

const raft::QuorumEngine* FlexiEngine() {
  static auto* engine = new flexiraft::FlexiRaftQuorumEngine(
      {flexiraft::QuorumMode::kSingleRegionDynamic});
  return engine;
}

TEST(ClusterMembershipTest, NewDatabaseJoinsCatchesUpAndServes) {
  ClusterOptions options;
  options.seed = 61;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  ClusterHarness cluster(options, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());

  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.SyncWrite("k" + std::to_string(i), "v").status.ok());
  }
  cluster.loop()->RunFor(2 * kSecond);
  raft::RaftConsensus* leader = cluster.node(primary)->server()->consensus();
  const uint64_t version_before = leader->config().config_version;

  // Automation provisions and adds a new non-voting replica first (the
  // usual safe order), in a follower region.
  MemberInfo learner{"dbnew", "region1", MemberKind::kMySql,
                     RaftMemberType::kNonVoter};
  ASSERT_TRUE(cluster.admin()->AddMember(learner).ok());
  cluster.loop()->RunFor(5 * kSecond);

  // The change rode the versioned-config channel, not the log: identity
  // bumped, install quorum reached, pending window closed.
  EXPECT_GT(leader->config().config_version, version_before);
  EXPECT_FALSE(leader->has_pending_config_change());
  EXPECT_TRUE(leader->committed_config().SameIdAs(leader->config()));

  // The new member caught up from index 1 and applied everything.
  SimNode* joined = cluster.node("dbnew");
  EXPECT_EQ(joined->server()->Read("bench.kv", "k29"), "k29=v");
  EXPECT_EQ(joined->server()->consensus()->role(), RaftRole::kLearner);
  for (const MemberId& id : cluster.ids()) {
    EXPECT_TRUE(cluster.node(id)->server()->consensus()->config().Contains(
        "dbnew"))
        << id;
  }

  // Writes keep committing with the bigger ring.
  ASSERT_TRUE(cluster.SyncWrite("post-add", "v").status.ok());
  cluster.loop()->RunFor(2 * kSecond);
  EXPECT_EQ(joined->server()->Read("bench.kv", "post-add"), "post-add=v");
  EXPECT_TRUE(cluster.CheckReplicaConsistency());
}

TEST(ClusterMembershipTest, AddedLogtailerJoinsTheVoterQuorum) {
  ClusterOptions options;
  options.seed = 62;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  ClusterHarness cluster(options, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("a", "1").status.ok());
  cluster.loop()->RunFor(2 * kSecond);

  // Add a third logtailer to the primary's region, then kill one of the
  // original two: commits must keep flowing through the new quorum.
  const RegionId home = cluster.node(primary)->region();
  MemberInfo witness{"ltnew", home, MemberKind::kLogtailer,
                     RaftMemberType::kVoter};
  ASSERT_TRUE(cluster.admin()->AddMember(witness).ok());
  cluster.loop()->RunFor(5 * kSecond);

  MemberId old_logtailer;
  for (const auto& member : cluster.config().members) {
    if (member.kind == MemberKind::kLogtailer && member.region == home &&
        member.id != "ltnew") {
      old_logtailer = member.id;
      break;
    }
  }
  ASSERT_FALSE(old_logtailer.empty());
  cluster.Crash(old_logtailer);
  // One of the remaining in-region logtailers (incl. ltnew) acks.
  auto write = cluster.SyncWrite("quorum", "holds", 3 * kSecond);
  EXPECT_TRUE(write.status.ok()) << write.status;
}

TEST(ClusterMembershipTest, RemoveMemberShrinksTheRing) {
  ClusterOptions options;
  options.seed = 63;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  options.topology.learners = 1;
  ClusterHarness cluster(options, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("a", "1").status.ok());
  cluster.loop()->RunFor(2 * kSecond);

  ASSERT_TRUE(cluster.admin()->RemoveMember("learner0").ok());
  cluster.loop()->RunFor(3 * kSecond);
  for (const MemberId& id : cluster.ids()) {
    if (id == "learner0") continue;
    EXPECT_FALSE(cluster.node(id)->server()->consensus()->config().Contains(
        "learner0"))
        << id;
  }
  // Only one change at a time (§2.2): a second change right after a
  // committed one is fine, but two concurrent ones are refused — tested
  // at the consensus level; here we just verify the ring still serves.
  ASSERT_TRUE(cluster.SyncWrite("post-remove", "v").status.ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency());
}

// ---------------------------------------------------------------------------
// Reconfiguration races and swaps (§15).

/// First logtailer in `cluster`'s config outside `region` ("" if none).
MemberId LogtailerOutsideRegion(ClusterHarness& cluster,
                                const RegionId& region) {
  for (const auto& member : cluster.config().members) {
    if (member.kind == MemberKind::kLogtailer && member.region != region) {
      return member.id;
    }
  }
  return "";
}

TEST(ClusterMembershipTest, LoglessConcurrentChangeIsRefused) {
  ClusterOptions options;
  options.seed = 65;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  ClusterHarness cluster(options, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("a", "1").status.ok());
  cluster.loop()->RunFor(2 * kSecond);

  // Two distinct swap targets outside the primary's region, so neither
  // change is an idempotent no-op and neither touches the commit quorum.
  const RegionId home = cluster.node(primary)->region();
  std::vector<MemberId> targets;
  for (const auto& member : cluster.config().members) {
    if (member.kind == MemberKind::kLogtailer && member.region != home) {
      targets.push_back(member.id);
    }
  }
  ASSERT_GE(targets.size(), 2u);

  // First change opens the pending window (the install quorum can't have
  // echoed yet — the loop hasn't run); the second must be refused.
  ASSERT_TRUE(cluster.admin()
                  ->SwapMemberType(targets[0], RaftMemberType::kNonVoter)
                  .ok());
  Status second = cluster.admin()
                      ->SwapMemberType(targets[1], RaftMemberType::kNonVoter)
                      .status;
  EXPECT_TRUE(second.IsIllegalState()) << second;

  // Once the first change commits, the second goes through.
  cluster.loop()->RunFor(5 * kSecond);
  raft::RaftConsensus* leader = cluster.node(primary)->server()->consensus();
  EXPECT_FALSE(leader->has_pending_config_change());
  ASSERT_TRUE(cluster.admin()
                  ->SwapMemberType(targets[1], RaftMemberType::kNonVoter)
                  .ok());
  cluster.loop()->RunFor(5 * kSecond);
  EXPECT_FALSE(leader->has_pending_config_change());
  ASSERT_TRUE(cluster.SyncWrite("post", "v").status.ok());
}

TEST(ClusterMembershipTest, VoterWitnessSwapRoundTrip) {
  ClusterOptions options;
  options.seed = 66;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  ClusterHarness cluster(options, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("a", "1").status.ok());
  cluster.loop()->RunFor(2 * kSecond);

  const MemberId target =
      LogtailerOutsideRegion(cluster, cluster.node(primary)->region());
  ASSERT_FALSE(target.empty());

  // Voter -> witness: every node converges on the demoted type.
  ASSERT_TRUE(cluster.admin()
                  ->SwapMemberType(target, RaftMemberType::kNonVoter)
                  .ok());
  cluster.loop()->RunFor(5 * kSecond);
  for (const MemberId& id : cluster.ids()) {
    const MemberInfo* info =
        cluster.node(id)->server()->consensus()->config().Find(target);
    ASSERT_NE(info, nullptr) << id;
    EXPECT_EQ(info->type, RaftMemberType::kNonVoter) << id;
  }

  // Witness -> voter: and back.
  ASSERT_TRUE(
      cluster.admin()->SwapMemberType(target, RaftMemberType::kVoter).ok());
  cluster.loop()->RunFor(5 * kSecond);
  for (const MemberId& id : cluster.ids()) {
    const MemberInfo* info =
        cluster.node(id)->server()->consensus()->config().Find(target);
    ASSERT_NE(info, nullptr) << id;
    EXPECT_EQ(info->type, RaftMemberType::kVoter) << id;
  }
  ASSERT_TRUE(cluster.SyncWrite("post-swap", "v").status.ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency());
}

TEST(ClusterMembershipTest, RemovedVoterInstallsFarewellAndParks) {
  ClusterOptions options;
  options.seed = 67;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  ClusterHarness cluster(options, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("a", "1").status.ok());
  cluster.loop()->RunFor(2 * kSecond);

  const MemberId removed =
      LogtailerOutsideRegion(cluster, cluster.node(primary)->region());
  ASSERT_FALSE(removed.empty());
  ASSERT_TRUE(cluster.admin()->RemoveMember(removed).ok());

  // Long enough for many election timeouts: a removed node that never
  // learned of its removal would campaign here and inflate terms.
  cluster.loop()->RunFor(15 * kSecond);

  raft::RaftConsensus* gone = cluster.node(removed)->server()->consensus();
  // The farewell heartbeat delivered the config in which it is absent...
  EXPECT_FALSE(gone->config().Contains(removed));
  // ...so it parked: following, not campaigning, terms quiet.
  EXPECT_EQ(gone->role(), RaftRole::kFollower);
  raft::RaftConsensus* leader = cluster.node(primary)->server()->consensus();
  EXPECT_LE(gone->term(), leader->term());
  for (const MemberId& id : cluster.ids()) {
    if (id == removed) continue;
    EXPECT_FALSE(cluster.node(id)->server()->consensus()->config().Contains(
        removed))
        << id;
  }
  ASSERT_TRUE(cluster.SyncWrite("post-remove", "v").status.ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency());
}

TEST(ClusterMembershipTest, ReconfigRacingLeaderTransferStaysSafe) {
  ClusterOptions options;
  options.seed = 68;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  ClusterHarness cluster(options, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("a", "1").status.ok());
  cluster.loop()->RunFor(2 * kSecond);

  // A database voter in another region to hand leadership to, and a
  // logtailer to demote, mid-handoff.
  MemberId transfer_target;
  for (const auto& member : cluster.config().members) {
    if (member.kind == MemberKind::kMySql && member.is_voter() &&
        member.id != primary) {
      transfer_target = member.id;
      break;
    }
  }
  ASSERT_FALSE(transfer_target.empty());
  const MemberId demote_target =
      LogtailerOutsideRegion(cluster, cluster.node(primary)->region());
  ASSERT_FALSE(demote_target.empty());

  raft::RaftConsensus* old_leader =
      cluster.node(primary)->server()->consensus();
  ASSERT_TRUE(old_leader->TransferLeadership(transfer_target).ok());
  // The reconfig races the in-flight transfer: both orders are legal, the
  // change may land on either side of the handoff or be refused — what
  // must hold is that the ring converges on one leader and one config.
  Status racing =
      cluster.admin()
          ->SwapMemberType(demote_target, RaftMemberType::kNonVoter)
          .status;
  EXPECT_TRUE(racing.ok() || racing.IsIllegalState() ||
              racing.IsServiceUnavailable())
      << racing;

  cluster.loop()->RunFor(10 * kSecond);
  const MemberId new_primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(new_primary.empty());
  raft::RaftConsensus* leader =
      cluster.node(new_primary)->server()->consensus();
  EXPECT_FALSE(leader->has_pending_config_change());
  // Every node ends on the leader's exact config identity.
  for (const MemberId& id : cluster.ids()) {
    raft::RaftConsensus* c = cluster.node(id)->server()->consensus();
    EXPECT_TRUE(c->config().SameIdAs(leader->config())) << id;
  }
  ASSERT_TRUE(cluster.SyncWrite("post-race", "v").status.ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency());
}

}  // namespace
}  // namespace myraft::sim

// FlexiRaft quorum engine: unit tests for all three modes plus cluster
// tests showing in-region commit, dynamic quorum shifting after failover,
// and the quorum-intersection safety property under random layouts.

#include "flexiraft/flexiraft.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "raft_test_harness.h"
#include "util/random.h"

namespace myraft::flexiraft {
namespace {

using raft::QuorumContext;
using raft_test::RaftTestCluster;
constexpr uint64_t kSecond = 1'000'000;

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

/// Paper topology: primary + 2 logtailers per region, 3 regions, one
/// mysql voter per region.
MembershipConfig PaperConfig() {
  MembershipConfig config;
  for (int r = 0; r < 3; ++r) {
    const std::string region = "r" + std::to_string(r);
    config.members.push_back(MemberInfo{"db" + std::to_string(r), region,
                                        MemberKind::kMySql,
                                        RaftMemberType::kVoter});
    config.members.push_back(MemberInfo{"lt" + std::to_string(r) + "a",
                                        region, MemberKind::kLogtailer,
                                        RaftMemberType::kVoter});
    config.members.push_back(MemberInfo{"lt" + std::to_string(r) + "b",
                                        region, MemberKind::kLogtailer,
                                        RaftMemberType::kVoter});
  }
  return config;
}

QuorumContext Context(const MembershipConfig& config, const MemberId& subject,
                      const RegionId& subject_region,
                      const RegionId& last_leader_region = "") {
  QuorumContext context;
  context.config = &config;
  context.subject = subject;
  context.subject_region = subject_region;
  context.last_leader_region = last_leader_region;
  return context;
}

TEST(FlexiRaftUnitTest, SingleRegionCommitQuorum) {
  FlexiRaftQuorumEngine engine({QuorumMode::kSingleRegionDynamic});
  const auto config = PaperConfig();
  const auto context = Context(config, "db0", "r0");

  // Leader alone: 1 of 3 in-region voters — not enough.
  EXPECT_FALSE(engine.IsCommitQuorumSatisfied(context, {"db0"}));
  // Leader + one in-region logtailer: the paper's data quorum.
  EXPECT_TRUE(engine.IsCommitQuorumSatisfied(context, {"db0", "lt0a"}));
  // Acks from other regions don't help if the home region lacks majority.
  EXPECT_FALSE(engine.IsCommitQuorumSatisfied(
      context, {"db0", "db1", "db2", "lt1a", "lt2a"}));
}

TEST(FlexiRaftUnitTest, SingleRegionElectionQuorumSameRegion) {
  FlexiRaftQuorumEngine engine({QuorumMode::kSingleRegionDynamic});
  const auto config = PaperConfig();
  // Candidate in the same region as the last leader: its own region
  // majority covers both requirements.
  const auto context = Context(config, "lt0a", "r0", "r0");
  EXPECT_TRUE(engine.IsElectionQuorumSatisfied(context, {"lt0a", "db0"}));
  EXPECT_FALSE(engine.IsElectionQuorumSatisfied(context, {"lt0a"}));
}

TEST(FlexiRaftUnitTest, SingleRegionElectionQuorumCrossRegion) {
  FlexiRaftQuorumEngine engine({QuorumMode::kSingleRegionDynamic});
  const auto config = PaperConfig();
  // Candidate in r1 while the last leader was in r0: needs majorities in
  // both regions.
  const auto context = Context(config, "db1", "r1", "r0");
  EXPECT_FALSE(
      engine.IsElectionQuorumSatisfied(context, {"db1", "lt1a"}));  // r1 only
  EXPECT_FALSE(engine.IsElectionQuorumSatisfied(
      context, {"db1", "db0", "lt0a"}));  // r0 majority but not r1
  EXPECT_TRUE(engine.IsElectionQuorumSatisfied(
      context, {"db1", "lt1a", "db0", "lt0a"}));
}

TEST(FlexiRaftUnitTest, BootstrapElectionNeedsGlobalMajority) {
  FlexiRaftQuorumEngine engine({QuorumMode::kSingleRegionDynamic});
  const auto config = PaperConfig();
  const auto context = Context(config, "db0", "r0", /*last leader*/ "");
  // 9 voters -> needs 5 overall plus own-region majority.
  EXPECT_FALSE(engine.IsElectionQuorumSatisfied(
      context, {"db0", "lt0a", "lt0b", "db1"}));
  EXPECT_TRUE(engine.IsElectionQuorumSatisfied(
      context, {"db0", "lt0a", "lt0b", "db1", "lt1a"}));
}

TEST(FlexiRaftUnitTest, DynamicElectionRequiresEvidenceCoverage) {
  FlexiRaftQuorumEngine engine({QuorumMode::kSingleRegionDynamic});
  const auto config = PaperConfig();
  auto context = Context(config, "db1", "r1", "r0");
  const std::set<MemberId> granted{"db1", "lt1a", "db0", "lt0a"};
  // Caller-vouched view: the scalar rule accepts r1 + r0 majorities.
  EXPECT_TRUE(engine.IsElectionQuorumSatisfied(context, granted));
  // Live-election view: the same grants are not trusted until a majority
  // of EVERY region has responded — the freshest leader evidence could be
  // hiding in silent r2.
  std::set<MemberId> responded = granted;
  std::set<RegionId> evidence{"r0"};
  context.responded = &responded;
  context.evidence_regions = &evidence;
  EXPECT_FALSE(engine.IsElectionQuorumSatisfied(context, granted));
  // Denials carry evidence too: r2 responses complete the coverage.
  responded.insert("lt2a");
  responded.insert("lt2b");
  EXPECT_TRUE(engine.IsElectionQuorumSatisfied(context, granted));
}

TEST(FlexiRaftUnitTest, DynamicElectionRequiresAllEvidenceRegions) {
  FlexiRaftQuorumEngine engine({QuorumMode::kSingleRegionDynamic});
  const auto config = PaperConfig();
  auto context = Context(config, "db1", "r1", "r0");
  std::set<MemberId> responded;
  for (const auto& m : config.members) responded.insert(m.id);
  // A binding vote recorded for an r2 candidate means a leader may exist
  // there: its data quorum must be intersected too, not just the
  // max-term region's (two candidates can disagree on the max).
  std::set<RegionId> evidence{"r0", "r2"};
  context.responded = &responded;
  context.evidence_regions = &evidence;
  std::set<MemberId> granted{"db1", "lt1a", "db0", "lt0a"};
  EXPECT_FALSE(engine.IsElectionQuorumSatisfied(context, granted));
  granted.insert("lt2a");
  granted.insert("lt2b");
  EXPECT_TRUE(engine.IsElectionQuorumSatisfied(context, granted));
}

TEST(FlexiRaftUnitTest, PristineClusterElectionNeedsEveryRegion) {
  FlexiRaftQuorumEngine engine({QuorumMode::kSingleRegionDynamic});
  const auto config = PaperConfig();
  auto context = Context(config, "db0", "r0", "");
  std::set<MemberId> responded;
  for (const auto& m : config.members) responded.insert(m.id);
  std::set<RegionId> evidence;  // nobody ever led or voted
  context.responded = &responded;
  context.evidence_regions = &evidence;
  // A plain global majority is not enough on the live path: two pristine
  // same-term candidates with disjoint global majorities must still
  // share a region-majority somewhere.
  EXPECT_FALSE(engine.IsElectionQuorumSatisfied(
      context, {"db0", "lt0a", "lt0b", "db1", "lt1a"}));
  EXPECT_TRUE(engine.IsElectionQuorumSatisfied(
      context, {"db0", "lt0a", "db1", "lt1a", "db2", "lt2a"}));
}

// Model-level regression for a double-leader found by the chaos harness:
// two same-term candidates aggregate the last-leader view from whichever
// voters happened to respond, judge themselves against divergent stale
// views, and win with disjoint quorums. Simulates the voter protocol
// (binding vote per term, evidence reported pre-vote and excluding votes
// for the requester) under random layouts, histories, reachability and
// interleavings: no interleaving may produce two winners.
class FlexiRaftElectionSafetyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(FlexiRaftElectionSafetyTest, SameTermCandidatesCannotBothWin) {
  Random rng(GetParam());
  FlexiRaftQuorumEngine engine({QuorumMode::kSingleRegionDynamic});
  for (int round = 0; round < 200; ++round) {
    MembershipConfig config;
    const int regions = 2 + static_cast<int>(rng.Uniform(3));
    for (int r = 0; r < regions; ++r) {
      const int voters = 1 + static_cast<int>(rng.Uniform(5));
      for (int v = 0; v < voters; ++v) {
        config.members.push_back(MemberInfo{
            StringPrintf("m%d_%d", r, v), "r" + std::to_string(r),
            MemberKind::kMySql, RaftMemberType::kVoter});
      }
    }
    const auto& members = config.members;
    if (members.size() < 2) continue;

    // Per-voter persisted state: the latest binding vote (term, for,
    // region) — earlier failed elections leave these behind.
    struct VoterState {
      uint64_t vote_term = 0;
      MemberId voted_for;
      RegionId voted_region;
    };
    std::map<MemberId, VoterState> state;
    for (const auto& m : members) {
      VoterState s;
      if (rng.OneIn(2)) {
        const auto& past = members[rng.Uniform(members.size())];
        s.vote_term = 1 + rng.Uniform(5);
        s.voted_for = past.id;
        s.voted_region = past.region;
      }
      state[m.id] = s;
    }

    const uint64_t kTerm = 10;
    const size_t ai = rng.Uniform(members.size());
    size_t bi = rng.Uniform(members.size() - 1);
    if (bi >= ai) ++bi;
    const MemberInfo& cand_a = members[ai];
    const MemberInfo& cand_b = members[bi];

    struct Tally {
      std::set<MemberId> granted;
      std::set<MemberId> responded;
      std::set<RegionId> evidence;
    };
    Tally tally_a, tally_b;
    auto respond = [&](const MemberInfo& voter, const MemberInfo& cand,
                       Tally* tally) {
      tally->responded.insert(voter.id);
      VoterState& s = state[voter.id];
      // Evidence computed before recording this vote, excluding votes
      // for the requester itself (mirrors PotentialLeaderEvidence).
      if (s.vote_term > 0 && s.voted_for != cand.id) {
        tally->evidence.insert(s.voted_region);
      }
      if (s.voted_for.empty() || s.vote_term < kTerm) {
        s.vote_term = kTerm;
        s.voted_for = cand.id;
        s.voted_region = cand.region;
        tally->granted.insert(voter.id);
      } else if (s.voted_for == cand.id) {
        tally->granted.insert(voter.id);
      }
    };
    // Candidates vote for themselves first.
    respond(cand_a, cand_a, &tally_a);
    respond(cand_b, cand_b, &tally_b);
    // Remaining voters handle the two requests in random order; either
    // request may be lost to them entirely.
    for (const auto& m : members) {
      if (m.id == cand_a.id || m.id == cand_b.id) continue;
      const bool reach_a = !rng.OneIn(4);
      const bool reach_b = !rng.OneIn(4);
      const bool a_first = rng.OneIn(2);
      if (a_first && reach_a) respond(m, cand_a, &tally_a);
      if (reach_b) respond(m, cand_b, &tally_b);
      if (!a_first && reach_a) respond(m, cand_a, &tally_a);
    }
    // Each candidate may also (or may not) hear the rival's request.
    if (rng.OneIn(2)) respond(cand_a, cand_b, &tally_b);
    if (rng.OneIn(2)) respond(cand_b, cand_a, &tally_a);

    auto satisfied = [&](const MemberInfo& cand, const Tally& tally) {
      QuorumContext context =
          Context(config, cand.id, cand.region, /*last leader*/ "");
      context.responded = &tally.responded;
      context.evidence_regions = &tally.evidence;
      return engine.IsElectionQuorumSatisfied(context, tally.granted);
    };
    const bool a_wins = satisfied(cand_a, tally_a);
    const bool b_wins = satisfied(cand_b, tally_b);
    ASSERT_FALSE(a_wins && b_wins)
        << "round " << round << ": " << cand_a.id << " and " << cand_b.id
        << " both won term " << kTerm;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlexiRaftElectionSafetyTest,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(FlexiRaftUnitTest, MultiRegionMode) {
  FlexiRaftOptions options;
  options.mode = QuorumMode::kMultiRegion;
  options.multi_region_commit_regions = 2;
  FlexiRaftQuorumEngine engine(options);
  const auto config = PaperConfig();
  const auto context = Context(config, "db0", "r0");

  // One region majority is not enough to commit.
  EXPECT_FALSE(engine.IsCommitQuorumSatisfied(context, {"db0", "lt0a"}));
  // Two region majorities commit.
  EXPECT_TRUE(engine.IsCommitQuorumSatisfied(
      context, {"db0", "lt0a", "db1", "lt1a"}));
  // Election: R=3, K=2 -> needs majorities in 2 regions.
  EXPECT_FALSE(engine.IsElectionQuorumSatisfied(context, {"db0", "lt0a"}));
  EXPECT_TRUE(engine.IsElectionQuorumSatisfied(
      context, {"db0", "lt0a", "lt1a", "lt1b"}));
}

TEST(FlexiRaftUnitTest, VanillaModeMatchesMajorityEngine) {
  FlexiRaftQuorumEngine engine({QuorumMode::kVanillaMajority});
  raft::MajorityQuorumEngine vanilla;
  const auto config = PaperConfig();
  const auto context = Context(config, "db0", "r0");
  Random rng(4);
  for (int i = 0; i < 200; ++i) {
    std::set<MemberId> members;
    for (const auto& m : config.members) {
      if (rng.OneIn(2)) members.insert(m.id);
    }
    EXPECT_EQ(engine.IsCommitQuorumSatisfied(context, members),
              vanilla.IsCommitQuorumSatisfied(context, members));
    EXPECT_EQ(engine.IsElectionQuorumSatisfied(context, members),
              vanilla.IsElectionQuorumSatisfied(context, members));
  }
}

// Safety property: any satisfying election quorum intersects any possible
// data-commit quorum of the previous leader (that is what makes leader
// completeness hold).
class FlexiRaftIntersectionTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(FlexiRaftIntersectionTest, ElectionQuorumIntersectsPriorDataQuorums) {
  Random rng(GetParam());
  // Random layout: 2-4 regions, 1-5 voters each.
  MembershipConfig config;
  const int regions = 2 + static_cast<int>(rng.Uniform(3));
  for (int r = 0; r < regions; ++r) {
    const int voters = 1 + static_cast<int>(rng.Uniform(5));
    for (int v = 0; v < voters; ++v) {
      config.members.push_back(MemberInfo{
          StringPrintf("m%d_%d", r, v), "r" + std::to_string(r),
          MemberKind::kMySql, RaftMemberType::kVoter});
    }
  }
  FlexiRaftQuorumEngine engine({QuorumMode::kSingleRegionDynamic});

  const auto by_region = VotersByRegion(config);
  // Previous leader lived in region L; its data quorums are the
  // majorities of region L.
  for (const auto& [leader_region, leader_voters] : by_region) {
    for (const auto& [cand_region, cand_voters] : by_region) {
      const MemberId candidate = cand_voters[0];
      const auto context =
          Context(config, candidate, cand_region, leader_region);
      // Sample random elector sets; whenever the engine says "satisfied",
      // check intersection with every minimal data quorum of L.
      for (int trial = 0; trial < 50; ++trial) {
        std::set<MemberId> granted{candidate};
        for (const auto& m : config.members) {
          if (rng.OneIn(2)) granted.insert(m.id);
        }
        if (!engine.IsElectionQuorumSatisfied(context, granted)) continue;

        // Enumerate minimal majorities of leader_region via bitmask (<=5
        // voters per region).
        const auto& lv = leader_voters;
        const int need = static_cast<int>(lv.size()) / 2 + 1;
        for (uint32_t mask = 0; mask < (1u << lv.size()); ++mask) {
          if (__builtin_popcount(mask) != need) continue;
          bool intersects = false;
          for (size_t i = 0; i < lv.size(); ++i) {
            if ((mask & (1u << i)) && granted.count(lv[i]) > 0) {
              intersects = true;
              break;
            }
          }
          ASSERT_TRUE(intersects)
              << "election quorum misses a data quorum of "
              << leader_region;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlexiRaftIntersectionTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// --- Cluster tests ------------------------------------------------------------

raft::RaftOptions FastOptions() {
  raft::RaftOptions options;
  options.heartbeat_interval_micros = 500'000;
  options.missed_heartbeats_before_election = 3;
  return options;
}

void AddPaperTopology(RaftTestCluster* cluster) {
  for (int r = 0; r < 3; ++r) {
    const std::string region = "r" + std::to_string(r);
    cluster->AddMemberSpec("db" + std::to_string(r), region,
                           MemberKind::kMySql);
    cluster->AddMemberSpec("lt" + std::to_string(r) + "a", region,
                           MemberKind::kLogtailer);
    cluster->AddMemberSpec("lt" + std::to_string(r) + "b", region,
                           MemberKind::kLogtailer);
  }
}

TEST(FlexiRaftClusterTest, CommitsWithOnlyInRegionAcks) {
  // Cut all cross-region links after electing a leader: with FlexiRaft
  // single-region-dynamic the leader keeps committing, with vanilla
  // majority (9 voters, 3 reachable) it cannot.
  for (const bool flexi : {true, false}) {
    static FlexiRaftQuorumEngine flexi_engine({
        QuorumMode::kSingleRegionDynamic});
    static raft::MajorityQuorumEngine majority_engine;
    RaftTestCluster cluster(2024);
    AddPaperTopology(&cluster);
    cluster.StartAll(
        flexi ? static_cast<const raft::QuorumEngine*>(&flexi_engine)
              : &majority_engine,
        FastOptions());
    const MemberId leader_id = cluster.WaitForLeader(10 * kSecond);
    ASSERT_FALSE(leader_id.empty()) << "flexi=" << flexi;
    raft::RaftConsensus* leader = cluster.node(leader_id)->consensus();
    ASSERT_TRUE(cluster.WaitForCommit(leader_id, leader->last_logged(),
                                      3 * kSecond));

    // Partition the leader's region from everything else.
    const RegionId home = cluster.node(leader_id)->region();
    cluster.network()->SetRegionPartitioned(home, true);

    auto opid = leader->Replicate(EntryType::kNoOp, "in-region-commit");
    ASSERT_TRUE(opid.ok());
    const bool committed = cluster.WaitForCommit(leader_id, *opid, 3 * kSecond);
    EXPECT_EQ(committed, flexi) << "flexi=" << flexi;
    cluster.network()->SetRegionPartitioned(home, false);
  }
}

TEST(FlexiRaftClusterTest, DynamicQuorumShiftsAfterFailover) {
  static FlexiRaftQuorumEngine engine({QuorumMode::kSingleRegionDynamic});
  RaftTestCluster cluster(909);
  AddPaperTopology(&cluster);
  cluster.StartAll(&engine, FastOptions());

  const MemberId first_leader = cluster.WaitForLeader(10 * kSecond);
  ASSERT_FALSE(first_leader.empty());
  const RegionId first_region = cluster.node(first_leader)->region();
  raft::RaftConsensus* leader = cluster.node(first_leader)->consensus();
  auto opid = leader->Replicate(EntryType::kNoOp, "gen1");
  ASSERT_TRUE(opid.ok());
  ASSERT_TRUE(cluster.WaitForCommit(first_leader, *opid, 3 * kSecond));

  // Kill the whole first region except... kill the db and both
  // logtailers: the quorum fixer case. Instead kill only the leader: the
  // in-region logtailers still hold the tail, so a cross-region candidate
  // can win by getting votes from the dead leader's region + its own.
  cluster.Crash(first_leader);
  const MemberId second_leader = cluster.WaitForLeader(15 * kSecond);
  ASSERT_FALSE(second_leader.empty());
  ASSERT_NE(second_leader, first_leader);

  // A logtailer of the first region may win first (longest log) and then
  // hand off; eventually a database leader stands. Wherever it is, it
  // must now commit with ITS region's quorum only.
  cluster.loop()->RunFor(10 * kSecond);
  const MemberId final_leader = cluster.CurrentLeader();
  ASSERT_FALSE(final_leader.empty());
  raft::RaftConsensus* new_leader = cluster.node(final_leader)->consensus();
  if (new_leader->role() != RaftRole::kLeader) return;
  const RegionId new_region = cluster.node(final_leader)->region();

  // Partition everything except the new leader's region: commits still
  // flow (quorum shifted with the leadership).
  cluster.network()->SetRegionPartitioned(new_region, true);
  auto opid2 = new_leader->Replicate(EntryType::kNoOp, "gen2");
  ASSERT_TRUE(opid2.ok()) << opid2.status();
  EXPECT_TRUE(cluster.WaitForCommit(final_leader, *opid2, 3 * kSecond))
      << "new leader in " << new_region << " (was " << first_region << ")";
}

TEST(FlexiRaftClusterTest, CommittedEntriesSurviveCrossRegionFailover) {
  // Safety end-to-end: commit in region r0's quorum only, crash the
  // leader, and require that any new leader still has the entry.
  static FlexiRaftQuorumEngine engine({QuorumMode::kSingleRegionDynamic});
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    RaftTestCluster cluster(seed);
    AddPaperTopology(&cluster);
    cluster.StartAll(&engine, FastOptions());
    const MemberId leader_id = cluster.WaitForLeader(10 * kSecond);
    ASSERT_FALSE(leader_id.empty());
    raft::RaftConsensus* leader = cluster.node(leader_id)->consensus();

    auto opid = leader->Replicate(EntryType::kNoOp, "must-survive");
    ASSERT_TRUE(opid.ok());
    ASSERT_TRUE(cluster.WaitForCommit(leader_id, *opid, 3 * kSecond));
    // Crash immediately after commit: the entry may only exist in the
    // leader's region.
    cluster.Crash(leader_id);

    const MemberId new_leader_id = cluster.WaitForLeader(20 * kSecond);
    ASSERT_FALSE(new_leader_id.empty()) << "seed " << seed;
    cluster.loop()->RunFor(5 * kSecond);
    const MemberId final_id = cluster.CurrentLeader();
    ASSERT_FALSE(final_id.empty());
    auto entry =
        cluster.node(final_id)->consensus()->log()->Read(opid->index);
    ASSERT_TRUE(entry.ok()) << "seed " << seed << ": committed entry lost";
    EXPECT_EQ(entry->payload, "must-survive") << "seed " << seed;
  }
}

TEST(FlexiRaftClusterTest, MultiRegionModeSurvivesFullRegionLoss) {
  // §4.1's consistency-over-latency configuration: with multi-region
  // quorums (k=2 of 3 regions), losing an entire region neither loses
  // data nor availability — at the price of cross-region commit RTTs.
  FlexiRaftOptions options;
  options.mode = QuorumMode::kMultiRegion;
  options.multi_region_commit_regions = 2;
  static FlexiRaftQuorumEngine engine(options);
  RaftTestCluster cluster(606);
  AddPaperTopology(&cluster);
  cluster.StartAll(&engine, FastOptions());

  const MemberId leader_id = cluster.WaitForLeader(15 * kSecond);
  ASSERT_FALSE(leader_id.empty());
  raft::RaftConsensus* leader = cluster.node(leader_id)->consensus();
  auto opid = leader->Replicate(EntryType::kNoOp, "multi-region");
  ASSERT_TRUE(opid.ok());
  ASSERT_TRUE(cluster.WaitForCommit(leader_id, *opid, 3 * kSecond));

  // Kill a whole region that does NOT host the leader.
  RegionId victim_region;
  for (const MemberId& id : cluster.ids()) {
    if (cluster.node(id)->region() != cluster.node(leader_id)->region()) {
      victim_region = cluster.node(id)->region();
      break;
    }
  }
  for (const MemberId& id : cluster.ids()) {
    if (cluster.node(id)->region() == victim_region) cluster.Crash(id);
  }
  // Commits still flow: 2 surviving regions form the k=2 quorum.
  auto opid2 = leader->Replicate(EntryType::kNoOp, "post-outage");
  ASSERT_TRUE(opid2.ok());
  EXPECT_TRUE(cluster.WaitForCommit(leader_id, *opid2, 5 * kSecond));

  // Even losing the LEADER's region afterwards only costs an election:
  // the third region plus the other survivor elect and keep the data.
  const RegionId leader_region = cluster.node(leader_id)->region();
  for (const MemberId& id : cluster.ids()) {
    if (cluster.node(id)->region() == leader_region) cluster.Crash(id);
  }
  // Restart the first victim region so two regions are up again.
  for (const MemberId& id : cluster.ids()) {
    if (cluster.node(id)->region() == victim_region) {
      cluster.Restart(id);
    }
  }
  const MemberId new_leader = cluster.WaitForLeader(30 * kSecond);
  ASSERT_FALSE(new_leader.empty());
  auto entry =
      cluster.node(new_leader)->consensus()->log()->Read(opid2->index);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->payload, "post-outage");
}

TEST(FlexiRaftClusterTest, VotingHistoryBlocksStaleQuorumElection) {
  // Regression for a real safety bug found by shadow testing: members that
  // voted for a new leader but never received its AppendEntries (their
  // region's proxy relay had died) must not later form an election quorum
  // based on their stale last-known-leader view and truncate the new
  // leader's committed entries. The voting history (§4.1) is what blocks
  // them.
  static FlexiRaftQuorumEngine engine({QuorumMode::kSingleRegionDynamic});
  RaftTestCluster cluster(808);
  AddPaperTopology(&cluster);  // r0/r1/r2, db + 2 logtailers each
  cluster.StartAll(&engine, FastOptions());

  ASSERT_FALSE(cluster.WaitForLeader(10 * kSecond).empty());
  cluster.loop()->RunFor(2 * kSecond);
  const MemberId first_leader = cluster.CurrentLeader();
  ASSERT_FALSE(first_leader.empty());

  // Move leadership to a database in another region (graceful §4.3
  // transfer keeps this deterministic — a timeout-driven failover may
  // just elect an in-region logtailer), then crash the old leader. The
  // old region's logtailers cast binding votes for the new leader but
  // will be cut off before receiving any of its entries.
  const RegionId old_region = cluster.node(first_leader)->region();
  MemberId new_leader;
  for (const MemberId& id : cluster.ids()) {
    if (cluster.node(id)->region() != old_region &&
        id.compare(0, 2, "db") == 0) {
      new_leader = id;
      break;
    }
  }
  ASSERT_FALSE(new_leader.empty());
  const Status transfer_status =
      cluster.node(first_leader)->consensus()->TransferLeadership(new_leader);
  ASSERT_TRUE(transfer_status.ok()) << transfer_status.ToString();
  for (int i = 0; i < 40 && cluster.CurrentLeader() != new_leader; ++i) {
    cluster.loop()->RunFor(kSecond / 2);
  }
  ASSERT_EQ(cluster.CurrentLeader(), new_leader);
  cluster.Crash(first_leader);
  const RegionId new_region = cluster.node(new_leader)->region();
  ASSERT_NE(new_region, old_region);

  // Immediately cut the old region's surviving voters off from everyone
  // else: they voted for the new leader but never see its entries.
  std::vector<MemberId> starved;
  for (const MemberId& id : cluster.ids()) {
    if (id == first_leader) continue;
    if (cluster.node(id)->region() != old_region) continue;
    starved.push_back(id);
    for (const MemberId& other : cluster.ids()) {
      if (cluster.node(other)->region() != old_region) {
        cluster.network()->SetLinkCut(id, other, true);
      }
    }
  }
  ASSERT_GE(starved.size(), 2u);

  // The new leader commits a batch the starved members never receive.
  raft::RaftConsensus* leader = cluster.node(new_leader)->consensus();
  OpId last;
  for (int i = 0; i < 10; ++i) {
    auto opid = leader->Replicate(EntryType::kNoOp, "committed-elsewhere");
    ASSERT_TRUE(opid.ok());
    last = *opid;
  }
  ASSERT_TRUE(cluster.WaitForCommit(new_leader, last, 5 * kSecond));

  // Let the starved pair time out and campaign repeatedly: they hold a
  // majority of their own region AND of the crashed ex-leader's region
  // (the same one), so without voting history they would elect
  // themselves and truncate `last`.
  cluster.loop()->RunFor(20 * kSecond);
  for (const MemberId& id : starved) {
    EXPECT_NE(cluster.node(id)->consensus()->role(), RaftRole::kLeader)
        << id << " stole leadership with a stale quorum";
  }
  EXPECT_EQ(leader->role(), RaftRole::kLeader);

  // Heal; everyone converges to the committed history, nothing truncated
  // on the leader's side.
  for (const MemberId& id : starved) {
    for (const MemberId& other : cluster.ids()) {
      cluster.network()->SetLinkCut(id, other, false);
    }
  }
  cluster.loop()->RunFor(5 * kSecond);
  auto entry = cluster.node(new_leader)->consensus()->log()->Read(last.index);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->payload, "committed-elsewhere");
  for (const MemberId& id : starved) {
    auto starved_entry = cluster.node(id)->consensus()->log()->Read(last.index);
    ASSERT_TRUE(starved_entry.ok()) << id;
    EXPECT_EQ(starved_entry->payload, "committed-elsewhere") << id;
  }
}

}  // namespace
}  // namespace myraft::flexiraft

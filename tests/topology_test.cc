// One ring layout (sim/topology.h) for every host: the MyRaft harness,
// the semi-sync harness and the fleet bootstrap exactly the members
// sim::RingMembers gives, so the §6.1 A/B arms differ in protocol alone.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "fleet/fleet.h"
#include "flexiraft/flexiraft.h"
#include "semisync/cluster.h"
#include "sim/cluster.h"
#include "sim/topology.h"

namespace myraft::sim {
namespace {

/// (id, region, kind, voter) of one bootstrapped member.
using Row = std::tuple<MemberId, RegionId, MemberKind, bool>;

TEST(TopologyTest, BothArmsBootstrapTheSamePaperRing) {
  ClusterOptions raft_options;
  raft_options.topology = PaperRingTopology();
  ClusterHarness raft(raft_options, flexiraft::SingleRegionDynamic());
  ASSERT_TRUE(raft.Bootstrap().ok());

  semisync::SemiSyncClusterOptions semisync_options;
  semisync_options.topology = PaperRingTopology();
  semisync::SemiSyncCluster semisync(semisync_options);
  ASSERT_TRUE(semisync.Bootstrap().ok());

  // Each arm's members in bootstrap order, with the region each member
  // process was started in.
  std::vector<Row> raft_rows;
  for (const MemberInfo& m : raft.config().members) {
    raft_rows.emplace_back(m.id, raft.node(m.id)->region(), m.kind,
                           m.is_voter());
  }
  std::vector<Row> semisync_rows;
  for (const MemberInfo& m : semisync.members()) {
    semisync_rows.emplace_back(m.id, semisync.region(m.id),
                               semisync.kind(m.id), m.is_voter());
  }
  EXPECT_EQ(raft_rows, semisync_rows);
  EXPECT_EQ(raft.ids(), semisync.ids());

  // The §6.1 shape: 6 x (database + 2 logtailers) + 2 learners, the
  // learners round-robin over the follower regions.
  ASSERT_EQ(raft_rows.size(), 20u);
  EXPECT_EQ(raft_rows[0], Row("db0", "region0", MemberKind::kMySql, true));
  EXPECT_EQ(raft_rows[17],
            Row("lt5b", "region5", MemberKind::kLogtailer, true));
  EXPECT_EQ(raft_rows[18],
            Row("learner0", "region1", MemberKind::kMySql, false));
  EXPECT_EQ(raft_rows[19],
            Row("learner1", "region2", MemberKind::kMySql, false));
}

TEST(TopologyTest, FleetShardBootstrapsItsPlacement) {
  fleet::FleetOptions options;
  options.shards = 8;
  options.regions = 3;
  fleet::FleetHarness fleet(options, flexiraft::SingleRegionDynamic());
  ASSERT_TRUE(fleet.Bootstrap().ok());

  // Shard 7's home region is 7 % 3 on the fleet's 3-region ring.
  const std::vector<MemberInfo> expected = RingMembers(
      TopologyOptions{},
      RingPlacement{
          .member_prefix = "rs7.", .region_offset = 1, .region_modulus = 3});
  Shard* shard = fleet.shard(7);
  EXPECT_EQ(shard->config().members, expected);
  for (const MemberInfo& m : expected) {
    EXPECT_EQ(shard->node(m.id)->region(), m.region) << m.id;
  }
  ASSERT_EQ(expected.size(), 9u);
  EXPECT_EQ(expected[0].id, "rs7.db0");
  EXPECT_EQ(expected[0].region, "region1");
  EXPECT_EQ(expected[6].id, "rs7.db2");
  EXPECT_EQ(expected[6].region, "region0");
}

}  // namespace
}  // namespace myraft::sim

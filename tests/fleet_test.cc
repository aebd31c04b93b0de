// Fleet-layer tests (DESIGN.md §16): N Raft rings in one process over
// the shared simulator. Covered here:
//   - the distributed lock's FIFO grant order and TTL fencing;
//   - N-shard bootstrap determinism (same seed => byte-identical
//     fleet raftstat) and per-shard metric namespacing in the rollup;
//   - the leader-balancing placement policy converging from the
//     maximally-skewed placement;
//   - a region-outage failover storm recovering every shard;
//   - the §5.2 enable-raft rollout admitting exactly one concurrent
//     shard migration no matter how many workers contend.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "fleet/lock.h"
#include "fleet/rollout.h"
#include "flexiraft/flexiraft.h"

namespace myraft::fleet {
namespace {

constexpr uint64_t kSecond = 1'000'000;

// Multi-region commit quorums so a one-region outage is survivable and
// the storm is a mass automatic failover (see bench_fleet.cc).
const raft::QuorumEngine* MultiRegionEngine() {
  static auto* engine = new flexiraft::FlexiRaftQuorumEngine(
      {flexiraft::QuorumMode::kMultiRegion});
  return engine;
}

FleetOptions SmallFleet(int shards, uint64_t seed = 1) {
  FleetOptions options;
  options.shards = shards;
  options.regions = 3;
  options.seed = seed;
  options.trace_capacity = 64;
  return options;
}

// --- DistributedLock ---------------------------------------------------------

TEST(DistributedLockTest, GrantsFifoAcrossContendingOwners) {
  sim::EventLoop loop(1);
  DistributedLock lock(&loop, "enable-raft", {});

  std::vector<std::string> order;
  lock.Acquire("a", [&] { order.push_back("a"); });
  lock.Acquire("b", [&] { order.push_back("b"); });
  lock.Acquire("c", [&] { order.push_back("c"); });
  loop.RunFor(10'000);

  // Only the head holds; the rest queue FIFO.
  ASSERT_EQ(order, std::vector<std::string>({"a"}));
  EXPECT_EQ(lock.holder(), "a");
  EXPECT_EQ(lock.waiters(), 2u);

  lock.Release("a");
  loop.RunFor(10'000);
  ASSERT_EQ(order, std::vector<std::string>({"a", "b"}));

  // A non-holder's release is ignored.
  lock.Release("a");
  loop.RunFor(10'000);
  EXPECT_EQ(lock.holder(), "b");

  lock.Release("b");
  loop.RunFor(10'000);
  EXPECT_EQ(order, std::vector<std::string>({"a", "b", "c"}));
  EXPECT_EQ(lock.grants(), 3u);
}

TEST(DistributedLockTest, TtlFencesAHolderThatNeverReleases) {
  sim::EventLoop loop(1);
  DistributedLock::Options options;
  options.ttl_micros = 50'000;
  DistributedLock lock(&loop, "enable-raft", options);

  bool b_granted = false;
  lock.Acquire("crashed-operator", [] {});
  lock.Acquire("b", [&] { b_granted = true; });
  loop.RunFor(10'000);
  ASSERT_EQ(lock.holder(), "crashed-operator");
  ASSERT_FALSE(b_granted);

  // The holder never releases; the TTL fences it and moves the lock on.
  // (Run just past one TTL + grant RPC — "b" is subject to the same TTL
  // once granted.)
  loop.RunFor(60'000);
  EXPECT_TRUE(b_granted);
  EXPECT_EQ(lock.holder(), "b");
  EXPECT_EQ(lock.expirations(), 1u);

  // The fenced holder's late release must not yank the lock from "b".
  lock.Release("crashed-operator");
  EXPECT_EQ(lock.holder(), "b");
  lock.Release("b");
  EXPECT_FALSE(lock.held());
}

// --- Fleet bootstrap ---------------------------------------------------------

TEST(FleetHarnessTest, BootstrapIsDeterministicPerSeed) {
  std::string raftstat[2];
  for (int run = 0; run < 2; ++run) {
    FleetHarness fleet(SmallFleet(6, 7), flexiraft::SingleRegionDynamic());
    ASSERT_TRUE(fleet.Bootstrap().ok());
    ASSERT_EQ(fleet.WaitForAllPrimaries(60 * kSecond), 6);
    fleet.loop()->RunFor(2 * kSecond);
    raftstat[run] = fleet.RaftstatJson();
  }
  // Same seed => byte-identical fleet-wide raftstat (terms, indexes,
  // leaders, timestamps — everything).
  EXPECT_EQ(raftstat[0], raftstat[1]);
  EXPECT_NE(raftstat[0].find("\"rs0\""), std::string::npos);
  EXPECT_NE(raftstat[0].find("\"rs5\""), std::string::npos);
}

TEST(FleetHarnessTest, RollupNamespacesShardsAndSharesNetwork) {
  FleetHarness fleet(SmallFleet(4), flexiraft::SingleRegionDynamic());
  ASSERT_TRUE(fleet.Bootstrap().ok());
  ASSERT_EQ(fleet.WaitForAllPrimaries(60 * kSecond), 4);

  const metrics::MetricSnapshot rollup = fleet.MetricsRollup();
  // Every shard's counters appear under its own namespace: no collisions,
  // nothing silently merged.
  for (int s = 0; s < 4; ++s) {
    const std::string key =
        "shard.rs" + std::to_string(s) + ".raft.elections_won";
    EXPECT_TRUE(rollup.counters.count(key)) << key;
  }
  EXPECT_FALSE(rollup.counters.count("raft.elections_won"));
  // The shared network's counters ride along un-namespaced.
  EXPECT_TRUE(rollup.counters.count("net.dropped"));
}

// --- Placement ---------------------------------------------------------------

TEST(FleetHarnessTest, HomeRegionsRotateAndLeadersByRegionCounts) {
  FleetHarness fleet(SmallFleet(9), flexiraft::SingleRegionDynamic());
  ASSERT_TRUE(fleet.Bootstrap().ok());
  ASSERT_EQ(fleet.WaitForAllPrimaries(60 * kSecond), 9);

  // Shard s starts at region s % 3, so its db0 voter lives there. Park
  // every ring's leader on its db0 (initial election winners are whichever
  // node's timeout fired first, not the home region).
  auto home = [](int s) { return "region" + std::to_string(s % 3); };
  for (int s = 0; s < 9; ++s) {
    const MemberId db0 = "rs" + std::to_string(s) + ".db0";
    EXPECT_EQ(fleet.shard(s)->FindNode(db0)->region(), home(s)) << s;
  }
  const uint64_t deadline = fleet.loop()->now() + 120 * kSecond;
  auto all_home = [&fleet, &home] {
    for (int s = 0; s < 9; ++s) {
      if (fleet.shard(s)->PrimaryRegion() != home(s)) return false;
    }
    return true;
  };
  while (!all_home() && fleet.loop()->now() < deadline) {
    for (int s = 0; s < 9; ++s) {
      if (fleet.shard(s)->PrimaryRegion() == home(s)) continue;
      fleet.admin(s)->TransferLeadership("rs" + std::to_string(s) + ".db0");
    }
    fleet.loop()->RunFor(2 * kSecond);
  }
  ASSERT_TRUE(all_home());
  EXPECT_EQ(fleet.ShardsWithPrimary(), 9);
  // 9 home leaders over 3 regions => 3/3/3.
  std::map<RegionId, int> leaders = fleet.LeadersByRegion();
  EXPECT_EQ(leaders.size(), 3u);
  EXPECT_EQ(leaders["region0"], 3);
  EXPECT_EQ(leaders["region1"], 3);
  EXPECT_EQ(leaders["region2"], 3);
}

// --- Region-outage storm -----------------------------------------------------

TEST(FleetHarnessTest, RegionOutageStormRecoversEveryShard) {
  FleetHarness fleet(SmallFleet(9), MultiRegionEngine());
  ASSERT_TRUE(fleet.Bootstrap().ok());
  ASSERT_EQ(fleet.WaitForAllPrimaries(120 * kSecond), 9);
  ASSERT_GT(fleet.LeadersByRegion()["region0"], 0);

  fleet.network()->SetRegionPartitioned("region0", true);
  auto failed_over = [&fleet] {
    int count = 0;
    for (int s = 0; s < 9; ++s) {
      const RegionId region = fleet.shard(s)->PrimaryRegion();
      if (!region.empty() && region != "region0") ++count;
    }
    return count;
  };
  const uint64_t deadline = fleet.loop()->now() + 120 * kSecond;
  while (failed_over() < 9 && fleet.loop()->now() < deadline) {
    fleet.loop()->RunFor(10'000);
  }
  // Every ring serves from outside the dead region.
  EXPECT_EQ(failed_over(), 9);
  EXPECT_EQ(fleet.LeadersByRegion()["region0"], 0);

  fleet.network()->SetRegionPartitioned("region0", false);
  EXPECT_EQ(fleet.WaitForAllPrimaries(120 * kSecond), 9);
  for (int s = 0; s < 9; ++s) {
    EXPECT_TRUE(fleet.shard(s)->CheckReplicaConsistency()) << "shard " << s;
  }
}

// --- enable-raft rollout (§5.2) ----------------------------------------------

TEST(EnableRaftRolloutTest, LockAdmitsOneMigrationDespiteManyWorkers) {
  FleetOptions options = SmallFleet(8);
  options.pending_shards = 8;  // the whole fleet starts dark
  FleetHarness fleet(options, flexiraft::SingleRegionDynamic());
  ASSERT_TRUE(fleet.Bootstrap().ok());
  ASSERT_EQ(fleet.ShardsWithPrimary(), 0);
  ASSERT_EQ(fleet.PendingShards().size(), 8u);

  DistributedLock lock(fleet.loop(), "enable-raft",
                       {.metrics = fleet.fleet_metrics()});
  RolloutOptions rollout_options;
  rollout_options.workers = 4;  // four automation jobs race for the lock
  EnableRaftRollout rollout(&fleet, &lock, rollout_options);
  ASSERT_TRUE(rollout.RunToCompletion(600 * kSecond).ok());

  EXPECT_EQ(rollout.migrated(), 8);
  EXPECT_EQ(rollout.failed(), 0);
  // The §5.2 invariant: the lock serialises migrations to one at a time
  // no matter how many workers contend.
  EXPECT_EQ(rollout.max_concurrent_migrations(), 1);
  EXPECT_EQ(lock.grants(), 8u);

  EXPECT_TRUE(fleet.PendingShards().empty());
  EXPECT_EQ(fleet.WaitForAllPrimaries(60 * kSecond), 8);
  // Post-rollout the fleet really serves: one write per migrated shard.
  for (int s = 0; s < 8; ++s) {
    const sim::ClientWriteResult result =
        fleet.client(s)->SyncWrite("k", "v", 10 * kSecond);
    EXPECT_TRUE(result.status.ok()) << "shard " << s;
  }
}

}  // namespace
}  // namespace myraft::fleet

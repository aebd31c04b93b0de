// Operational tooling tests: enable-raft migration (§5.2), Quorum Fixer
// (§5.3) and MyShadow shadow-testing loops (§5.1), plus workload drivers.

#include <gtest/gtest.h>

#include "flexiraft/flexiraft.h"
#include "tools/enable_raft.h"
#include "tools/myshadow.h"
#include "tools/quorum_fixer.h"
#include "workload/workload.h"

namespace myraft::tools {
namespace {

using flexiraft::FlexiRaftQuorumEngine;
using flexiraft::QuorumMode;
constexpr uint64_t kSecond = 1'000'000;

const raft::QuorumEngine* FlexiEngine() {
  static FlexiRaftQuorumEngine* engine =
      new FlexiRaftQuorumEngine({QuorumMode::kSingleRegionDynamic});
  return engine;
}

TEST(EnableRaftTest, MigratesLiveSemiSyncReplicaset) {
  semisync::SemiSyncClusterOptions semisync_options;
  semisync_options.seed = 77;
  semisync_options.db_regions = 3;
  semisync::SemiSyncCluster cluster(semisync_options);
  ASSERT_TRUE(cluster.Bootstrap().ok());

  // Live data before migration.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.SyncWrite("pre" + std::to_string(i), "v").status.ok());
  }
  cluster.loop()->RunFor(2 * kSecond);

  auto result = EnableRaft(&cluster, FlexiEngine());
  ASSERT_TRUE(result.status.ok()) << result.status;
  // §5.2: "a small amount of write unavailability (usually a few seconds)".
  EXPECT_LT(result.write_unavailability_micros, 15ull * kSecond);
  ASSERT_FALSE(result.raft_nodes.empty());

  // The migrated ring serves writes and kept all pre-migration data.
  auto primary = cluster.discovery()->GetPrimary("rs0");
  ASSERT_TRUE(primary.has_value());
  sim::SimNode* primary_node = result.raft_nodes.at(*primary).get();
  EXPECT_TRUE(primary_node->server()->writes_enabled());
  EXPECT_EQ(primary_node->server()->Read("bench.kv", "pre19"), "pre19=v");

  bool done = false;
  binlog::RowOperation op;
  op.kind = binlog::RowOperation::Kind::kInsert;
  op.database = "bench";
  op.table = "kv";
  op.after_image = "post=migration";
  primary_node->server()->SubmitWrite({op}, [&](const server::WriteResult& r) {
    done = true;
    EXPECT_TRUE(r.status.ok()) << r.status;
  });
  cluster.loop()->RunFor(2 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(primary_node->server()->Read("bench.kv", "post"),
            "post=migration");
}

TEST(EnableRaftTest, RefusesUnsafeTargets) {
  semisync::SemiSyncClusterOptions semisync_options;
  semisync_options.seed = 78;
  semisync::SemiSyncCluster cluster(semisync_options);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  cluster.Crash("lt1a");  // a member is down -> not a suitable target
  auto result = EnableRaft(&cluster, FlexiEngine());
  EXPECT_FALSE(result.status.ok());
  // The semisync ring keeps working.
  EXPECT_TRUE(cluster.SyncWrite("still", "alive").status.ok());
}

sim::ClusterOptions RaftClusterOptions(uint64_t seed) {
  sim::ClusterOptions options;
  options.seed = seed;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  return options;
}

TEST(QuorumFixerTest, RestoresShatteredQuorum) {
  sim::ClusterHarness cluster(RaftClusterOptions(31), FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("precious", "data").status.ok());
  cluster.loop()->RunFor(2 * kSecond);

  // Shatter the data quorum: kill the primary AND its whole region's
  // logtailers, so the single-region-dynamic election quorum (which needs
  // the last leader's region) is unsatisfiable.
  const RegionId home = cluster.node(primary)->region();
  for (const MemberId& id : cluster.ids()) {
    if (cluster.node(id)->region() == home) cluster.Crash(id);
  }
  cluster.loop()->RunFor(20 * kSecond);
  EXPECT_EQ(cluster.CurrentPrimary(), "");

  auto report = RunQuorumFixer(&cluster);
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_TRUE(report.quorum_was_shattered);
  EXPECT_FALSE(report.chosen.empty());

  // Availability restored; committed data intact.
  cluster.loop()->RunFor(10 * kSecond);
  const MemberId new_primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(new_primary.empty());
  EXPECT_TRUE(cluster.SyncWrite("alive", "again").status.ok());
  EXPECT_EQ(cluster.node(new_primary)->server()->Read("bench.kv", "precious"),
            "precious=data");
}

TEST(QuorumFixerTest, LoglessRepairExcisesDeadVotersInOneForcedBump) {
  // §15 pinned schedule: the fixer does not stop at restoring a leader —
  // step 5 rebuilds the membership itself, demoting every dead voter in
  // ONE forced config bump (the force path
  // exists precisely because the single-change rule cannot be satisfied
  // when the old quorum is dead) and pinning quorum_spec to "majority"
  // so the survivors alone form every future quorum.
  sim::ClusterHarness cluster(RaftClusterOptions(34), FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("precious", "data").status.ok());
  cluster.loop()->RunFor(2 * kSecond);

  // Kill the primary's whole region: 3 of 9 voters dead, including the
  // only region that can satisfy the single-region-dynamic election
  // quorum.
  const RegionId home = cluster.node(primary)->region();
  std::vector<MemberId> dead;
  for (const MemberId& id : cluster.ids()) {
    if (cluster.node(id)->region() == home) {
      cluster.Crash(id);
      dead.push_back(id);
    }
  }
  ASSERT_EQ(dead.size(), 3u);
  cluster.loop()->RunFor(20 * kSecond);
  EXPECT_EQ(cluster.CurrentPrimary(), "");

  auto report = RunQuorumFixer(&cluster);
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_TRUE(report.quorum_was_shattered);
  EXPECT_TRUE(report.forced_reconfig);
  EXPECT_EQ(report.voters_excised, 3);

  cluster.loop()->RunFor(10 * kSecond);
  const MemberId new_primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(new_primary.empty());
  raft::RaftConsensus* leader =
      cluster.node(new_primary)->server()->consensus();
  // The repaired config committed (install quorum of the survivors),
  // keeps the dead members as non-voting learners for operators to
  // revive or retire, and pins the majority quorum spec.
  EXPECT_FALSE(leader->has_pending_config_change());
  EXPECT_EQ(leader->config().quorum_spec, "majority");
  for (const MemberId& id : dead) {
    const MemberInfo* info = leader->config().Find(id);
    ASSERT_NE(info, nullptr) << id;
    EXPECT_EQ(info->type, RaftMemberType::kNonVoter) << id;
  }

  // Availability restored; committed data intact.
  EXPECT_TRUE(cluster.SyncWrite("alive", "again").status.ok());
  EXPECT_EQ(cluster.node(new_primary)->server()->Read("bench.kv", "precious"),
            "precious=data");

  // Revived members rejoin as learners under the forced config — they
  // install the (term, version)-newer config and stop being voters, so
  // they can never resurrect the dead quorum.
  for (const MemberId& id : dead) {
    ASSERT_TRUE(cluster.Restart(id).ok()) << id;
  }
  cluster.loop()->RunFor(10 * kSecond);
  for (const MemberId& id : dead) {
    raft::RaftConsensus* revived = cluster.node(id)->server()->consensus();
    EXPECT_TRUE(revived->config().SameIdAs(leader->config())) << id;
    EXPECT_NE(revived->role(), RaftRole::kLeader) << id;
  }
  EXPECT_TRUE(cluster.SyncWrite("post-revival", "v").status.ok());
}

TEST(QuorumFixerTest, RefusesHealthyRing) {
  sim::ClusterHarness cluster(RaftClusterOptions(32), FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_FALSE(cluster.WaitForPrimary(30 * kSecond).empty());
  auto report = RunQuorumFixer(&cluster);
  EXPECT_FALSE(report.status.ok());
  EXPECT_FALSE(report.quorum_was_shattered);
}

TEST(MyShadowTest, FailureAndFunctionalRoundsFindNoViolations) {
  sim::ClusterHarness cluster(RaftClusterOptions(33), FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());

  MyShadowOptions options;
  options.failure_injection_rounds = 3;
  options.functional_rounds = 3;
  options.workload_rate_per_sec = 50;
  auto report = RunMyShadow(&cluster, options);
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_EQ(report.rounds_run, 6);
  EXPECT_EQ(report.consistency_violations, 0);
  EXPECT_EQ(report.durability_violations, 0);
  EXPECT_GT(report.writes_committed, 0u);
  EXPECT_EQ(report.failover_downtime_micros.count(), 3u);
  // Failovers are slower than graceful promotions.
  EXPECT_GT(report.failover_downtime_micros.Mean(),
            report.promotion_downtime_micros.Mean());
}

TEST(WorkloadDriverTest, OpenLoopRatesAndRecording) {
  sim::EventLoop loop(3);
  // Fake instant-commit write path.
  workload::WorkloadOptions options;
  options.kind = workload::WorkloadKind::kProductionLike;
  options.arrival_rate_per_sec = 1000;
  options.duration_micros = 2 * kSecond;
  options.seed = 4;
  workload::WorkloadDriver driver(
      &loop, options,
      [&loop](const std::string& key, const std::string& value,
              std::function<void(bool, uint64_t)> done) {
        loop.Schedule(500 + (key.size() % 7) * 100,
                      [done]() { done(true, 0); });
      });
  driver.RunToCompletion();
  const auto& recorder = driver.recorder();
  // ~1000/s for 2s with Poisson noise.
  EXPECT_GT(recorder.committed(), 1600u);
  EXPECT_LT(recorder.committed(), 2400u);
  EXPECT_EQ(recorder.failed(), 0u);
  EXPECT_GT(recorder.latency().Mean(), 400.0);
  const auto series = driver.recorder().ThroughputSeries(kSecond);
  EXPECT_GE(series.size(), 2u);
}

TEST(WorkloadDriverTest, ClosedLoopTracksServiceRate) {
  sim::EventLoop loop(5);
  workload::WorkloadOptions options;
  options.kind = workload::WorkloadKind::kSysbenchWrite;
  options.closed_loop_workers = 4;
  options.duration_micros = 1 * kSecond;
  workload::WorkloadDriver driver(
      &loop, options,
      [&loop](const std::string&, const std::string& value,
              std::function<void(bool, uint64_t)> done) {
        loop.Schedule(1000, [done]() { done(true, 1000); });
      });
  driver.RunToCompletion();
  // 4 workers, 1ms service time, 1s window -> ~4000 ops.
  EXPECT_GT(driver.recorder().committed(), 3500u);
  EXPECT_LT(driver.recorder().committed(), 4500u);
  // Fixed-size sysbench rows.
  EXPECT_EQ(driver.recorder().latency().min(),
            driver.recorder().latency().max());
}

}  // namespace
}  // namespace myraft::tools

// Prior-setup baseline tests: semi-sync commit path (ack from in-region
// logtailer), degrade-to-async on ack timeout, external failure detection
// and failover (slow!), graceful promotion, fencing of deposed primaries,
// log healing on rejoin, the registry's counters, and client-model parity
// with the MyRaft harness: both arms see the same client.

#include "semisync/cluster.h"

#include <gtest/gtest.h>

#include "binlog/transaction.h"
#include "metric_value.h"
#include "obs/catalog.h"
#include "raft/quorum.h"
#include "sim/cluster.h"

namespace myraft::semisync {
namespace {

constexpr uint64_t kSecond = 1'000'000;

SemiSyncClusterOptions DefaultOptions(uint64_t seed) {
  SemiSyncClusterOptions options;
  options.seed = seed;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  return options;
}

TEST(SemiSyncClusterTest, CommitWaitsForInRegionAck) {
  SemiSyncCluster cluster(DefaultOptions(5));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_EQ(cluster.CurrentPrimary(), "db0");

  auto result = cluster.SyncWrite("k1", "v1");
  ASSERT_TRUE(result.status.ok()) << result.status;
  // Latency: client RTT + processing + one in-region ack RTT; far less
  // than a cross-region round trip.
  EXPECT_LT(result.latency_micros, 5'000u);
  EXPECT_EQ(cluster.server("db0")->Read("bench.kv", "k1"), "k1=v1");
  EXPECT_EQ(MetricValue(cluster.node_metrics("db0"), "server.writes_committed"),
            1u);
  EXPECT_EQ(MetricValue(cluster.node_metrics("db0"),
                        "semisync.commits_degraded_to_async"),
            0u);
}

TEST(SemiSyncClusterTest, AsyncReplicasCatchUpAndApplyImmediately) {
  SemiSyncCluster cluster(DefaultOptions(6));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.SyncWrite("k" + std::to_string(i), "v").status.ok());
  }
  cluster.loop()->RunFor(2 * kSecond);
  for (const MemberId& id : cluster.database_ids()) {
    EXPECT_EQ(cluster.server(id)->Read("bench.kv", "k9"), "k9=v") << id;
  }
}

TEST(SemiSyncClusterTest, DegradesToAsyncWhenAckersDie) {
  auto options = DefaultOptions(7);
  // The client waits out the ack timeout (kSemiSyncAckTimeoutMicros).
  options.client.timeout_micros = 2 * kSecond;
  SemiSyncCluster cluster(options);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_TRUE(cluster.SyncWrite("before", "v").status.ok());

  // Kill both in-region ackers: semi-sync degrades to async after the
  // timeout (rpl_semi_sync_master_timeout behaviour) instead of blocking.
  cluster.Crash("lt0a");
  cluster.Crash("lt0b");
  auto result = cluster.SyncWrite("after", "v", 3 * kSecond);
  ASSERT_TRUE(result.status.ok()) << result.status;
  // Paid the ack timeout.
  EXPECT_GT(result.latency_micros, kSemiSyncAckTimeoutMicros);
  EXPECT_GT(MetricValue(cluster.node_metrics("db0"),
                        "semisync.commits_degraded_to_async"),
            0u);
}

TEST(SemiSyncClusterTest, FailoverIsSlowAndExternallyDriven) {
  SemiSyncCluster cluster(DefaultOptions(8));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_TRUE(cluster.SyncWrite("pre", "v").status.ok());

  auto downtime = cluster.MeasureWriteDowntime(
      [&]() { cluster.Crash("db0"); });
  ASSERT_TRUE(downtime.recovered);
  // Detection sweeps + probes + fencing put this in the tens of seconds
  // (Table 2: 59 s average).
  EXPECT_GT(downtime.downtime_micros, 20ull * kSecond);
  EXPECT_LT(downtime.downtime_micros, 300ull * kSecond);

  const MemberId new_primary = cluster.CurrentPrimary();
  ASSERT_FALSE(new_primary.empty());
  EXPECT_NE(new_primary, "db0");
  cluster.loop()->RunFor(2 * kSecond);
  EXPECT_EQ(cluster.server(new_primary)->Read("bench.kv", "pre"), "pre=v");
  EXPECT_EQ(MetricValue(cluster.metrics(), "semisync.failovers_completed"),
            1u);
}

TEST(SemiSyncClusterTest, GracefulPromotionTakesAboutASecond) {
  SemiSyncCluster cluster(DefaultOptions(9));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_TRUE(cluster.SyncWrite("warm", "v").status.ok());
  cluster.loop()->RunFor(kSecond);

  auto downtime = cluster.MeasureWriteDowntime([&]() {
    ASSERT_TRUE(cluster.automation()->StartPromotion("db1").ok());
  });
  ASSERT_TRUE(downtime.recovered);
  EXPECT_GT(downtime.downtime_micros, 200'000u);
  EXPECT_LT(downtime.downtime_micros, 5ull * kSecond);
  EXPECT_EQ(cluster.CurrentPrimary(), "db1");
  EXPECT_TRUE(cluster.server("db0")->read_only());
  EXPECT_EQ(MetricValue(cluster.metrics(), "semisync.promotions_completed"),
            1u);
}

TEST(SemiSyncClusterTest, DeposedPrimaryIsFencedByGeneration) {
  SemiSyncCluster cluster(DefaultOptions(10));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_TRUE(cluster.SyncWrite("a", "1").status.ok());
  cluster.loop()->RunFor(kSecond);
  ASSERT_TRUE(cluster.automation()->StartPromotion("db1").ok());
  cluster.loop()->RunFor(5 * kSecond);
  ASSERT_EQ(cluster.CurrentPrimary(), "db1");

  // Force the deposed db0 to believe it is still primary (simulating the
  // split-brain the prior setup is vulnerable to) and write through it.
  ASSERT_TRUE(cluster.server("db0")
                  ->MakePrimary(/*generation=*/1, {"db1", "lt0a"}, {"lt0a"})
                  .ok());
  bool called = false;
  binlog::RowOperation op;
  op.kind = binlog::RowOperation::Kind::kInsert;
  op.database = "bench";
  op.table = "kv";
  op.after_image = "rogue=1";
  cluster.server("db0")->SubmitWrite({op}, [&](const SemiSyncWriteResult& r) {
    called = true;
  });
  cluster.loop()->RunFor(5 * kSecond);
  EXPECT_TRUE(called);  // degrades to async locally...
  // ...but the replicaset rejected the stale-generation stream.
  EXPECT_EQ(cluster.server("db1")->Read("bench.kv", "rogue"), std::nullopt);
  for (const MemberId& id : cluster.database_ids()) {
    if (id == "db0") continue;
    EXPECT_EQ(cluster.server(id)->Read("bench.kv", "rogue"), std::nullopt)
        << id;
  }
}

TEST(SemiSyncClusterTest, DivergedTailIsHealedOnRejoin) {
  auto options = DefaultOptions(11);
  // The client waits out the ack timeout (kSemiSyncAckTimeoutMicros).
  options.client.timeout_micros = 2 * kSecond;
  SemiSyncCluster cluster(options);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_TRUE(cluster.SyncWrite("shared", "v").status.ok());
  cluster.loop()->RunFor(kSecond);

  // Isolate db0 so its next commit degrades to async and exists nowhere
  // else (the classic semi-sync data-loss window).
  for (const MemberId& id : cluster.ids()) {
    if (id != "db0") cluster.network()->SetLinkCut("db0", id, true);
  }
  auto lost = cluster.SyncWrite("lost", "v", 3 * kSecond);
  EXPECT_TRUE(lost.status.ok());  // degraded commit "succeeded"!
  const OpId lost_opid = cluster.server("db0")->LastLogged();
  cluster.Crash("db0");
  for (const MemberId& id : cluster.ids()) {
    if (id != "db0") cluster.network()->SetLinkCut("db0", id, false);
  }

  // Failover promotes someone else; the lost write is gone fleet-wide.
  auto downtime = cluster.MeasureWriteDowntime([]() {});
  ASSERT_TRUE(downtime.recovered);
  const MemberId new_primary = cluster.CurrentPrimary();
  ASSERT_FALSE(new_primary.empty());
  EXPECT_EQ(cluster.server(new_primary)->Read("bench.kv", "lost"),
            std::nullopt);
  // The new primary's first write after failover takes the index the
  // lost write had, under the new generation.
  auto first_after =
      cluster.server(new_primary)->binlog_manager()->ReadEntry(
          lost_opid.index);
  ASSERT_TRUE(first_after.ok()) << first_after.status();
  EXPECT_GT(first_after->id.term, lost_opid.term);
  auto first_txn = binlog::ParseTransactionPayload(first_after->payload);
  ASSERT_TRUE(first_txn.ok()) << first_txn.status();
  ASSERT_EQ(first_txn->ops.size(), 1u);
  const binlog::RowOperation first_row = first_txn->ops[0];

  // db0 rejoins; automation re-points it, its diverged binlog tail is
  // healed away, and the engine divergence (an acknowledged-but-lost
  // transaction: semi-sync's known flaw that MyRaft eliminates) is
  // flagged for rebuild.
  ASSERT_TRUE(cluster.Restart("db0").ok());
  ASSERT_TRUE(cluster.SyncWrite("newer", "v").status.ok());
  cluster.loop()->RunFor(30 * kSecond);
  EXPECT_GT(MetricValue(cluster.node_metrics("db0"),
                        "semisync.healed_transactions"),
            0u);
  EXPECT_TRUE(cluster.server("db0")->engine_diverged());
  // The binlog no longer has the lost gtid, but the engine still carries
  // the phantom row until the host is rebuilt — exactly the edge case
  // described in the paper's motivation.
  EXPECT_FALSE(cluster.server("db0")->binlog_manager()->gtids_in_log().Count() ==
               0);
  EXPECT_EQ(cluster.server("db0")->Read("bench.kv", "newer"), "newer=v");
  // Healing rewinds db0's applier to the truncation point although its
  // engine had already applied past it (the lost write), so db0 applies
  // the new primary's entry at that index too.
  EXPECT_EQ(cluster.server("db0")->Read(storage::RowTable(first_row),
                                        storage::RowKey(first_row)),
            first_row.after_image);
}

TEST(SemiSyncClusterTest, CatalogCoversEveryRegisteredMetric) {
  SemiSyncCluster cluster(DefaultOptions(12));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_TRUE(cluster.SyncWrite("k", "v").status.ok());
  cluster.loop()->RunFor(kSecond);
  auto check_registry = [](const std::string& where,
                           const metrics::MetricRegistry* registry) {
    for (const std::string& name : registry->Names()) {
      EXPECT_NE(obs::FindMetricInfo(name), nullptr)
          << where << " registers undocumented metric '" << name << "'";
    }
  };
  for (const MemberId& id : cluster.ids()) {
    check_registry(id, cluster.node_metrics(id));
  }
  check_registry("automation", cluster.metrics());
  EXPECT_EQ(MetricValue(cluster.node_metrics("lt1a"),
                        "server.applier_transactions_applied"),
            0u);
  EXPECT_EQ(MetricValue(cluster.node_metrics("db1"),
                        "server.applier_transactions_applied"),
            1u);
  EXPECT_EQ(MetricValue(cluster.metrics(), "semisync.detections"), 0u);
}

// --- One client model for both arms ------------------------------------------

/// Client costs without jitter, so each failure path has one exact latency.
sim::ClientModelOptions ParityClient() {
  sim::ClientModelOptions client;
  client.one_way_micros = 1'000;
  client.processing_micros = 3'000;
  client.processing_jitter_micros = 0;
  client.timeout_micros = 100'000;
  return client;
}

enum class PrimaryFault {
  kDownBeforeWrite,
  kCrashedWhileProcessing,
  kNeverAnswers,
};

/// Applies `fault` to `primary` and issues one write. Works on either
/// harness: both have Crash, loop, ids, network and SyncWrite.
template <typename Cluster>
sim::ClientWriteResult WriteUnderFault(Cluster* cluster,
                                       const MemberId& primary,
                                       PrimaryFault fault) {
  const sim::ClientModelOptions client = ParityClient();
  switch (fault) {
    case PrimaryFault::kDownBeforeWrite:
      cluster->Crash(primary);
      break;
    case PrimaryFault::kCrashedWhileProcessing:
      // After the request lands, before its processing cost has passed.
      cluster->loop()->Schedule(
          client.one_way_micros + client.processing_micros / 2,
          [cluster, primary]() { cluster->Crash(primary); });
      break;
    case PrimaryFault::kNeverAnswers:
      // Up but cut off: it can neither replicate nor collect acks.
      for (const MemberId& id : cluster->ids()) {
        if (id != primary) cluster->network()->SetLinkCut(primary, id, true);
      }
      break;
  }
  return cluster->SyncWrite("parity", "v");
}

sim::ClientWriteResult RaftArmWrite(PrimaryFault fault) {
  static raft::MajorityQuorumEngine quorum;
  sim::ClusterOptions options;
  options.seed = 21;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  options.client = ParityClient();
  sim::ClusterHarness cluster(options, &quorum);
  EXPECT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  EXPECT_FALSE(primary.empty());
  EXPECT_TRUE(cluster.SyncWrite("warm", "up").status.ok());
  return WriteUnderFault(&cluster, primary, fault);
}

sim::ClientWriteResult SemiSyncArmWrite(PrimaryFault fault) {
  SemiSyncClusterOptions options = DefaultOptions(21);
  options.client = ParityClient();
  SemiSyncCluster cluster(options);
  EXPECT_TRUE(cluster.Bootstrap().ok());
  EXPECT_TRUE(cluster.SyncWrite("warm", "up").status.ok());
  return WriteUnderFault(&cluster, cluster.CurrentPrimary(), fault);
}

void ExpectParity(PrimaryFault fault, StatusCode code, uint64_t latency) {
  const sim::ClientWriteResult raft = RaftArmWrite(fault);
  const sim::ClientWriteResult semisync = SemiSyncArmWrite(fault);
  EXPECT_EQ(raft.status.code(), code) << raft.status;
  EXPECT_EQ(raft.latency_micros, latency);
  EXPECT_EQ(semisync.status.code(), code) << semisync.status;
  EXPECT_EQ(semisync.latency_micros, latency);
}

TEST(ClientModelParityTest, DownPrimaryFailsAfterTwoHops) {
  const sim::ClientModelOptions client = ParityClient();
  ExpectParity(PrimaryFault::kDownBeforeWrite, StatusCode::kNetworkError,
               2 * client.one_way_micros);
}

TEST(ClientModelParityTest, DeathMidRequestReachesTheClientOneHopLater) {
  const sim::ClientModelOptions client = ParityClient();
  ExpectParity(PrimaryFault::kCrashedWhileProcessing,
               StatusCode::kNetworkError,
               client.one_way_micros + client.processing_micros +
                   client.one_way_micros);
}

TEST(ClientModelParityTest, SilentPrimaryTimesOutAtTheClientTimeout) {
  ExpectParity(PrimaryFault::kNeverAnswers, StatusCode::kTimedOut,
               ParityClient().timeout_micros);
}

}  // namespace
}  // namespace myraft::semisync

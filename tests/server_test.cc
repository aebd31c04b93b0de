// Full-stack MySqlServer tests on the simulator: the §3.4/§3.5 commit
// pipeline end to end, promotion/demotion orchestration, admin commands,
// replicated rotation and purge gating, crash-recovery cases of §A.2, and
// leader/follower consistency.

#include "server/mysql_server.h"

#include <gtest/gtest.h>

#include <set>

#include "flexiraft/flexiraft.h"
#include "metric_value.h"
#include "sim/cluster.h"

namespace myraft::server {
namespace {

using flexiraft::FlexiRaftQuorumEngine;
using flexiraft::QuorumMode;
using sim::ClusterHarness;
using sim::ClusterOptions;
using sim::SimNode;
constexpr uint64_t kSecond = 1'000'000;

const raft::QuorumEngine* FlexiEngine() {
  static FlexiRaftQuorumEngine* engine =
      new FlexiRaftQuorumEngine({QuorumMode::kSingleRegionDynamic});
  return engine;
}

ClusterOptions DefaultOptions(uint64_t seed) {
  ClusterOptions options;
  options.seed = seed;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  options.topology.learners = 1;
  return options;
}

class ServerClusterTest : public ::testing::Test {
 protected:
  void StartCluster(uint64_t seed = 7) {
    harness_ = std::make_unique<ClusterHarness>(DefaultOptions(seed),
                                                FlexiEngine());
    ASSERT_TRUE(harness_->Bootstrap().ok());
    primary_ = harness_->WaitForPrimary(30 * kSecond);
    ASSERT_FALSE(primary_.empty());
  }

  std::unique_ptr<ClusterHarness> harness_;
  MemberId primary_;
};

TEST_F(ServerClusterTest, MetricsSnapshotCoversAllSubsystems) {
  StartCluster();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        harness_->SyncWrite("k" + std::to_string(i), "v").status.ok());
  }
  harness_->loop()->RunFor(2 * kSecond);

  // The primary's registry exposes the instrumented surface: at least 20
  // distinct metrics spanning the raft, log_cache, server, binlog and
  // proxy subsystems.
  auto* registry = harness_->node(primary_)->metrics();
  const std::vector<std::string> names = registry->Names();
  EXPECT_GE(names.size(), 20u);
  std::set<std::string> prefixes;
  for (const std::string& name : names) {
    prefixes.insert(name.substr(0, name.find('.')));
  }
  EXPECT_GE(prefixes.size(), 4u);
  for (const char* subsystem :
       {"raft", "log_cache", "server", "binlog", "proxy"}) {
    EXPECT_TRUE(prefixes.count(subsystem) > 0) << subsystem;
  }

  // Hot-path counters moved and the per-stage latency histograms saw
  // every commit.
  EXPECT_GT(registry->FindCounter("server.writes_committed")->value(), 0u);
  EXPECT_GT(registry->FindCounter("raft.entries_replicated")->value(), 0u);
  EXPECT_GT(registry->FindCounter("binlog.entries_appended")->value(), 0u);
  const auto* consensus_wait =
      registry->FindHistogram("server.commit_stage_consensus_wait_us");
  ASSERT_NE(consensus_wait, nullptr);
  EXPECT_GE(consensus_wait->histogram().count(), 20u);

  // Cluster-wide snapshots name every member in both formats.
  const std::string json = harness_->MetricsSnapshotJson();
  for (const MemberId& id : harness_->ids()) {
    EXPECT_NE(json.find("\"" + id + "\":{"), std::string::npos) << id;
  }
  const std::string text = harness_->MetricsSnapshotText();
  EXPECT_NE(text.find(primary_ + ".server.writes_committed counter"),
            std::string::npos);
}

TEST_F(ServerClusterTest, WriteCommitReadRoundTrip) {
  StartCluster();
  auto result = harness_->SyncWrite("user:1", "alice");
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_GT(result.latency_micros, 0u);

  auto* primary = harness_->node(primary_)->server();
  EXPECT_EQ(primary->Read("bench.kv", "user:1"), "user:1=alice");
  EXPECT_EQ(primary->db_role(), DbRole::kPrimary);
  EXPECT_TRUE(primary->writes_enabled());
  EXPECT_EQ(MetricValue(primary->metrics(), "server.writes_committed"), 1u);
}

TEST_F(ServerClusterTest, BackToBackQuorumReadsServeAtBarrierIndexes) {
  // Leases-off linearizable reads replicate a no-op barrier (§13.2), so
  // a second read registers with the commit marker sitting ON a barrier
  // no-op. The primary's applied view must cover that index even though
  // no-ops never touch the engine — a read gated there parked forever
  // until the primary applied floor tracked the retired marker prefix.
  StartCluster();
  ASSERT_TRUE(harness_->SyncWrite("user:1", "alice").status.ok());

  for (int i = 0; i < 3; ++i) {
    const auto read = harness_->SyncRead("user:1", {}, 2 * kSecond);
    ASSERT_TRUE(read.status.ok()) << "read " << i << ": " << read.status;
    EXPECT_EQ(read.value, "user:1=alice") << "read " << i;
    EXPECT_FALSE(read.served_by_lease);
  }
  auto* primary = harness_->node(primary_)->server();
  EXPECT_EQ(MetricValue(primary->consensus()->metrics(), "raft.reads_quorum"),
            3u);
}

TEST_F(ServerClusterTest, ReplicationReachesFollowersAndLearners) {
  StartCluster();
  for (int i = 0; i < 20; ++i) {
    auto result = harness_->SyncWrite("k" + std::to_string(i), "v");
    ASSERT_TRUE(result.status.ok());
  }
  harness_->loop()->RunFor(5 * kSecond);

  for (const MemberId& id : harness_->ids()) {
    MySqlServer* server = harness_->node(id)->server();
    if (server->engine() == nullptr) continue;  // logtailer
    EXPECT_EQ(server->Read("bench.kv", "k19"), "k19=v") << id;
    if (id != primary_) {
      EXPECT_EQ(server->db_role(), DbRole::kReplica) << id;
      EXPECT_FALSE(server->writes_enabled()) << id;
      EXPECT_GT(MetricValue(server->metrics(),
                            "server.applier_transactions_applied"),
                0u)
          << id;
    }
  }
  EXPECT_TRUE(harness_->CheckReplicaConsistency());
}

TEST_F(ServerClusterTest, WritesRejectedOnReplicasAndLogtailers) {
  StartCluster();
  for (const MemberId& id : harness_->ids()) {
    if (id == primary_) continue;
    auto result = harness_->SyncWrite("k", "v", 2 * kSecond);
    // Routed to the primary via discovery: succeeds.
    ASSERT_TRUE(result.status.ok());
    break;
  }
  // Direct submission to a replica fails read-only.
  for (const MemberId& id : harness_->database_ids()) {
    if (id == primary_) continue;
    bool called = false;
    binlog::RowOperation op;
    op.kind = binlog::RowOperation::Kind::kInsert;
    op.database = "bench";
    op.table = "kv";
    op.after_image = "x=y";
    harness_->node(id)->server()->SubmitWrite(
        {op}, [&](const WriteResult& r) {
          called = true;
          EXPECT_TRUE(r.status.IsServiceUnavailable());
        });
    EXPECT_TRUE(called);
    break;
  }
  // Logtailers refuse outright.
  for (const auto& member : harness_->config().members) {
    if (member.kind != MemberKind::kLogtailer) continue;
    bool called = false;
    harness_->node(member.id)->server()->SubmitWrite(
        {}, [&](const WriteResult& r) {
          called = true;
          EXPECT_TRUE(r.status.IsNotSupported());
        });
    EXPECT_TRUE(called);
    break;
  }
}

TEST_F(ServerClusterTest, FailoverPromotesNewPrimaryAndClientsResume) {
  StartCluster();
  ASSERT_TRUE(harness_->SyncWrite("pre", "crash").status.ok());

  auto downtime = harness_->MeasureWriteDowntime(
      [this]() { harness_->Crash(primary_); });
  ASSERT_TRUE(downtime.recovered);
  // ~1.5 s detection (3 x 500 ms heartbeats) + election + promotion; the
  // paper reports ~2 s averages (Table 2).
  EXPECT_GT(downtime.downtime_micros, 1'000'000u);
  EXPECT_LT(downtime.downtime_micros, 15'000'000u);

  const MemberId new_primary = harness_->CurrentPrimary();
  ASSERT_FALSE(new_primary.empty());
  EXPECT_NE(new_primary, primary_);
  // Committed data survived.
  harness_->loop()->RunFor(2 * kSecond);
  EXPECT_EQ(harness_->node(new_primary)->server()->Read("bench.kv", "pre"),
            "pre=crash");
}

TEST_F(ServerClusterTest, GracefulPromotionIsFast) {
  StartCluster();
  ASSERT_TRUE(harness_->SyncWrite("warm", "up").status.ok());
  // Let the whole ring catch up: a transfer against a lagging target
  // region is (correctly) refused by the mock election (§4.3).
  harness_->loop()->RunFor(2 * kSecond);
  MemberId target;
  for (const MemberId& id : harness_->database_ids()) {
    if (id != primary_) {
      target = id;
      break;
    }
  }
  auto downtime = harness_->MeasureWriteDowntime([&]() {
    ASSERT_TRUE(
        harness_->node(primary_)->server()->TransferLeadership(target).ok());
  });
  ASSERT_TRUE(downtime.recovered);
  // Graceful promotion: no failure detection involved; the paper reports
  // ~200 ms averages (Table 2).
  EXPECT_LT(downtime.downtime_micros, 2'000'000u);
  harness_->loop()->RunFor(2 * kSecond);
  EXPECT_EQ(harness_->CurrentPrimary(), target);
  EXPECT_EQ(harness_->node(primary_)->server()->db_role(), DbRole::kReplica);
  EXPECT_EQ(MetricValue(harness_->node(primary_)->server()->metrics(),
                        "server.demotions"),
            1u);
}

TEST_F(ServerClusterTest, ErstwhileLeaderRejoinsConsistent) {
  // §A.2 case 2: entries written to the old primary's binlog but never
  // replicated are truncated when it rejoins; GTID metadata follows.
  StartCluster();
  ASSERT_TRUE(harness_->SyncWrite("durable", "yes").status.ok());

  // Isolate the primary, then send writes that will sit in its binlog
  // without reaching consensus.
  for (const MemberId& id : harness_->ids()) {
    if (id != primary_) harness_->network()->SetLinkCut(primary_, id, true);
  }
  std::vector<sim::ClientWriteResult> lost_results;
  for (int i = 0; i < 3; ++i) {
    harness_->ClientWrite(
        "lost" + std::to_string(i), "v",
        [&](const sim::ClientWriteResult& r) {
          lost_results.push_back(r);
        });
  }
  harness_->loop()->RunFor(1 * kSecond);
  harness_->Crash(primary_);
  for (const MemberId& id : harness_->ids()) {
    if (id != primary_) harness_->network()->SetLinkCut(primary_, id, false);
  }

  // New primary emerges; old one restarts and rejoins.
  MemberId new_primary;
  const uint64_t deadline = harness_->loop()->now() + 60 * kSecond;
  while (harness_->loop()->now() < deadline) {
    harness_->loop()->RunFor(kSecond);
    new_primary = harness_->CurrentPrimary();
    if (!new_primary.empty() && new_primary != primary_) break;
  }
  ASSERT_FALSE(new_primary.empty());
  ASSERT_TRUE(harness_->SyncWrite("new-era", "v").status.ok());
  ASSERT_TRUE(harness_->Restart(primary_).ok());
  harness_->loop()->RunFor(10 * kSecond);

  // The lost writes never committed; clients saw timeout/abort.
  ASSERT_EQ(lost_results.size(), 3u);
  for (const auto& r : lost_results) {
    EXPECT_FALSE(r.status.ok());
  }
  // The rejoined node's engine must not contain the lost rows.
  MySqlServer* rejoined = harness_->node(primary_)->server();
  EXPECT_EQ(rejoined->db_role(), DbRole::kReplica);
  EXPECT_EQ(rejoined->Read("bench.kv", "lost0"), std::nullopt);
  EXPECT_EQ(rejoined->Read("bench.kv", "new-era"), "new-era=v");
  EXPECT_TRUE(harness_->CheckReplicaConsistency());
}

TEST_F(ServerClusterTest, CrashAfterReplicationReappliesTransaction) {
  // §A.2 case 3: the transaction reached other members; the erstwhile
  // leader crashes before engine commit; after recovery the transaction
  // is re-applied from the log by the applier.
  StartCluster();
  // Stop commits from completing on the primary by cutting ONLY the
  // in-region logtailer acks after the entries ship? Simpler determinism:
  // crash the primary immediately after submitting writes, before the
  // event loop advances time.
  std::vector<Status> outcomes;
  for (int i = 0; i < 2; ++i) {
    binlog::RowOperation op;
    op.kind = binlog::RowOperation::Kind::kInsert;
    op.database = "bench";
    op.table = "kv";
    op.after_image = StringPrintf("inflight%d=v", i);
    harness_->node(primary_)->server()->SubmitWrite(
        {op}, [&](const WriteResult& r) { outcomes.push_back(r.status); });
  }
  // Entries are in the primary's binlog and on the wire; the engine has
  // them prepared only. Let the network deliver to followers, then crash
  // the primary before it can process acks. With pipelined replication
  // both batches ship immediately, so the window must close before the
  // earliest possible ack: one-way delivery is 150-250us in-region, so
  // everything is delivered by 250us and no ack lands before 300us.
  harness_->loop()->RunFor(270);  // > max delivery, < min RTT
  harness_->Crash(primary_);

  const uint64_t deadline = harness_->loop()->now() + 60 * kSecond;
  MemberId new_primary;
  while (harness_->loop()->now() < deadline) {
    harness_->loop()->RunFor(kSecond);
    new_primary = harness_->CurrentPrimary();
    if (!new_primary.empty() && new_primary != primary_) break;
  }
  ASSERT_FALSE(new_primary.empty());
  harness_->loop()->RunFor(5 * kSecond);

  // The in-flight transactions reached the ring and commit under the new
  // leader; the applier applies them on every replica.
  EXPECT_EQ(harness_->node(new_primary)->server()->Read("bench.kv",
                                                        "inflight0"),
            "inflight0=v");

  // The crashed primary restarts: prepared txns roll back, the applier
  // re-applies from the relay log (case 3's "reapplied again from
  // scratch").
  ASSERT_TRUE(harness_->Restart(primary_).ok());
  harness_->loop()->RunFor(10 * kSecond);
  MySqlServer* rejoined = harness_->node(primary_)->server();
  EXPECT_GT(rejoined->engine()->RolledBackAtRecovery().size(), 0u);
  EXPECT_EQ(rejoined->Read("bench.kv", "inflight0"), "inflight0=v");
  EXPECT_EQ(rejoined->Read("bench.kv", "inflight1"), "inflight1=v");
  EXPECT_TRUE(harness_->CheckReplicaConsistency());
}

TEST_F(ServerClusterTest, AdminCommandsReflectState) {
  StartCluster();
  ASSERT_TRUE(harness_->SyncWrite("a", "1").status.ok());
  MySqlServer* primary = harness_->node(primary_)->server();

  const MasterStatus master = primary->ShowMasterStatus();
  EXPECT_TRUE(HasPrefix(master.file, "binlog."));  // rewired on promotion
  EXPECT_GT(master.position, 0u);
  EXPECT_FALSE(master.executed_gtid_set.empty());

  const auto logs = primary->ShowBinaryLogs();
  ASSERT_GE(logs.size(), 1u);
  EXPECT_GT(logs.back().size, 0u);

  // Replica status on a follower (let heartbeats propagate the current
  // leader first — the follower may still remember a short-lived interim
  // leader from bootstrap).
  harness_->loop()->RunFor(3 * kSecond);
  for (const MemberId& id : harness_->database_ids()) {
    if (id == primary_) continue;
    const ReplicaStatus replica =
        harness_->node(id)->server()->ShowReplicaStatus();
    EXPECT_TRUE(replica.applier_running);
    EXPECT_EQ(replica.primary, primary_);
    break;
  }

  // SHOW BINLOG EVENTS walks the event stream of a file.
  auto events = primary->ShowBinlogEvents(logs.front().name);
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_GE(events->size(), 2u);
  EXPECT_EQ((*events)[0].type, binlog::EventType::kFormatDescription);
  EXPECT_EQ((*events)[1].type, binlog::EventType::kPreviousGtids);
  EXPECT_FALSE(primary->ShowBinlogEvents("binlog.999999").ok());

  // Legacy replication commands are Raft-managed now (§3).
  EXPECT_TRUE(primary->ChangeMasterTo().IsNotSupported());
  EXPECT_TRUE(primary->ResetMaster().IsNotSupported());
  EXPECT_TRUE(primary->ResetReplica().IsNotSupported());
}

TEST_F(ServerClusterTest, ReplicatedRotationAndGatedPurge) {
  StartCluster();
  MySqlServer* primary = harness_->node(primary_)->server();
  ASSERT_TRUE(harness_->SyncWrite("r1", "v").status.ok());

  // FLUSH BINARY LOGS rotates via a replicated rotate event (§A.1). File
  // counts are member-local (persona switches rotate locally too), so
  // assert on growth per member.
  std::map<MemberId, size_t> files_before;
  for (const MemberId& id : harness_->database_ids()) {
    files_before[id] = harness_->node(id)->server()->ShowBinaryLogs().size();
  }
  ASSERT_TRUE(primary->FlushBinaryLogs().ok());
  ASSERT_TRUE(harness_->SyncWrite("r2", "v").status.ok());
  harness_->loop()->RunFor(3 * kSecond);
  const auto files_after = primary->ShowBinaryLogs();
  EXPECT_EQ(files_after.size(), files_before[primary_] + 1);

  // Followers rotated too (the rotate entry is replicated).
  for (const MemberId& id : harness_->database_ids()) {
    EXPECT_EQ(harness_->node(id)->server()->ShowBinaryLogs().size(),
              files_before[id] + 1)
        << id;
  }

  // FLUSH on a replica is rejected.
  for (const MemberId& id : harness_->database_ids()) {
    if (id == primary_) continue;
    EXPECT_FALSE(harness_->node(id)->server()->FlushBinaryLogs().ok());
    break;
  }

  // Purge up to the newest file: allowed once everyone has replicated.
  const std::string newest = files_after.back().name;
  ASSERT_TRUE(primary->PurgeLogsTo(newest).ok());
  EXPECT_EQ(primary->ShowBinaryLogs().size(), 1u);

  // Purge is refused while a member lags (§A.1 watermarks).
  MemberId laggard;
  for (const MemberId& id : harness_->ids()) {
    if (id != primary_) {
      laggard = id;
      break;
    }
  }
  harness_->network()->SetLinkCut(primary_, laggard, true);
  ASSERT_TRUE(harness_->SyncWrite("r3", "v").status.ok());
  ASSERT_TRUE(primary->FlushBinaryLogs().ok());
  ASSERT_TRUE(harness_->SyncWrite("r4", "v").status.ok());
  harness_->loop()->RunFor(kSecond);
  const std::string latest = primary->ShowBinaryLogs().back().name;
  EXPECT_FALSE(primary->PurgeLogsTo(latest).ok());
  harness_->network()->SetLinkCut(primary_, laggard, false);
}

TEST_F(ServerClusterTest, RowConflictsAreRejectedWhilePipelined) {
  StartCluster();
  // Two writes to the same key in the same pipeline window: the second
  // hits the first's row lock (held until engine commit, §3.4).
  MySqlServer* primary = harness_->node(primary_)->server();
  std::vector<Status> results;
  binlog::RowOperation op;
  op.kind = binlog::RowOperation::Kind::kInsert;
  op.database = "bench";
  op.table = "kv";
  op.after_image = "hot=1";
  primary->SubmitWrite({op}, [&](const WriteResult& r) {
    results.push_back(r.status);
  });
  op.after_image = "hot=2";
  primary->SubmitWrite({op}, [&](const WriteResult& r) {
    results.push_back(r.status);
  });
  harness_->loop()->RunFor(2 * kSecond);
  ASSERT_EQ(results.size(), 2u);
  // Second failed on the lock; the first committed and released it.
  EXPECT_TRUE(results[1].ok());   // callbacks fire in completion order:
  EXPECT_FALSE(results[0].ok());  // conflict returns synchronously first
  EXPECT_EQ(MetricValue(primary->metrics(), "server.writes_rejected_conflict"),
            1u);
  // Lock released after commit: a retry succeeds.
  auto retry = harness_->SyncWrite("hot", "3");
  EXPECT_TRUE(retry.status.ok());
}

TEST_F(ServerClusterTest, WitnessLeaderHandsOffToDatabase) {
  // Crash the primary while its in-region logtailers are ahead of the
  // other databases: a logtailer may win and must hand off (§2.2). This
  // runs the full server-level handoff (not just raft).
  StartCluster(21);
  ASSERT_TRUE(harness_->SyncWrite("w", "1").status.ok());
  // Lag all other databases.
  for (const MemberId& id : harness_->database_ids()) {
    if (id != primary_) harness_->network()->SetLinkCut(primary_, id, true);
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(harness_->SyncWrite("w" + std::to_string(i), "v").status.ok());
  }
  harness_->Crash(primary_);
  for (const MemberId& id : harness_->database_ids()) {
    if (id != primary_) harness_->network()->SetLinkCut(primary_, id, false);
  }

  const uint64_t deadline = harness_->loop()->now() + 90 * kSecond;
  MemberId new_primary;
  while (harness_->loop()->now() < deadline) {
    harness_->loop()->RunFor(kSecond);
    new_primary = harness_->CurrentPrimary();
    if (!new_primary.empty() && new_primary != primary_) break;
  }
  ASSERT_FALSE(new_primary.empty());
  // The final primary is a database, never a logtailer.
  EXPECT_EQ(harness_->node(new_primary)->server()->options().kind,
            MemberKind::kMySql);
  // All committed-before-crash writes survived.
  harness_->loop()->RunFor(5 * kSecond);
  EXPECT_EQ(harness_->node(new_primary)->server()->Read("bench.kv", "w4"),
            "w4=v");
}

TEST(ServerCheckpointTest, WalBoundedByPeriodicCheckpoints) {
  // Tiny checkpoint threshold: a steady write stream must trigger engine
  // checkpoints on the primary AND on replicas (applier writes WAL too),
  // and crash recovery after a checkpoint still yields identical state.
  ClusterOptions options = DefaultOptions(91);
  options.engine_checkpoint_wal_bytes = 2'000;  // tiny: checkpoint often
  ClusterHarness harness(options, FlexiEngine());
  ASSERT_TRUE(harness.Bootstrap().ok());
  const MemberId primary = harness.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());

  MySqlServer* server = harness.node(primary)->server();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(harness.SyncWrite("c" + std::to_string(i), "v").status.ok());
  }
  harness.loop()->RunFor(2 * kSecond);
  // The Tick-driven checkpointer fired and kept the WAL bounded, on the
  // primary and on replicas alike.
  EXPECT_GT(MetricValue(server->metrics(), "server.engine_checkpoints"), 0u);
  EXPECT_LT(server->engine()->WalSizeBytes(), 10'000u);
  for (const MemberId& id : harness.database_ids()) {
    EXPECT_GT(MetricValue(harness.node(id)->server()->metrics(),
                          "server.engine_checkpoints"),
              0u)
        << id;
  }

  // Crash + restart: recovery loads the snapshot and stays consistent.
  harness.Crash(primary);
  ASSERT_TRUE(harness.Restart(primary).ok());
  harness.loop()->RunFor(5 * kSecond);
  EXPECT_EQ(harness.node(primary)->server()->Read("bench.kv", "c49"),
            "c49=v");
  EXPECT_TRUE(harness.CheckReplicaConsistency());
}

TEST(ProxySwitchTest, ProxyOptionsEnabledIsTheSwitch) {
  // ProxyOptions::enabled alone decides whether the leader proxies: with
  // it off, cross-region replication goes direct and no node ever builds
  // a PROXY_OP.
  for (const bool enabled : {true, false}) {
    ClusterOptions options = DefaultOptions(11);
    options.proxy.enabled = enabled;
    ClusterHarness harness(options, FlexiEngine());
    ASSERT_TRUE(harness.Bootstrap().ok());
    ASSERT_FALSE(harness.WaitForPrimary(30 * kSecond).empty());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(harness.SyncWrite("k" + std::to_string(i), "v").status.ok());
    }
    harness.loop()->RunFor(2 * kSecond);

    // Every member, the remote regions' included, holds every write.
    const MemberId primary = harness.CurrentPrimary();
    ASSERT_FALSE(primary.empty());
    const OpId last =
        harness.node(primary)->server_view()->consensus()->last_logged();
    uint64_t proxied = 0;
    for (const MemberId& id : harness.ids()) {
      const SimNode* node = harness.node(id);
      EXPECT_EQ(node->server_view()->consensus()->last_logged(), last) << id;
      EXPECT_EQ(node->router()->enabled(), enabled) << id;
      proxied += MetricValue(node->metrics(), "proxy.proxied_requests");
    }
    if (enabled) {
      EXPECT_GT(proxied, 0u);
    } else {
      EXPECT_EQ(proxied, 0u);
    }
  }
}

}  // namespace
}  // namespace myraft::server

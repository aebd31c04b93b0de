// Parallel-applier tests: checksum parity between serial and parallel
// apply on conflicting workloads, dependency/conflict stall accounting,
// and the promotion gate waiting for full applier catch-up. The sim is
// single-threaded; parallelism shows up as overlapping busy windows on
// virtual worker slots (applier_txn_cost_micros > 0).

#include "server/mysql_server.h"

#include <gtest/gtest.h>

#include "flexiraft/flexiraft.h"
#include "metric_value.h"
#include "sim/cluster.h"

namespace myraft::server {
namespace {

using sim::ClusterHarness;
using sim::ClusterOptions;
constexpr uint64_t kSecond = 1'000'000;

ClusterOptions ApplierOptions(uint64_t seed, uint32_t workers,
                              uint64_t txn_cost_micros) {
  ClusterOptions options;
  options.seed = seed;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  options.applier_workers = workers;
  options.applier_txn_cost_micros = txn_cost_micros;
  return options;
}

/// Issues a deterministic workload with both kinds of dependency:
/// bursts of concurrent distinct-key writes (overlapping commit
/// intervals -> parallelizable) cycling over a small key space so
/// successive bursts conflict on rows (writeset + interval dependencies).
/// Returns the final value written per key.
std::map<std::string, std::string> RunConflictingWorkload(
    ClusterHarness* harness, int bursts, int burst_width) {
  std::map<std::string, std::string> expect;
  for (int b = 0; b < bursts; ++b) {
    int outstanding = 0;
    bool failed = false;
    std::string fail_reason;
    for (int w = 0; w < burst_width; ++w) {
      // 7 keys cycled by 3-wide bursts: every burst overlaps with its
      // neighbours' rows.
      const std::string key = "k" + std::to_string((b * burst_width + w) % 7);
      const std::string value = "b" + std::to_string(b) + "w" +
                                std::to_string(w);
      ++outstanding;
      harness->ClientWrite(key, value,
                           [&outstanding, &failed, &fail_reason](
                               const sim::ClientWriteResult& r) {
                             --outstanding;
                             if (!r.status.ok()) {
                               failed = true;
                               fail_reason = r.status.ToString();
                             }
                           });
      expect[key] = key + "=" + value;
    }
    const uint64_t deadline = harness->loop()->now() + 10 * kSecond;
    while (outstanding > 0 && harness->loop()->now() < deadline) {
      harness->loop()->RunFor(1'000);
    }
    EXPECT_EQ(outstanding, 0);
    EXPECT_FALSE(failed) << "write failed in burst " << b << ": "
                         << fail_reason;
  }
  return expect;
}

/// Runs the loop until every database engine has drained its applier
/// (lag 0 on all up members).
void DrainAppliers(ClusterHarness* harness, uint64_t timeout_micros) {
  const uint64_t deadline = harness->loop()->now() + timeout_micros;
  while (harness->loop()->now() < deadline) {
    bool drained = true;
    for (const MemberId& id : harness->ids()) {
      MySqlServer* server = harness->node(id)->server();
      if (server->engine() == nullptr) continue;
      if (server->ShowReplicaStatus().lag_entries > 0) drained = false;
    }
    if (drained) return;
    harness->loop()->RunFor(10'000);
  }
}

TEST(ParallelApplierTest, ChecksumParityWithSerialOnConflictingWorkload) {
  // Same seed, same workload; only the applier differs. The applier runs
  // on followers, so the primary-side history is identical and the final
  // engine state must match bit for bit: parallel apply may reorder
  // independent transactions but never conflicting ones.
  uint64_t serial_checksum = 0;
  uint64_t parallel_checksum = 0;
  for (const bool parallel : {false, true}) {
    ClusterHarness harness(
        ApplierOptions(21, parallel ? 4 : 1, parallel ? 8'000 : 0),
        flexiraft::SingleRegionDynamic());
    ASSERT_TRUE(harness.Bootstrap().ok());
    const MemberId primary = harness.WaitForPrimary(30 * kSecond);
    ASSERT_FALSE(primary.empty());

    auto expect = RunConflictingWorkload(&harness, /*bursts=*/12,
                                         /*burst_width=*/3);
    DrainAppliers(&harness, 60 * kSecond);
    ASSERT_TRUE(harness.CheckReplicaConsistency());

    // Every engine (primary + followers) converged on the same rows.
    const uint64_t primary_checksum =
        harness.node(primary)->server()->StateChecksum();
    for (const MemberId& id : harness.database_ids()) {
      MySqlServer* server = harness.node(id)->server();
      EXPECT_EQ(server->StateChecksum(), primary_checksum) << id;
      for (const auto& [key, row] : expect) {
        EXPECT_EQ(server->Read("bench.kv", key), row) << id << " " << key;
      }
    }
    (parallel ? parallel_checksum : serial_checksum) = primary_checksum;

    if (parallel) {
      // The followers actually exercised the scheduler: transactions
      // flowed through the window and row/interval dependencies stalled
      // dispatch at least once under the modelled 8ms apply cost.
      uint64_t applied = 0, stalls = 0;
      for (const MemberId& id : harness.database_ids()) {
        if (id == primary) continue;
        const metrics::MetricRegistry* registry =
            harness.node(id)->server()->metrics();
        applied += MetricValue(registry, "server.applier_transactions_applied");
        stalls += MetricValue(registry, "server.applier_dependency_stalls") +
                  MetricValue(registry, "server.applier_conflict_stalls");
      }
      EXPECT_GT(applied, 0u);
      EXPECT_GT(stalls, 0u);
    }
  }
  EXPECT_EQ(serial_checksum, parallel_checksum);
}

TEST(ParallelApplierTest, PromotionWaitsForApplierCatchUp) {
  // Followers lag by design: 25ms modelled cost per transaction. Crashing
  // the primary mid-stream forces a promotion whose gate must hold writes
  // until the new primary's applier has retired the full committed
  // prefix — otherwise reads on the new primary would miss acknowledged
  // writes.
  ClusterHarness harness(ApplierOptions(33, 2, 25'000),
                         flexiraft::SingleRegionDynamic());
  ASSERT_TRUE(harness.Bootstrap().ok());
  const MemberId old_primary = harness.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(old_primary.empty());

  std::map<std::string, std::string> expect;
  for (int i = 0; i < 30; ++i) {
    const std::string key = "p" + std::to_string(i);
    auto result = harness.SyncWrite(key, "v" + std::to_string(i));
    ASSERT_TRUE(result.status.ok()) << i << ": " << result.status;
    expect[key] = key + "=v" + std::to_string(i);
  }
  // Followers are still chewing through the backlog (30 txns * 25ms >>
  // the replication delay). Kill the primary now.
  harness.Crash(old_primary);

  const MemberId new_primary = harness.WaitForPrimary(120 * kSecond);
  ASSERT_FALSE(new_primary.empty());
  ASSERT_NE(new_primary, old_primary);

  // writes_enabled implies the promotion gate passed: every acknowledged
  // write is already applied and readable, with zero applier lag.
  MySqlServer* server = harness.node(new_primary)->server();
  ASSERT_TRUE(server->writes_enabled());
  EXPECT_EQ(server->ShowReplicaStatus().lag_entries, 0u);
  for (const auto& [key, row] : expect) {
    EXPECT_EQ(server->Read("bench.kv", key), row) << key;
  }

  // And the ring still accepts writes afterwards.
  EXPECT_TRUE(harness.SyncWrite("after", "failover").status.ok());
}

TEST(ParallelApplierTest, SerialCostFreeApplierStaysSynchronous) {
  // applier_txn_cost_micros = 0 must preserve the pre-parallelism
  // behaviour: no residual lag between pumps, no stalls needed to make
  // progress, every follower applies everything.
  ClusterHarness harness(ApplierOptions(5, 1, 0),
                         flexiraft::SingleRegionDynamic());
  ASSERT_TRUE(harness.Bootstrap().ok());
  const MemberId primary = harness.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(harness.SyncWrite("s" + std::to_string(i), "v").status.ok());
  }
  DrainAppliers(&harness, 30 * kSecond);
  ASSERT_TRUE(harness.CheckReplicaConsistency());
  for (const MemberId& id : harness.database_ids()) {
    if (id == primary) continue;
    EXPECT_GT(MetricValue(harness.node(id)->server()->metrics(),
                          "server.applier_transactions_applied"),
              0u)
        << id;
    EXPECT_EQ(harness.node(id)->server()->ShowReplicaStatus().lag_entries, 0u)
        << id;
  }
}

}  // namespace
}  // namespace myraft::server

// Full-stack torture test: random crash/restart/partition/transfer
// schedules against the complete server (engine + binlog + raft + proxy)
// under client load, auditing the invariants that define the system:
//
//  I1  no acknowledged write is ever lost (client OK => durable);
//  I2  engines at the same applied OpId have identical state checksums;
//  I3  after healing, the ring elects a primary and serves writes;
//  I4  every database converges to the same executed GTID set.

#include <gtest/gtest.h>

#include <set>

#include "flexiraft/flexiraft.h"
#include "sim/cluster.h"

namespace myraft::server {
namespace {

using sim::ClusterHarness;
using sim::ClusterOptions;
constexpr uint64_t kSecond = 1'000'000;

class ServerTortureTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServerTortureTest, InvariantsHoldUnderRandomFaults) {
  ClusterOptions options;
  options.seed = GetParam();
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  options.topology.learners = 1;
  ClusterHarness cluster(options, flexiraft::SingleRegionDynamic());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_FALSE(cluster.WaitForPrimary(60 * kSecond).empty());

  Random rng(GetParam() * 7919);
  std::map<std::string, std::string> acked;  // I1 ledger (last acked value)
  // Writes that failed from the client's view may still commit later
  // ("outcome unknown" on demotion/timeout, §A.2 case 3), so the durable
  // value only has to be one of the values ever issued for the key.
  std::map<std::string, std::set<std::string>> issued;
  uint64_t writes_issued = 0, writes_acked = 0;
  std::vector<MemberId> crashed;

  // Background client: a write every ~20ms of simulated time.
  std::function<void()> pump = [&]() {
    cluster.loop()->Schedule(
        10'000 + rng.Uniform(20'000), [&]() {
          const std::string key =
              "t" + std::to_string(rng.Next() % 50'000);
          const std::string value = "v" + std::to_string(writes_issued);
          ++writes_issued;
          issued[key].insert(value);
          cluster.ClientWrite(
              key, value,
              [&acked, &writes_acked, key, value](
                  const sim::ClientWriteResult& r) {
                if (r.status.ok()) {
                  acked[key] = value;
                  ++writes_acked;
                }
              });
          pump();
        });
  };
  pump();

  const auto ids = cluster.ids();
  for (int round = 0; round < 25; ++round) {
    const int action = static_cast<int>(rng.Uniform(6));
    switch (action) {
      case 0: {  // crash someone (keep a majority of regions alive)
        if (crashed.size() >= 3) break;
        const MemberId victim = ids[rng.Uniform(ids.size())];
        if (cluster.node(victim)->up()) {
          cluster.Crash(victim);
          crashed.push_back(victim);
        }
        break;
      }
      case 1: {  // restart a crashed member
        if (crashed.empty()) break;
        const size_t pick = rng.Uniform(crashed.size());
        const MemberId back = crashed[pick];
        crashed.erase(crashed.begin() + static_cast<long>(pick));
        ASSERT_TRUE(cluster.Restart(back).ok()) << back;
        break;
      }
      case 2: {  // cut or heal a random link
        const MemberId a = ids[rng.Uniform(ids.size())];
        const MemberId b = ids[rng.Uniform(ids.size())];
        if (a != b) cluster.network()->SetLinkCut(a, b, rng.OneIn(2));
        break;
      }
      case 3: {  // graceful transfer attempt
        const MemberId primary = cluster.CurrentPrimary();
        if (primary.empty()) break;
        std::vector<MemberId> targets;
        for (const MemberId& id : cluster.database_ids()) {
          if (id != primary && cluster.node(id)->up()) targets.push_back(id);
        }
        if (targets.empty()) break;
        (void)cluster.node(primary)->server()->TransferLeadership(
            targets[rng.Uniform(targets.size())]);
        break;
      }
      case 4: {  // message loss burst
        cluster.network()->SetLossRate(rng.OneIn(2) ? 0.05 : 0.0);
        break;
      }
      case 5: {  // replicated rotation on the primary
        const MemberId primary = cluster.CurrentPrimary();
        if (!primary.empty()) {
          (void)cluster.node(primary)->server()->FlushBinaryLogs();
        }
        break;
      }
    }
    cluster.loop()->RunFor(1 * kSecond + rng.Uniform(2 * kSecond));

    // I2 continuously.
    ASSERT_TRUE(cluster.CheckReplicaConsistency())
        << "divergence at round " << round << " (seed " << GetParam() << ")";
  }

  // Heal everything (I3).
  cluster.network()->SetLossRate(0.0);
  for (const MemberId& a : ids) {
    for (const MemberId& b : ids) {
      if (a < b) cluster.network()->SetLinkCut(a, b, false);
    }
  }
  for (const MemberId& id : std::vector<MemberId>(crashed)) {
    ASSERT_TRUE(cluster.Restart(id).ok());
  }
  const MemberId final_primary = cluster.WaitForPrimary(120 * kSecond);
  ASSERT_FALSE(final_primary.empty()) << "seed " << GetParam();
  // Right after healing, commits can briefly exceed the client timeout
  // while the ring drains backlogs; clients retry.
  Status final_status;
  for (int attempt = 0; attempt < 5; ++attempt) {
    final_status = cluster.SyncWrite("final", "write", 10 * kSecond).status;
    if (final_status.ok()) break;
    cluster.loop()->RunFor(2 * kSecond);
  }
  ASSERT_TRUE(final_status.ok()) << final_status;
  cluster.loop()->RunFor(10 * kSecond);

  // I1: every acknowledged key is durable, holding some issued value.
  MySqlServer* primary = cluster.node(final_primary)->server();
  for (const auto& [key, value] : acked) {
    auto stored = primary->Read("bench.kv", key);
    ASSERT_TRUE(stored.has_value())
        << "acked key lost: " << key << " (seed " << GetParam() << ")";
    bool value_is_issued = false;
    for (const std::string& candidate : issued[key]) {
      if (*stored == key + "=" + candidate) {
        value_is_issued = true;
        break;
      }
    }
    EXPECT_TRUE(value_is_issued)
        << key << " holds foreign value " << *stored << " (seed "
        << GetParam() << ")";
  }

  // I4: executed GTID sets converge across caught-up databases.
  cluster.loop()->RunFor(10 * kSecond);
  const auto& reference = primary->engine()->ExecutedGtids();
  for (const MemberId& id : cluster.database_ids()) {
    MySqlServer* server = cluster.node(id)->server();
    if (server->engine()->LastAppliedOpId() ==
        primary->engine()->LastAppliedOpId()) {
      EXPECT_EQ(server->engine()->ExecutedGtids(), reference) << id;
    }
  }
  EXPECT_TRUE(cluster.CheckReplicaConsistency());
  EXPECT_GT(writes_acked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServerTortureTest,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace myraft::server

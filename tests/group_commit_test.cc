// Group-commit fsync coalescing (DESIGN.md §12): concurrent client
// writes arriving inside one scheduling instant share a single log
// fsync, on the leader and on inline-sync followers alike. Asserted
// against the MemEnv's WritableFile::Sync() call counter — the hardware
// truth the raft/binlog metrics must agree with — with serial writers,
// which have nothing to share, as the contrast.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "flexiraft/flexiraft.h"
#include "server/mysql_server.h"
#include "sim/cluster.h"
#include "util/env.h"

namespace myraft::server {
namespace {

using flexiraft::FlexiRaftQuorumEngine;
using flexiraft::QuorumMode;
using sim::ClusterHarness;
using sim::ClusterOptions;
constexpr uint64_t kSecond = 1'000'000;

const raft::QuorumEngine* FlexiEngine() {
  static FlexiRaftQuorumEngine* engine =
      new FlexiRaftQuorumEngine({QuorumMode::kSingleRegionDynamic});
  return engine;
}

ClusterOptions GroupCommitOptions(uint64_t seed) {
  ClusterOptions options;
  options.seed = seed;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  return options;
}

uint64_t SyncCallsOn(ClusterHarness* harness, const MemberId& id) {
  auto* fi = GetCrashFaultInjectionEnv(harness->node(id)->env());
  return fi == nullptr ? 0 : fi->SyncCalls();
}

uint64_t CounterOn(ClusterHarness* harness, const MemberId& id,
                   const std::string& name) {
  const auto* counter = harness->node(id)->metrics()->FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

/// Issues `bursts` rounds of `width` concurrent writes (all enqueued at
/// the same virtual instant) and waits each round out. Returns the number
/// of acked writes; EXPECTs that none failed.
int RunBursts(ClusterHarness* harness, int bursts, int width) {
  int acked = 0;
  for (int b = 0; b < bursts; ++b) {
    int outstanding = 0;
    for (int w = 0; w < width; ++w) {
      const std::string key =
          "g" + std::to_string(b) + "_" + std::to_string(w);
      ++outstanding;
      harness->ClientWrite(key, "v",
                           [&outstanding, &acked](
                               const sim::ClientWriteResult& r) {
                             --outstanding;
                             EXPECT_TRUE(r.status.ok()) << r.status;
                             if (r.status.ok()) ++acked;
                           });
    }
    const uint64_t deadline = harness->loop()->now() + 10 * kSecond;
    while (outstanding > 0 && harness->loop()->now() < deadline) {
      harness->loop()->RunFor(1'000);
    }
    EXPECT_EQ(outstanding, 0) << "burst " << b << " timed out";
  }
  return acked;
}

TEST(GroupCommitTest, EightConcurrentWritersShareFsyncs) {
  ClusterHarness harness(GroupCommitOptions(17), FlexiEngine());
  ASSERT_TRUE(harness.Bootstrap().ok());
  const MemberId primary = harness.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  // Warm-up write so bootstrap/promotion syncs fall outside the window.
  ASSERT_TRUE(harness.SyncWrite("warm", "up").status.ok());

  const uint64_t syncs_before = SyncCallsOn(&harness, primary);
  const int acked = RunBursts(&harness, /*bursts=*/8, /*width=*/8);
  ASSERT_EQ(acked, 64);
  const uint64_t syncs = SyncCallsOn(&harness, primary) - syncs_before;

  // The acceptance bar: well under one fsync per two committed
  // transactions on the leader. Eight writes landing in one instant
  // should share one coalesced sync (plus stray heartbeat-path syncs).
  EXPECT_LT(static_cast<double>(syncs), 0.5 * acked)
      << syncs << " fsyncs for " << acked << " writes";
  // The coalescing actually engaged, and writes genuinely shared syncs.
  EXPECT_GT(CounterOn(&harness, primary, "raft.group_syncs"), 0u);
  EXPECT_GT(CounterOn(&harness, primary, "raft.group_sync_coalesced"), 0u);
  // The binlog's own sync counter tells the same story from the log
  // abstraction's side of the adapter.
  EXPECT_LT(CounterOn(&harness, primary, "binlog.syncs"),
            static_cast<uint64_t>(acked));

  // Inline-sync followers coalesce the same way: the logtailers that ack
  // the commit quorum fsynced far fewer times than the txns they acked.
  for (const MemberId& id : harness.ids()) {
    if (id == primary || harness.node(id)->server()->engine() != nullptr) {
      continue;  // logtailers only: they see the full write stream
    }
    EXPECT_LT(SyncCallsOn(&harness, id), static_cast<uint64_t>(acked)) << id;
  }
  ASSERT_TRUE(harness.CheckReplicaConsistency());
}

TEST(GroupCommitTest, SerialWritersPayOneFsyncEach) {
  // Same path, bursts of width 1: each write lands alone, so there is
  // nothing to coalesce and the leader pays at least one fsync per
  // committed write. The contrast proves the test above measures real
  // sharing rather than an artefact of the sim clock.
  ClusterHarness harness(GroupCommitOptions(17), FlexiEngine());
  ASSERT_TRUE(harness.Bootstrap().ok());
  const MemberId primary = harness.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(harness.SyncWrite("warm", "up").status.ok());

  const uint64_t syncs_before = SyncCallsOn(&harness, primary);
  const int acked = RunBursts(&harness, /*bursts=*/32, /*width=*/1);
  ASSERT_EQ(acked, 32);
  const uint64_t syncs = SyncCallsOn(&harness, primary) - syncs_before;
  EXPECT_GE(syncs, static_cast<uint64_t>(acked));
  EXPECT_EQ(CounterOn(&harness, primary, "raft.group_sync_coalesced"), 0u);
}

}  // namespace
}  // namespace myraft::server

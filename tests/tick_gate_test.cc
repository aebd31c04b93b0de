// Idle-tick gate contract (DESIGN.md §18): while a node's gate is shut
// (loop time before SimNode::tick_due_micros()), a full Tick() must be a
// no-op — no event scheduled, no change in the structured status, no
// metric moved. A scripted ring walks through every timer the gate
// mirrors: bootstrap, writes, lease and follower reads, graceful and
// timed-out transfers, an RPC timeout behind a partition, auto step-down
// with a parked quorum read, a crash/restart, and a learner throughout.

#include <gtest/gtest.h>

#include <algorithm>

#include "flexiraft/flexiraft.h"
#include "sim/cluster.h"

namespace myraft::sim {
namespace {

constexpr uint64_t kMilli = 1'000;
constexpr uint64_t kSecond = 1'000'000;
/// Audit spacing: off the 20 ms tick grid, so audits land at many
/// different offsets from the ticks.
constexpr uint64_t kAuditStep = 11 * kMilli;

const raft::QuorumEngine* FlexiEngine() {
  static auto* engine = new flexiraft::FlexiRaftQuorumEngine(
      {flexiraft::QuorumMode::kSingleRegionDynamic});
  return engine;
}

class TickGateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.seed = 19;
    options.topology.db_regions = 3;
    options.topology.logtailers_per_db = 2;
    options.topology.learners = 1;
    options.raft.enable_leader_leases = true;
    options.raft.enable_auto_step_down = true;
    // Past the 2.5 s read deadline, so a parked read times out first.
    options.raft.auto_step_down_after_micros = 5 * kSecond;
    cluster_ = std::make_unique<ClusterHarness>(options, FlexiEngine());
    ASSERT_TRUE(cluster_->Bootstrap().ok());
  }

  EventLoop* loop() { return cluster_->loop(); }

  /// Runs the loop for `duration`, auditing every shut gate after each
  /// step.
  void RunAudited(uint64_t duration) {
    const uint64_t end = loop()->now() + duration;
    while (loop()->now() < end && !HasFailure()) {
      loop()->RunFor(std::min(kAuditStep, end - loop()->now()));
      AuditShutGates();
    }
  }

  void AuditShutGates() {
    for (const MemberId& id : cluster_->ids()) {
      SimNode* node = cluster_->node(id);
      const uint64_t due = node->tick_due_micros();
      if (!node->up() || loop()->now() >= due) continue;
      const uint64_t scheduled = loop()->events_scheduled();
      const std::string status = node->server_view()->DebugStatus().ToJson();
      const std::string metrics = node->metrics()->ToJson();
      // Not through server(): that reopens the gate, and the audit must
      // leave it as the node computed it. A no-op Tick keeps it valid.
      const_cast<server::MySqlServer*>(node->server_view())->Tick();
      ++audits_;
      ASSERT_EQ(loop()->events_scheduled(), scheduled)
          << id << " scheduled events at t=" << loop()->now()
          << " before its gate (" << due << ")";
      ASSERT_EQ(node->server_view()->DebugStatus().ToJson(), status)
          << id << " changed state at t=" << loop()->now()
          << " before its gate (" << due << ")";
      ASSERT_EQ(node->metrics()->ToJson(), metrics)
          << id << " moved a metric at t=" << loop()->now()
          << " before its gate (" << due << ")";
    }
  }

  void Write(const std::string& key) {
    cluster_->ClientWrite(key, "v", [](const ClientWriteResult&) {});
  }

  void Read(const std::string& key, ReadMode mode,
            const MemberId& target = "") {
    ClientReadOptions read_options;
    read_options.mode = mode;
    read_options.target = target;
    cluster_->ClientRead(key, read_options, [](const ClientReadResult&) {});
  }

  /// A database voter outside `region`.
  MemberId RemoteDb(const RegionId& region) {
    for (const MemberId& id : cluster_->database_ids()) {
      if (cluster_->node(id)->region() != region) return id;
    }
    return "";
  }

  uint64_t Counter(const MemberId& id, const char* name) {
    const metrics::Counter* counter =
        cluster_->node(id)->metrics()->FindCounter(name);
    return counter != nullptr ? counter->value() : 0;
  }

  std::unique_ptr<ClusterHarness> cluster_;
  uint64_t audits_ = 0;
};

TEST_F(TickGateTest, ShutGateMeansTickIsANoOp) {
  RunAudited(6 * kSecond);
  const MemberId first = cluster_->CurrentPrimary();
  ASSERT_FALSE(first.empty());

  // Writes, then lease reads on the leader and follower reads.
  for (int i = 0; i < 20; ++i) {
    Write("k" + std::to_string(i));
    RunAudited(30 * kMilli);
  }
  RunAudited(2 * kSecond);
  for (int i = 0; i < 10; ++i) {
    Read("k" + std::to_string(i), ReadMode::kLeader);
    Read("k" + std::to_string(i), ReadMode::kFollower);
    RunAudited(40 * kMilli);
  }
  RunAudited(1 * kSecond);
  EXPECT_GT(Counter(first, "raft.reads_lease"), 0u);

  // Graceful transfer (mock election first) to a remote database.
  const MemberId target = RemoteDb(cluster_->node(first)->region());
  ASSERT_FALSE(target.empty());
  ASSERT_TRUE(cluster_->admin()->TransferLeadership(target).status.ok());
  RunAudited(6 * kSecond);
  const MemberId second = cluster_->CurrentPrimary();
  ASSERT_EQ(second, target);

  // A transfer whose target is cut off runs into its deadline.
  const MemberId unreachable = RemoteDb(cluster_->node(second)->region());
  cluster_->network()->SetNodeUp(unreachable, false);
  ASSERT_TRUE(cluster_->admin()->TransferLeadership(unreachable).status.ok());
  RunAudited(4 * kSecond);
  EXPECT_EQ(cluster_->CurrentPrimary(), second);

  // Batches in flight to the cut-off member time out and rewind.
  const uint64_t rewinds = Counter(second, "raft.window_rewinds");
  for (int i = 0; i < 3; ++i) {
    Write("p" + std::to_string(i));
    RunAudited(30 * kMilli);
  }
  RunAudited(3 * kSecond);
  EXPECT_GT(Counter(second, "raft.window_rewinds"), rewinds);
  cluster_->network()->SetNodeUp(unreachable, true);
  RunAudited(3 * kSecond);

  // Cut off the leader itself: its lease runs out, a read parks in a
  // quorum round until its deadline, and auto step-down demotes it while
  // the rest of the ring elects a successor.
  cluster_->network()->SetNodeUp(second, false);
  RunAudited(2 * kSecond);
  Read("k1", ReadMode::kLeader, second);
  RunAudited(6 * kSecond);
  EXPECT_GT(Counter(second, "raft.reads_timed_out"), 0u);
  EXPECT_GT(Counter(second, "raft.auto_step_downs"), 0u);
  cluster_->network()->SetNodeUp(second, true);
  RunAudited(6 * kSecond);
  const MemberId third = cluster_->CurrentPrimary();
  ASSERT_FALSE(third.empty());

  // Crash and restart a database follower.
  const MemberId victim = RemoteDb(cluster_->node(third)->region());
  cluster_->Crash(victim);
  for (int i = 0; i < 5; ++i) {
    Write("c" + std::to_string(i));
    RunAudited(30 * kMilli);
  }
  RunAudited(3 * kSecond);
  ASSERT_TRUE(cluster_->Restart(victim).ok());
  RunAudited(6 * kSecond);

  EXPECT_TRUE(cluster_->CheckReplicaConsistency());
  uint64_t gated = 0;
  for (const MemberId& id : cluster_->ids()) {
    gated += cluster_->node(id)->ticks_gated();
  }
  EXPECT_GT(gated, 0u);
  EXPECT_GT(audits_, 1'000u);
}

}  // namespace
}  // namespace myraft::sim

// Idle-tick gate contract (DESIGN.md §18): while a node's gate is shut
// (loop time before SimNode::tick_due_micros()), a full Tick() must be a
// no-op — no event scheduled, no change in the structured status, no
// metric moved. A scripted ring walks through every timer the gate
// mirrors: bootstrap, writes, lease and follower reads, graceful and
// timed-out transfers, an RPC timeout behind a partition, auto step-down
// with a parked quorum read, a crash/restart, and a learner throughout.
// Timer-driven ticks: an input at a grid instant ticks at the node's next
// slot that has not run, and an idle learner pops almost no tick events.

#include <gtest/gtest.h>

#include <algorithm>

#include "flexiraft/flexiraft.h"
#include "metric_value.h"
#include "sim/cluster.h"

namespace myraft::sim {
namespace {

constexpr uint64_t kMilli = 1'000;
constexpr uint64_t kSecond = 1'000'000;
/// Audit spacing: off the 20 ms tick grid, so audits land at many
/// different offsets from the ticks.
constexpr uint64_t kAuditStep = 11 * kMilli;
/// The node tick grid's period.
constexpr uint64_t kTick = 20 * kMilli;

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

  /// The ring's learner: its consensus sets no deadline of its own, so
  /// it ticks only when an input reopens its gate.
  MemberId Learner() {
    for (const MemberId& id : cluster_->ids()) {
      if (id.rfind("learner", 0) == 0) return id;
    }
    return "";
  }

  /// The first instant on every node's tick grid (the ring boots at
  /// time 0, so grid instants are multiples of 20 ms) at least `after`
  /// from now.
  uint64_t GridInstantAfter(uint64_t after) {
    const uint64_t at = loop()->now() + after;
    return (at + kTick - 1) / kTick * kTick;
  }

  uint64_t Counter(const MemberId& id, const char* name) {
    return MetricValue(cluster_->node(id)->metrics(), name);
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
  uint64_t early = 0;
  for (const MemberId& id : cluster_->ids()) {
    early += cluster_->node(id)->ticks_early();
  }
  EXPECT_GT(early, 0u);
  EXPECT_GT(audits_, 1'000u);
}

TEST_F(TickGateTest, InputAtAGridInstantTicksAtTheNextUnrunSlot) {
  loop()->RunFor(6 * kSecond);
  const MemberId learner = Learner();
  ASSERT_FALSE(learner.empty());
  // Cut the learner off, so nothing but this test's inputs reaches it.
  cluster_->network()->SetNodeUp(learner, false);
  loop()->RunFor(2 * kSecond);
  SimNode* node = cluster_->node(learner);
  ASSERT_EQ(node->tick_due_micros(), UINT64_MAX);

  // An input at grid instant g scheduled from g - 10 ms sorts after the
  // node's slot at g, keyed (g, g - 20 ms, ...): that slot has run, so the
  // reopened gate ticks at g + 20 ms.
  const uint64_t g = GridInstantAfter(100 * kMilli);
  uint64_t ran = node->ticks_run();
  loop()->RunUntil(g - 10 * kMilli);
  loop()->Schedule(10 * kMilli, [this, &learner]() {
    cluster_->node(learner)->server();
  });
  loop()->RunUntil(g + kTick - 1);
  EXPECT_EQ(node->ticks_run(), ran);
  loop()->RunUntil(g + kTick);
  EXPECT_EQ(node->ticks_run(), ran + 1);

  // Scheduled from before g - 20 ms, the input sorts before the slot at
  // g2, so the node ticks at g2 itself.
  const uint64_t g2 = GridInstantAfter(200 * kMilli);
  ran = node->ticks_run();
  loop()->Schedule(g2 - loop()->now(), [this, &learner]() {
    cluster_->node(learner)->server();
  });
  loop()->RunUntil(g2 - 1);
  EXPECT_EQ(node->ticks_run(), ran);
  loop()->RunUntil(g2);
  EXPECT_EQ(node->ticks_run(), ran + 1);

  // After RunUntil(g3) every slot at g3 has run: an input from outside
  // the loop at g3 ticks at g3 + 20 ms.
  const uint64_t g3 = GridInstantAfter(100 * kMilli);
  loop()->RunUntil(g3);
  ran = node->ticks_run();
  cluster_->node(learner)->server();
  loop()->RunUntil(g3 + kTick - 1);
  EXPECT_EQ(node->ticks_run(), ran);
  loop()->RunUntil(g3 + kTick);
  EXPECT_EQ(node->ticks_run(), ran + 1);
}

TEST_F(TickGateTest, IdleLearnerPopsAHandfulOfTickEvents) {
  loop()->RunFor(6 * kSecond);
  const MemberId learner = Learner();
  ASSERT_FALSE(learner.empty());
  SimNode* node = cluster_->node(learner);
  auto received = [this, &learner]() {
    uint64_t messages = 0;
    for (const auto& [pair, link] :
         cluster_->network()->member_link_stats()) {
      if (pair.second == learner) messages += link.messages;
    }
    return messages;
  };
  const uint64_t events = node->tick_events();
  const uint64_t run = node->ticks_run();
  const uint64_t messages = received();
  loop()->RunFor(10 * kSecond);
  // A 20 ms chain would have popped 500 tick events here. The learner
  // still hears the leader's heartbeats; they set it no deadline.
  EXPECT_LE(node->tick_events() - events, 5u);
  EXPECT_LE(node->ticks_run() - run, 5u);
  EXPECT_GE(received() - messages, 10u);
}

}  // namespace
}  // namespace myraft::sim

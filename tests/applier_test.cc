// Unit tests for server::Applier on an in-memory relay log and engine, with
// no cluster around it: the engine's row locks as the conflict gate behind
// a too-optimistic dependency stamp, serial apply of unstamped entries,
// and Reset. With a nonzero apply cost the virtual worker slots stay busy,
// so a test steps a manual clock through their deadlines and sees the
// window between runs.

#include "server/applier.h"

#include <gtest/gtest.h>

#include <memory>

#include "metric_value.h"

namespace myraft::server {
namespace {

constexpr uint64_t kCost = 100;

class ApplierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    binlog::BinlogManagerOptions log_options;
    log_options.dir = "/log";
    log_options.persona = binlog::kRelayLogPersona;
    log_options.clock = &clock_;
    log_options.metrics = &metrics_;
    auto log = binlog::BinlogManager::Open(env_.get(), log_options);
    ASSERT_TRUE(log.ok()) << log.status();
    log_ = std::move(*log);
    storage::EngineOptions engine_options;
    engine_options.dir = "/engine";
    engine_options.clock = &clock_;
    auto engine = storage::MiniEngine::Open(env_.get(), engine_options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(*engine);
  }

  void StartApplier(uint64_t txn_cost_micros) {
    applier_ = std::make_unique<Applier>(
        "r", log_.get(), engine_.get(), &clock_, kDefaultApplierWorkers,
        txn_cost_micros, &metrics_, /*tracer=*/nullptr);
  }

  /// Appends transaction `index`, which writes `key`=`value`, stamped
  /// with the dependency interval (last_committed, sequence_number);
  /// 0/0 is unstamped.
  void AppendTxn(uint64_t index, const std::string& key,
                 const std::string& value, uint64_t last_committed,
                 uint64_t sequence_number) {
    binlog::RowOperation op;
    op.kind = binlog::RowOperation::Kind::kInsert;
    op.database = "d";
    op.table = "t";
    op.after_image = key + "=" + value;
    binlog::TransactionPayloadBuilder builder;
    builder.AddOperation(op);
    const OpId opid{1, index};
    const std::string payload = builder.Finalize(
        binlog::Gtid{Uuid::FromIndex(1), index}, opid, /*xid=*/index,
        /*timestamp_micros=*/0, /*server_id=*/1, last_committed,
        sequence_number);
    ASSERT_TRUE(
        log_->AppendEntry(LogEntry::Make(opid, EntryType::kTransaction,
                                         payload))
            .ok());
  }

  /// Runs the applier at sim time `now` over everything logged.
  void RunAt(uint64_t now) {
    clock_.SetMicros(now);
    applier_->Run(log_->LastIndex());
  }

  std::optional<std::string> Row(const std::string& key) const {
    return engine_->Get("d.t", key);
  }

  uint64_t Metric(const std::string& name) const {
    return MetricValue(&metrics_, name);
  }

  ManualClock clock_;
  metrics::MetricRegistry metrics_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<binlog::BinlogManager> log_;
  std::unique_ptr<storage::MiniEngine> engine_;
  std::unique_ptr<Applier> applier_;
};

// Transaction 2 rewrites transaction 1's row but is stamped as if it had
// no dependency (last_committed 0). The dependency gate lets it through;
// the engine's row lock, still held by the prepared transaction 1, must
// stop it until 1 retires, and the result must be the serial one. At zero
// apply cost one run does it all: dispatch 1, stall 2 once, retire 1,
// dispatch and retire 2.
TEST_F(ApplierTest, TooOptimisticStampStallsOnTheEngineRowLock) {
  StartApplier(/*txn_cost_micros=*/0);
  AppendTxn(1, "k", "first", /*last_committed=*/0, /*sequence_number=*/1);
  AppendTxn(2, "k", "second", /*last_committed=*/0, /*sequence_number=*/2);

  RunAt(0);
  EXPECT_EQ(Metric("server.applier_conflict_stalls"), 1u);
  EXPECT_EQ(Row("k"), "k=second");
  EXPECT_EQ(engine_->LastAppliedOpId(), (OpId{1, 2}));
  EXPECT_TRUE(engine_->PreparedXids().empty());
  EXPECT_EQ(applier_->window_size(), 0u);
  EXPECT_EQ(Metric("server.applier_dependency_stalls"), 0u);
  EXPECT_EQ(Metric("server.applier_transactions_applied"), 2u);
}

// Unstamped transactions (the semi-sync arm's) touch disjoint rows, yet
// each waits for its predecessor: one in the window at a time, retired
// in index order.
TEST_F(ApplierTest, UnstampedEntriesApplyInIndexOrder) {
  StartApplier(kCost);
  AppendTxn(1, "a", "1", 0, 0);
  AppendTxn(2, "b", "2", 0, 0);
  AppendTxn(3, "c", "3", 0, 0);

  for (uint64_t step = 0; step < 3; ++step) {
    RunAt(step * kCost);
    EXPECT_EQ(applier_->window_size(), 1u) << "step " << step;
    EXPECT_EQ(applier_->next_apply_index(), step + 1) << "step " << step;
    EXPECT_EQ(engine_->LastAppliedOpId().index, step) << "step " << step;
  }
  // Each dispatch pass that ends on the dependency counts once: two per
  // run while a successor waits (the pass that admits its predecessor,
  // and the next one, after a retire pass found the predecessor busy).
  EXPECT_EQ(Metric("server.applier_dependency_stalls"), 4u);
  EXPECT_EQ(applier_->NextDeadlineMicros(), 3 * kCost);

  RunAt(3 * kCost);
  EXPECT_EQ(applier_->window_size(), 0u);
  EXPECT_EQ(engine_->LastAppliedOpId(), (OpId{1, 3}));
  EXPECT_EQ(Row("a"), "a=1");
  EXPECT_EQ(Row("b"), "b=2");
  EXPECT_EQ(Row("c"), "c=3");
  EXPECT_EQ(Metric("server.applier_conflict_stalls"), 0u);
  EXPECT_EQ(Metric("server.applier_transactions_applied"), 3u);
}

// Reset rolls back every prepared window task and restarts both cursors
// at the index it is given, even one the engine never reached.
TEST_F(ApplierTest, ResetRollsBackTheWindowAndReappliesFromNext) {
  StartApplier(kCost);
  AppendTxn(1, "a", "1", 0, 1);
  AppendTxn(2, "b", "2", 0, 2);
  AppendTxn(3, "c", "3", 0, 3);

  RunAt(0);  // three independent transactions share the slots
  EXPECT_EQ(applier_->window_size(), 3u);
  EXPECT_EQ(engine_->PreparedXids().size(), 3u);

  applier_->Reset(2);
  EXPECT_TRUE(engine_->PreparedXids().empty());
  EXPECT_EQ(applier_->window_size(), 0u);
  EXPECT_EQ(applier_->next_apply_index(), 2u);
  EXPECT_EQ(applier_->next_dispatch_index(), 2u);
  EXPECT_EQ(applier_->NextDeadlineMicros(), 0u);

  RunAt(kCost);
  EXPECT_EQ(engine_->PreparedXids(), (std::vector<uint64_t>{2, 3}));
  RunAt(2 * kCost);
  EXPECT_EQ(applier_->window_size(), 0u);
  EXPECT_EQ(engine_->LastAppliedOpId(), (OpId{1, 3}));
  EXPECT_EQ(Row("a"), std::nullopt);  // before the reset point
  EXPECT_EQ(Row("b"), "b=2");
  EXPECT_EQ(Row("c"), "c=3");
  EXPECT_EQ(Metric("server.applier_transactions_applied"), 2u);
}

}  // namespace
}  // namespace myraft::server

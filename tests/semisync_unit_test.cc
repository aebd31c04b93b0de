// Message-level unit tests for SemiSyncServer: ack counting, multi-ack
// configs, rewind on receiver mismatch, degrade timing, and fencing —
// complementing the cluster-level semisync_test.

#include <gtest/gtest.h>

#include <memory>

#include "semisync/semisync_server.h"

namespace myraft::semisync {
namespace {

class SemiSyncUnitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    MakeServer(&primary_, "p", MemberKind::kMySql);
    MakeServer(&acker_a_, "la", MemberKind::kLogtailer);
    MakeServer(&acker_b_, "lb", MemberKind::kLogtailer);
  }

  void MakeServer(std::unique_ptr<SemiSyncServer>* out, const MemberId& id,
                  MemberKind kind) {
    SemiSyncOptions options;
    options.id = id;
    options.region = "r0";
    options.kind = kind;
    options.data_dir = "/" + id;
    options.server_uuid = Uuid::FromIndex(id[0]);
    options.numeric_server_id = static_cast<uint32_t>(id[0]);
    options.ack_timeout_micros = 1'000'000;
    auto server = SemiSyncServer::Create(
        env_.get(), options, &clock_,
        [this](Message m) { wire_.push_back(std::move(m)); });
    ASSERT_TRUE(server.ok()) << server.status();
    *out = std::move(*server);
  }

  /// Delivers all queued messages to their destinations, repeatedly,
  /// until the wire drains (synchronous "perfect network").
  void Pump() {
    int guard = 0;
    while (!wire_.empty() && ++guard < 1000) {
      std::vector<Message> batch;
      batch.swap(wire_);
      for (const Message& m : batch) {
        const MemberId dest = MessageDest(m);
        if (dest == "p") primary_->HandleMessage(m);
        if (dest == "la") acker_a_->HandleMessage(m);
        if (dest == "lb") acker_b_->HandleMessage(m);
      }
    }
  }

  /// Issues a write whose completion lands in *result (caller-owned so
  /// the callback may fire later, during Pump/Tick).
  void Write(const std::string& key,
             std::shared_ptr<SemiSyncWriteResult> result) {
    result->status = Status::TimedOut("never completed");
    binlog::RowOperation op;
    op.kind = binlog::RowOperation::Kind::kInsert;
    op.database = "d";
    op.table = "t";
    op.after_image = key + "=v";
    primary_->SubmitWrite({op}, [result](const SemiSyncWriteResult& r) {
      *result = r;
    });
  }

  ManualClock clock_;
  std::unique_ptr<Env> env_;
  std::vector<Message> wire_;
  std::unique_ptr<SemiSyncServer> primary_;
  std::unique_ptr<SemiSyncServer> acker_a_;
  std::unique_ptr<SemiSyncServer> acker_b_;
};

TEST_F(SemiSyncUnitTest, CommitRequiresConfiguredAcks) {
  ASSERT_TRUE(primary_->MakePrimary(1, {"la", "lb"}, {"la", "lb"}).ok());
  SemiSyncWriteResult result;
  result.status = Status::TimedOut("pending");
  binlog::RowOperation op;
  op.kind = binlog::RowOperation::Kind::kInsert;
  op.database = "d";
  op.table = "t";
  op.after_image = "k=v";
  primary_->SubmitWrite({op}, [&result](const SemiSyncWriteResult& r) {
    result = r;
  });
  EXPECT_TRUE(result.status.IsTimedOut());  // no acks yet
  Pump();                                   // ship + ack round trip
  EXPECT_TRUE(result.status.ok());
  EXPECT_FALSE(result.degraded_to_async);
  EXPECT_EQ(primary_->Read("d.t", "k"), "k=v");
}

TEST_F(SemiSyncUnitTest, RequiredAcksTwoNeedsBothAckers) {
  // Reconfigure the primary to require two semi-sync acks.
  SemiSyncOptions options = primary_->options();
  // (options are value-copied at Create; build a fresh primary)
  auto env = NewMemEnv();
  options.data_dir = "/p2";
  options.required_acks = 2;
  std::vector<Message> wire;
  auto primary = SemiSyncServer::Create(
      env.get(), options, &clock_,
      [&wire](Message m) { wire.push_back(std::move(m)); });
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE((*primary)->MakePrimary(1, {"la", "lb"}, {"la", "lb"}).ok());

  bool committed = false;
  binlog::RowOperation op;
  op.kind = binlog::RowOperation::Kind::kInsert;
  op.database = "d";
  op.table = "t";
  op.after_image = "k=v";
  (*primary)->SubmitWrite({op}, [&committed](const SemiSyncWriteResult& r) {
    committed = r.status.ok();
  });
  // Hand-craft the first acker's ack: not enough.
  AppendEntriesResponse ack;
  ack.from = "la";
  ack.dest = "p2";
  ack.dest = (*primary)->options().id;
  ack.term = 1;
  ack.success = true;
  ack.last_received = (*primary)->LastLogged();
  (*primary)->HandleMessage(Message(ack));
  EXPECT_FALSE(committed);
  ack.from = "lb";
  (*primary)->HandleMessage(Message(ack));
  EXPECT_TRUE(committed);
}

TEST_F(SemiSyncUnitTest, AckTimeoutDegradesToAsync) {
  ASSERT_TRUE(primary_->MakePrimary(1, {"la"}, {"la"}).ok());
  auto result = std::make_shared<SemiSyncWriteResult>();
  Write("k", result);
  wire_.clear();  // the shipment is lost: no acks will ever come
  clock_.AdvanceMicros(1'100'000);
  primary_->Tick();
  EXPECT_TRUE(result->status.ok());
  EXPECT_TRUE(result->degraded_to_async);
  EXPECT_EQ(primary_->stats().commits_degraded_to_async, 1u);
}

TEST_F(SemiSyncUnitTest, ReceiverRejectsStaleGenerationStream) {
  ASSERT_TRUE(acker_a_->MakeReplica("p").ok());
  // Generation 5 accepted...
  AppendEntriesRequest request;
  request.leader = "p";
  request.dest = "la";
  request.term = 5;
  request.entries.push_back(LogEntry::Make({5, 1}, EntryType::kNoOp, ""));
  // A semisync stream ships transaction entries; use a real payload.
  binlog::TransactionPayloadBuilder builder;
  const std::string payload =
      builder.Finalize({Uuid::FromIndex(1), 1}, {5, 1}, 1, 0, 1);
  request.entries[0] = LogEntry::Make({5, 1}, EntryType::kTransaction, payload);
  acker_a_->HandleMessage(Message(request));
  EXPECT_EQ(acker_a_->LastLogged(), (OpId{5, 1}));
  // ...generation 4 afterwards is fenced off.
  AppendEntriesRequest stale = request;
  stale.term = 4;
  stale.prev = {5, 1};
  const std::string payload2 =
      builder.Finalize({Uuid::FromIndex(1), 2}, {4, 2}, 2, 0, 1);
  stale.entries[0] = LogEntry::Make({4, 2}, EntryType::kTransaction, payload2);
  acker_a_->HandleMessage(Message(stale));
  EXPECT_EQ(acker_a_->LastLogged(), (OpId{5, 1}));
}

TEST_F(SemiSyncUnitTest, PrimaryRewindsOnReceiverMismatch) {
  ASSERT_TRUE(primary_->MakePrimary(1, {"la"}, {"la"}).ok());
  ASSERT_TRUE(acker_a_->MakeReplica("p").ok());
  // Three writes shipped and acked normally.
  for (int i = 0; i < 3; ++i) {
    auto result = std::make_shared<SemiSyncWriteResult>();
    Write("k" + std::to_string(i), result);
    Pump();
    EXPECT_TRUE(result->status.ok()) << i;
  }
  EXPECT_EQ(acker_a_->LastLogged().index, 3u);
  EXPECT_EQ(primary_->ReceiverMatchIndex("la"), 3u);
}

TEST_F(SemiSyncUnitTest, SecondWriteShipsBeforeFirstAck) {
  // The binlog streams: a write ships as soon as it is flushed, without
  // waiting for the ack of the batch before it.
  ASSERT_TRUE(primary_->MakePrimary(1, {"la"}, {"la"}).ok());
  ASSERT_TRUE(acker_a_->MakeReplica("p").ok());
  auto first = std::make_shared<SemiSyncWriteResult>();
  auto second = std::make_shared<SemiSyncWriteResult>();
  Write("k1", first);
  ASSERT_EQ(wire_.size(), 1u);  // the first batch is in flight, unacked
  Write("k2", second);
  ASSERT_EQ(wire_.size(), 2u);
  const auto* shipped = std::get_if<AppendEntriesRequest>(&wire_[1]);
  ASSERT_NE(shipped, nullptr);
  EXPECT_EQ(shipped->prev.index, 1u);
  ASSERT_EQ(shipped->entries.size(), 1u);
  EXPECT_EQ(shipped->entries[0].id.index, 2u);
  Pump();
  EXPECT_TRUE(first->status.ok());
  EXPECT_TRUE(second->status.ok());
  EXPECT_EQ(acker_a_->LastLogged().index, 2u);
  EXPECT_EQ(primary_->ReceiverMatchIndex("la"), 2u);
}

TEST_F(SemiSyncUnitTest, StreamRecoversFromALostBatch) {
  ASSERT_TRUE(primary_->MakePrimary(1, {"la"}, {"la"}).ok());
  ASSERT_TRUE(acker_a_->MakeReplica("p").ok());
  auto first = std::make_shared<SemiSyncWriteResult>();
  Write("k1", first);
  wire_.clear();  // batch 1 is lost
  // Batch 2 arrives over a gap; the rejection rewinds the stream.
  auto second = std::make_shared<SemiSyncWriteResult>();
  Write("k2", second);
  Pump();
  EXPECT_TRUE(first->status.ok());
  EXPECT_TRUE(second->status.ok());
  EXPECT_EQ(acker_a_->LastLogged().index, 2u);

  // A lost batch with nothing behind it is resent after the RPC timeout.
  auto third = std::make_shared<SemiSyncWriteResult>();
  Write("k3", third);
  wire_.clear();
  clock_.AdvanceMicros(500'000);
  primary_->Tick();
  EXPECT_TRUE(wire_.empty());
  clock_.AdvanceMicros(600'000);
  primary_->Tick();
  Pump();
  EXPECT_EQ(acker_a_->LastLogged().index, 3u);
  EXPECT_EQ(primary_->ReceiverMatchIndex("la"), 3u);
}

TEST_F(SemiSyncUnitTest, WritesRejectedWhenReadOnlyOrReplica) {
  ASSERT_TRUE(primary_->MakePrimary(1, {"la"}, {"la"}).ok());
  primary_->SetReadOnly(true);
  auto result = std::make_shared<SemiSyncWriteResult>();
  Write("k", result);
  EXPECT_TRUE(result->status.IsServiceUnavailable());
  primary_->SetReadOnly(false);
  ASSERT_TRUE(primary_->MakeReplica("someone").ok());
  Write("k", result);
  EXPECT_TRUE(result->status.IsServiceUnavailable());
  // Logtailers refuse outright.
  bool called = false;
  acker_a_->SubmitWrite({}, [&called](const SemiSyncWriteResult& r) {
    called = true;
    EXPECT_TRUE(r.status.IsNotSupported());
  });
  EXPECT_TRUE(called);
}

TEST_F(SemiSyncUnitTest, DemotionAbortsPendingWrites) {
  ASSERT_TRUE(primary_->MakePrimary(1, {"la"}, {"la"}).ok());
  auto result = std::make_shared<SemiSyncWriteResult>();
  Write("k", result);
  wire_.clear();
  ASSERT_TRUE(primary_->MakeReplica("new-primary").ok());
  EXPECT_TRUE(result->status.IsAborted());
  EXPECT_TRUE(primary_->engine()->PreparedXids().empty());
}

}  // namespace
}  // namespace myraft::semisync

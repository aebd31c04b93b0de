// Event encoding, typed bodies, and transaction payload build/parse.

#include <gtest/gtest.h>

#include "binlog/binlog_event.h"
#include "binlog/transaction.h"
#include "util/random.h"

namespace myraft::binlog {
namespace {

Uuid U(uint64_t i) { return Uuid::FromIndex(i); }

TEST(BinlogEventTest, EncodeDecodeRoundTrip) {
  const BinlogEvent e = MakeEvent(EventType::kBegin, 123456789, 42, {7, 99},
                                  "BEGIN");
  std::string buf;
  e.EncodeTo(&buf);
  EXPECT_EQ(buf.size(), e.EncodedSize());
  Slice in(buf);
  auto decoded = BinlogEvent::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, e);
  EXPECT_TRUE(in.empty());
}

TEST(BinlogEventTest, CrcDetectsCorruption) {
  const BinlogEvent e =
      MakeEvent(EventType::kXid, 1, 2, {1, 1}, XidBody{77}.Encode());
  std::string buf;
  e.EncodeTo(&buf);
  for (size_t pos : {size_t{0}, buf.size() / 2, buf.size() - 1}) {
    std::string corrupted = buf;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x40);
    Slice in(corrupted);
    EXPECT_FALSE(BinlogEvent::DecodeFrom(&in).ok()) << pos;
  }
}

TEST(TypedBodiesTest, AllRoundTrip) {
  {
    FormatDescriptionBody b{"myraft-1.0", 555};
    auto d = FormatDescriptionBody::Decode(b.Encode());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->server_version, "myraft-1.0");
    EXPECT_EQ(d->created_micros, 555u);
  }
  {
    PreviousGtidsBody b;
    b.gtids.AddRange(U(1), 1, 9);
    auto d = PreviousGtidsBody::Decode(b.Encode());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->gtids, b.gtids);
  }
  {
    GtidBody b{Gtid{U(2), 33}};
    auto d = GtidBody::Decode(b.Encode());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->gtid, b.gtid);
  }
  {
    TableMapBody b{17, "shard0", "users", 5};
    auto d = TableMapBody::Decode(b.Encode());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->table_id, 17u);
    EXPECT_EQ(d->database, "shard0");
    EXPECT_EQ(d->table, "users");
    EXPECT_EQ(d->column_count, 5u);
  }
  {
    RowsBody b;
    b.table_id = 17;
    b.rows.emplace_back("before-img", "after-img");
    b.rows.emplace_back("", "insert-only");
    auto d = RowsBody::Decode(b.Encode());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->rows, b.rows);
  }
  {
    XidBody b{0xDEADBEEFCAFEull};
    auto d = XidBody::Decode(b.Encode());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->xid, b.xid);
  }
  {
    RotateBody b{"binlog.000002", 4096};
    auto d = RotateBody::Decode(b.Encode());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->next_file, "binlog.000002");
    EXPECT_EQ(d->position, 4096u);
  }
  {
    MetadataBody b{EntryType::kNoOp, "noop-bytes"};
    auto d = MetadataBody::Decode(b.Encode());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->entry_type, EntryType::kNoOp);
    EXPECT_EQ(d->payload, "noop-bytes");
    // The entry type is bound-checked: 3 names no EntryType.
    std::string bad = b.Encode();
    bad[0] = 3;
    EXPECT_FALSE(MetadataBody::Decode(bad).ok());
  }
}

RowOperation MakeOp(RowOperation::Kind kind, const std::string& key,
                    const std::string& value) {
  RowOperation op;
  op.kind = kind;
  op.database = "db0";
  op.table = "kv";
  op.column_count = 2;
  if (kind != RowOperation::Kind::kInsert) op.before_image = key + "=old";
  if (kind != RowOperation::Kind::kDelete) op.after_image = key + "=" + value;
  return op;
}

TEST(TransactionPayloadTest, BuildParseRoundTrip) {
  TransactionPayloadBuilder builder;
  builder.AddOperation(MakeOp(RowOperation::Kind::kInsert, "k1", "v1"));
  builder.AddOperation(MakeOp(RowOperation::Kind::kUpdate, "k2", "v2"));
  builder.AddOperation(MakeOp(RowOperation::Kind::kDelete, "k3", ""));

  const Gtid gtid{U(5), 88};
  const OpId opid{4, 1234};
  const std::string payload = builder.Finalize(gtid, opid, 999, 111, 7);

  ASSERT_TRUE(ValidateTransactionPayload(payload, opid).ok());
  auto txn = ParseTransactionPayload(payload);
  ASSERT_TRUE(txn.ok()) << txn.status();
  EXPECT_EQ(txn->gtid, gtid);
  EXPECT_EQ(txn->opid, opid);
  EXPECT_EQ(txn->xid, 999u);
  ASSERT_EQ(txn->ops.size(), 3u);
  EXPECT_EQ(txn->ops[0].kind, RowOperation::Kind::kInsert);
  EXPECT_EQ(txn->ops[0].after_image, "k1=v1");
  EXPECT_EQ(txn->ops[1].kind, RowOperation::Kind::kUpdate);
  EXPECT_EQ(txn->ops[1].before_image, "k2=old");
  EXPECT_EQ(txn->ops[2].kind, RowOperation::Kind::kDelete);
  EXPECT_TRUE(txn->ops[2].after_image.empty());
}

TEST(TransactionPayloadTest, EmptyTransactionStillWellFormed) {
  TransactionPayloadBuilder builder;
  const std::string payload =
      builder.Finalize(Gtid{U(1), 1}, OpId{1, 1}, 1, 0, 0);
  auto txn = ParseTransactionPayload(payload);
  ASSERT_TRUE(txn.ok());
  EXPECT_TRUE(txn->ops.empty());
}

TEST(TransactionPayloadTest, ValidateRejectsWrongOpId) {
  TransactionPayloadBuilder builder;
  builder.AddOperation(MakeOp(RowOperation::Kind::kInsert, "k", "v"));
  const std::string payload =
      builder.Finalize(Gtid{U(1), 1}, OpId{2, 10}, 1, 0, 0);
  EXPECT_TRUE(ValidateTransactionPayload(payload, OpId{2, 10}).ok());
  EXPECT_FALSE(ValidateTransactionPayload(payload, OpId{2, 11}).ok());
  EXPECT_FALSE(ValidateTransactionPayload(payload, OpId{3, 10}).ok());
}

TEST(TransactionPayloadTest, ValidateRejectsStructuralDamage) {
  TransactionPayloadBuilder builder;
  builder.AddOperation(MakeOp(RowOperation::Kind::kInsert, "k", "v"));
  const OpId opid{1, 5};
  const std::string payload = builder.Finalize(Gtid{U(1), 1}, opid, 1, 0, 0);

  // Empty payload.
  EXPECT_FALSE(ValidateTransactionPayload("", opid).ok());

  // Truncated after the first event (missing Xid).
  Slice in(payload);
  ASSERT_TRUE(BinlogEvent::DecodeFrom(&in).ok());
  const size_t first_event_len = payload.size() - in.size();
  EXPECT_FALSE(
      ValidateTransactionPayload(Slice(payload.data(), first_event_len), opid)
          .ok());

  // Trailing junk after Xid.
  std::string with_junk = payload;
  MakeEvent(EventType::kBegin, 0, 0, opid, "BEGIN").EncodeTo(&with_junk);
  EXPECT_FALSE(ValidateTransactionPayload(with_junk, opid).ok());

  // Does not start with Gtid: drop the first event.
  EXPECT_FALSE(ValidateTransactionPayload(
                   Slice(payload.data() + first_event_len,
                         payload.size() - first_event_len),
                   opid)
                   .ok());
}

class TransactionPayloadFuzzTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(TransactionPayloadFuzzTest, RandomTransactionsRoundTrip) {
  Random rng(GetParam());
  for (int t = 0; t < 20; ++t) {
    TransactionPayloadBuilder builder;
    const int n_ops = static_cast<int>(rng.Uniform(20));
    for (int i = 0; i < n_ops; ++i) {
      const auto kind = static_cast<RowOperation::Kind>(rng.Uniform(3));
      std::string value(rng.Uniform(2048), 'v');
      builder.AddOperation(
          MakeOp(kind, "key" + std::to_string(rng.Uniform(100)), value));
    }
    const Gtid gtid{U(rng.Uniform(5)), 1 + rng.Uniform(1000)};
    const OpId opid{1 + rng.Uniform(10), 1 + rng.Uniform(100000)};
    const uint64_t xid = rng.Next();
    const std::string payload = builder.Finalize(gtid, opid, xid, 42, 1);
    auto txn = ParseTransactionPayload(payload);
    ASSERT_TRUE(txn.ok()) << txn.status();
    EXPECT_EQ(txn->gtid, gtid);
    EXPECT_EQ(txn->opid, opid);
    EXPECT_EQ(txn->xid, xid);
    EXPECT_EQ(txn->ops.size(), static_cast<size_t>(n_ops));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransactionPayloadFuzzTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace myraft::binlog

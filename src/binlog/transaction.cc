#include "binlog/transaction.h"

namespace myraft::binlog {

namespace {

EventType RowsEventTypeFor(RowOperation::Kind kind) {
  switch (kind) {
    case RowOperation::Kind::kInsert:
      return EventType::kWriteRows;
    case RowOperation::Kind::kUpdate:
      return EventType::kUpdateRows;
    case RowOperation::Kind::kDelete:
      return EventType::kDeleteRows;
  }
  return EventType::kWriteRows;
}

RowOperation::Kind KindForRowsEvent(EventType type) {
  switch (type) {
    case EventType::kWriteRows:
      return RowOperation::Kind::kInsert;
    case EventType::kUpdateRows:
      return RowOperation::Kind::kUpdate;
    default:
      return RowOperation::Kind::kDelete;
  }
}

}  // namespace

std::string TransactionPayloadBuilder::Finalize(
    const Gtid& gtid, OpId opid, uint64_t xid, uint64_t timestamp_micros,
    uint32_t server_id, uint64_t last_committed, uint64_t sequence_number,
    uint64_t trace_id, uint64_t trace_span_id) const {
  std::string out;
  auto emit = [&](EventType type, std::string body) {
    MakeEvent(type, timestamp_micros, server_id, opid, std::move(body))
        .EncodeTo(&out);
  };

  emit(EventType::kGtid,
       GtidBody{gtid, last_committed, sequence_number, trace_id,
                trace_span_id}
           .Encode());
  emit(EventType::kBegin, "BEGIN");

  // One TableMap + one Rows event per operation. Real MySQL batches rows
  // per table; one-per-op keeps group structure simple and equivalent.
  uint64_t table_id = 1;
  for (const RowOperation& op : ops_) {
    TableMapBody table_map;
    table_map.table_id = table_id;
    table_map.database = op.database;
    table_map.table = op.table;
    table_map.column_count = op.column_count;
    emit(EventType::kTableMap, table_map.Encode());

    RowsBody rows;
    rows.table_id = table_id;
    rows.rows.emplace_back(op.before_image, op.after_image);
    emit(RowsEventTypeFor(op.kind), rows.Encode());
    ++table_id;
  }

  emit(EventType::kXid, XidBody{xid}.Encode());
  return out;
}

Status TransactionGrammar::Next(EventType type, OpId opid) {
  auto fail = [](const char* what) {
    return Status::Corruption(std::string("txn group: ") + what);
  };
  if (state_ == State::kComplete) return fail("events after Xid");
  if (state_ == State::kExpectGtid) {
    if (type != EventType::kGtid) return fail("does not start with Gtid");
    opid_ = opid;
    state_ = State::kExpectBegin;
    return Status::OK();
  }
  if (opid != opid_) return fail("inconsistent OpId stamps");
  switch (type) {
    case EventType::kGtid:
      return fail("nested Gtid event");
    case EventType::kBegin:
      if (state_ != State::kExpectBegin) return fail("misplaced Begin event");
      state_ = State::kAfterBegin;
      return Status::OK();
    case EventType::kTableMap:
      if (state_ != State::kAfterBegin && state_ != State::kAfterRows) {
        return fail("misplaced TableMap event");
      }
      state_ = State::kExpectRows;
      return Status::OK();
    case EventType::kWriteRows:
    case EventType::kUpdateRows:
    case EventType::kDeleteRows:
      if (state_ != State::kExpectRows && state_ != State::kAfterRows) {
        return fail("rows without TableMap");
      }
      state_ = State::kAfterRows;
      return Status::OK();
    case EventType::kXid:
      if (state_ != State::kAfterBegin && state_ != State::kAfterRows) {
        return fail("misplaced Xid event");
      }
      state_ = State::kComplete;
      return Status::OK();
    default:
      return fail("non-transaction event inside the group");
  }
}

namespace {

/// Decodes every event of `payload`, feeds the grammar, then `visit`; the
/// payload must hold exactly one whole group.
template <typename Visit>
Status ForEachGroupEvent(Slice payload, Visit&& visit) {
  TransactionGrammar grammar;
  while (!payload.empty()) {
    auto event = BinlogEvent::DecodeFrom(&payload);
    if (!event.ok()) return event.status();
    MYRAFT_RETURN_NOT_OK(grammar.Next(event->type, event->opid));
    MYRAFT_RETURN_NOT_OK(visit(*event));
  }
  if (!grammar.complete()) {
    return Status::Corruption("txn group: missing Xid event");
  }
  return Status::OK();
}

}  // namespace

Result<ParsedTransaction> ParseTransactionPayload(Slice payload) {
  ParsedTransaction txn;
  TableMapBody table;
  MYRAFT_RETURN_NOT_OK(
      ForEachGroupEvent(payload, [&](const BinlogEvent& event) -> Status {
        switch (event.type) {
          case EventType::kGtid: {
            GtidBody gtid;
            MYRAFT_ASSIGN_OR_RETURN(gtid, GtidBody::Decode(event.body));
            txn.gtid = gtid.gtid;
            txn.opid = event.opid;
            txn.last_committed = gtid.last_committed;
            txn.sequence_number = gtid.sequence_number;
            txn.trace_id = gtid.trace_id;
            txn.trace_span_id = gtid.trace_span_id;
            return Status::OK();
          }
          case EventType::kTableMap: {
            MYRAFT_ASSIGN_OR_RETURN(table, TableMapBody::Decode(event.body));
            return Status::OK();
          }
          case EventType::kWriteRows:
          case EventType::kUpdateRows:
          case EventType::kDeleteRows: {
            RowsBody rows;
            MYRAFT_ASSIGN_OR_RETURN(rows, RowsBody::Decode(event.body));
            for (auto& [before, after] : rows.rows) {
              RowOperation op;
              op.kind = KindForRowsEvent(event.type);
              op.database = table.database;
              op.table = table.table;
              op.column_count = table.column_count;
              op.before_image = std::move(before);
              op.after_image = std::move(after);
              txn.ops.push_back(std::move(op));
            }
            return Status::OK();
          }
          case EventType::kXid: {
            XidBody xid;
            MYRAFT_ASSIGN_OR_RETURN(xid, XidBody::Decode(event.body));
            txn.xid = xid.xid;
            return Status::OK();
          }
          default:  // Begin
            return Status::OK();
        }
      }));
  return txn;
}

Result<Gtid> ValidateTransactionPayload(Slice payload, OpId expected_opid) {
  Gtid gtid;
  MYRAFT_RETURN_NOT_OK(
      ForEachGroupEvent(payload, [&](const BinlogEvent& event) -> Status {
        if (event.type != EventType::kGtid) return Status::OK();
        if (event.opid != expected_opid) {
          return Status::Corruption("txn group: OpId mismatch");
        }
        GtidBody body;
        MYRAFT_ASSIGN_OR_RETURN(body, GtidBody::Decode(event.body));
        gtid = body.gtid;
        return Status::OK();
      }));
  return gtid;
}

}  // namespace myraft::binlog

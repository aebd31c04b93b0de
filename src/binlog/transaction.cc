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

Result<ParsedTransaction> ParseTransactionPayload(Slice payload) {
  ParsedTransaction txn;
  Slice in = payload;

  auto gtid_event = BinlogEvent::DecodeFrom(&in);
  if (!gtid_event.ok()) return gtid_event.status();
  if (gtid_event->type != EventType::kGtid) {
    return Status::Corruption("txn payload: does not start with Gtid event");
  }
  GtidBody gtid_body;
  MYRAFT_ASSIGN_OR_RETURN(gtid_body, GtidBody::Decode(gtid_event->body));
  txn.gtid = gtid_body.gtid;
  txn.last_committed = gtid_body.last_committed;
  txn.sequence_number = gtid_body.sequence_number;
  txn.trace_id = gtid_body.trace_id;
  txn.trace_span_id = gtid_body.trace_span_id;
  txn.opid = gtid_event->opid;

  auto begin_event = BinlogEvent::DecodeFrom(&in);
  if (!begin_event.ok()) return begin_event.status();
  if (begin_event->type != EventType::kBegin) {
    return Status::Corruption("txn payload: missing Begin event");
  }

  TableMapBody pending_table;
  bool have_table = false;
  bool saw_xid = false;
  while (!in.empty()) {
    auto event = BinlogEvent::DecodeFrom(&in);
    if (!event.ok()) return event.status();
    if (event->opid != txn.opid) {
      return Status::Corruption("txn payload: inconsistent OpId stamps");
    }
    switch (event->type) {
      case EventType::kTableMap: {
        MYRAFT_ASSIGN_OR_RETURN(pending_table,
                                TableMapBody::Decode(event->body));
        have_table = true;
        break;
      }
      case EventType::kWriteRows:
      case EventType::kUpdateRows:
      case EventType::kDeleteRows: {
        if (!have_table) {
          return Status::Corruption("txn payload: rows without TableMap");
        }
        RowsBody rows;
        MYRAFT_ASSIGN_OR_RETURN(rows, RowsBody::Decode(event->body));
        for (const auto& [before, after] : rows.rows) {
          RowOperation op;
          op.kind = KindForRowsEvent(event->type);
          op.database = pending_table.database;
          op.table = pending_table.table;
          op.column_count = pending_table.column_count;
          op.before_image = before;
          op.after_image = after;
          txn.ops.push_back(std::move(op));
        }
        break;
      }
      case EventType::kXid: {
        XidBody xid;
        MYRAFT_ASSIGN_OR_RETURN(xid, XidBody::Decode(event->body));
        txn.xid = xid.xid;
        saw_xid = true;
        if (!in.empty()) {
          return Status::Corruption("txn payload: events after Xid");
        }
        break;
      }
      default:
        return Status::Corruption("txn payload: unexpected event type");
    }
  }
  if (!saw_xid) return Status::Corruption("txn payload: missing Xid event");
  return txn;
}

Result<Gtid> ValidateTransactionPayload(Slice payload, OpId expected_opid) {
  Slice in = payload;
  bool first = true;
  bool saw_xid = false;
  Gtid gtid;
  while (!in.empty()) {
    auto event = BinlogEvent::DecodeFrom(&in);
    if (!event.ok()) return event.status();
    if (event->opid != expected_opid) {
      return Status::Corruption("txn payload: OpId mismatch");
    }
    if (first) {
      if (event->type != EventType::kGtid) {
        return Status::Corruption("txn payload: must start with Gtid");
      }
      GtidBody body;
      MYRAFT_ASSIGN_OR_RETURN(body, GtidBody::Decode(event->body));
      gtid = body.gtid;
    }
    first = false;
    if (saw_xid) return Status::Corruption("txn payload: events after Xid");
    if (event->type == EventType::kXid) saw_xid = true;
  }
  if (first) return Status::Corruption("txn payload: empty");
  if (!saw_xid) return Status::Corruption("txn payload: missing Xid");
  return gtid;
}

}  // namespace myraft::binlog

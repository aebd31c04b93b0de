#include "binlog/binlog_event.h"

#include "util/coding.h"

namespace myraft::binlog {

std::string_view EventTypeToString(EventType type) {
  switch (type) {
    case EventType::kFormatDescription:
      return "FormatDescription";
    case EventType::kPreviousGtids:
      return "PreviousGtids";
    case EventType::kGtid:
      return "Gtid";
    case EventType::kBegin:
      return "Begin";
    case EventType::kTableMap:
      return "TableMap";
    case EventType::kWriteRows:
      return "WriteRows";
    case EventType::kUpdateRows:
      return "UpdateRows";
    case EventType::kDeleteRows:
      return "DeleteRows";
    case EventType::kXid:
      return "Xid";
    case EventType::kRotate:
      return "Rotate";
    case EventType::kMetadata:
      return "Metadata";
  }
  return "?";
}

void BinlogEvent::EncodeTo(std::string* dst) const { EncodeRecord(*this, dst); }

Result<BinlogEvent> BinlogEvent::DecodeFrom(Slice* input) {
  BinlogEvent e;
  SliceSource source(*input);
  Fields(source, e);
  MYRAFT_RETURN_NOT_OK(source.status("event"));
  *input = source.rest();
  return e;
}

size_t BinlogEvent::EncodedSize() const { return RecordSize(*this); }

BinlogEvent MakeEvent(EventType type, uint64_t timestamp_micros,
                      uint32_t server_id, OpId opid, std::string body) {
  BinlogEvent e;
  e.type = type;
  e.timestamp_micros = timestamp_micros;
  e.server_id = server_id;
  e.opid = opid;
  e.body = std::move(body);
  return e;
}

// --- Typed bodies -----------------------------------------------------------

namespace {

template <typename Body>
std::string EncodeBody(const Body& body) {
  std::string out;
  EncodeRecord(body, &out);
  return out;
}

}  // namespace

std::string FormatDescriptionBody::Encode() const { return EncodeBody(*this); }

Result<FormatDescriptionBody> FormatDescriptionBody::Decode(Slice body) {
  return DecodeRecord<FormatDescriptionBody>(body, "format-description body");
}

std::string PreviousGtidsBody::Encode() const { return EncodeBody(*this); }

Result<PreviousGtidsBody> PreviousGtidsBody::Decode(Slice body) {
  return DecodeRecord<PreviousGtidsBody>(body, "previous-gtids body");
}

std::string GtidBody::Encode() const { return EncodeBody(*this); }

Result<GtidBody> GtidBody::Decode(Slice body) {
  return DecodeRecord<GtidBody>(body, "gtid body");
}

std::string TableMapBody::Encode() const { return EncodeBody(*this); }

Result<TableMapBody> TableMapBody::Decode(Slice body) {
  return DecodeRecord<TableMapBody>(body, "table-map body");
}

std::string RowsBody::Encode() const { return EncodeBody(*this); }

Result<RowsBody> RowsBody::Decode(Slice body) {
  return DecodeRecord<RowsBody>(body, "rows body");
}

std::string XidBody::Encode() const { return EncodeBody(*this); }

Result<XidBody> XidBody::Decode(Slice body) {
  return DecodeRecord<XidBody>(body, "xid body");
}

std::string RotateBody::Encode() const { return EncodeBody(*this); }

Result<RotateBody> RotateBody::Decode(Slice body) {
  return DecodeRecord<RotateBody>(body, "rotate body");
}

std::string MetadataBody::Encode() const { return EncodeBody(*this); }

Result<MetadataBody> MetadataBody::Decode(Slice body) {
  return DecodeRecord<MetadataBody>(body, "metadata body");
}

}  // namespace myraft::binlog

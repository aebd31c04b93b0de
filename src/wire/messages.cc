#include "wire/messages.h"

#include "util/coding.h"

namespace myraft {

// --- AppendEntriesRequest ---------------------------------------------------

void AppendEntriesRequest::EncodeTo(std::string* dst) const {
  EncodeRecord(*this, dst);
}

Result<AppendEntriesRequest> AppendEntriesRequest::DecodeFrom(Slice in) {
  return DecodeRecord<AppendEntriesRequest>(in, "wire: append-entries");
}

uint64_t AppendEntriesRequest::PayloadBytes() const {
  uint64_t total = 0;
  for (const auto& e : entries) total += e.payload_bytes().size();
  return total;
}

// --- AppendEntriesResponse ----------------------------------------------------

void AppendEntriesResponse::EncodeTo(std::string* dst) const {
  EncodeRecord(*this, dst);
}

Result<AppendEntriesResponse> AppendEntriesResponse::DecodeFrom(Slice in) {
  return DecodeRecord<AppendEntriesResponse>(in, "wire: append-response");
}

// --- VoteRequest -------------------------------------------------------------

void VoteRequest::EncodeTo(std::string* dst) const { EncodeRecord(*this, dst); }

Result<VoteRequest> VoteRequest::DecodeFrom(Slice in) {
  return DecodeRecord<VoteRequest>(in, "wire: vote-request");
}

// --- VoteResponse -------------------------------------------------------------

void VoteResponse::EncodeTo(std::string* dst) const { EncodeRecord(*this, dst); }

Result<VoteResponse> VoteResponse::DecodeFrom(Slice in) {
  return DecodeRecord<VoteResponse>(in, "wire: vote-response");
}

// --- StartElectionRequest ------------------------------------------------------

void StartElectionRequest::EncodeTo(std::string* dst) const {
  EncodeRecord(*this, dst);
}

Result<StartElectionRequest> StartElectionRequest::DecodeFrom(Slice in) {
  return DecodeRecord<StartElectionRequest>(in, "wire: start-election");
}

// --- Envelope -------------------------------------------------------------------

namespace {

/// The envelope: the variant index as the type tag, then the body.
template <typename Io, typename Msg>
void EnvelopeFields(Io& io, Msg& msg) {
  io.Variant(msg, [](auto& io, auto& m) {
    std::decay_t<decltype(m)>::Fields(io, m);
  });
}

}  // namespace

void EncodeMessage(const Message& msg, std::string* dst) {
  StringSink sink(dst);
  EnvelopeFields(sink, msg);
}

Result<Message> DecodeMessage(Slice in) {
  Message msg;
  SliceSource source(in);
  EnvelopeFields(source, msg);
  MYRAFT_RETURN_NOT_OK(source.Finish("wire"));
  return msg;
}

const MemberId& MessageDest(const Message& msg) {
  return std::visit([](const auto& m) -> const MemberId& { return m.dest; },
                    msg);
}

const MemberId& MessageFrom(const Message& msg) {
  return std::visit(
      [](const auto& m) -> const MemberId& {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, AppendEntriesRequest>) {
          return m.leader;
        } else if constexpr (std::is_same_v<T, VoteRequest>) {
          return m.candidate;
        } else {
          return m.from;
        }
      },
      msg);
}

const MemberId& MessageNextHop(const Message& msg) {
  if (const auto* request = std::get_if<AppendEntriesRequest>(&msg)) {
    if (!request->route.empty()) return request->route.front();
  }
  if (const auto* response = std::get_if<AppendEntriesResponse>(&msg)) {
    if (!response->route.empty()) return response->route.front();
  }
  return MessageDest(msg);
}

uint64_t MessageWireBytes(const Message& msg) {
  SizeSink sink;
  EnvelopeFields(sink, msg);
  return sink.size();
}

}  // namespace myraft

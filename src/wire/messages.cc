#include "wire/messages.h"

#include "util/coding.h"

namespace myraft {

namespace {

void PutString(std::string* dst, const std::string& s) {
  PutLengthPrefixed(dst, s);
}

bool GetString(Slice* in, std::string* out) {
  Slice s;
  if (!GetLengthPrefixed(in, &s)) return false;
  *out = s.ToString();
  return true;
}

void PutOpId(std::string* dst, const OpId& id) {
  PutVarint64(dst, id.term);
  PutVarint64(dst, id.index);
}

bool GetOpId(Slice* in, OpId* id) {
  return GetVarint64(in, &id->term) && GetVarint64(in, &id->index);
}

void PutRoute(std::string* dst, const std::vector<MemberId>& route) {
  PutVarint64(dst, route.size());
  for (const auto& hop : route) PutString(dst, hop);
}

bool GetRoute(Slice* in, std::vector<MemberId>* route) {
  uint64_t n;
  if (!GetVarint64(in, &n)) return false;
  route->clear();
  for (uint64_t i = 0; i < n; ++i) {
    std::string hop;
    if (!GetString(in, &hop)) return false;
    route->push_back(std::move(hop));
  }
  return true;
}

Status Truncated(const char* what) {
  return Status::Corruption(std::string("wire: truncated ") + what);
}

}  // namespace

// --- AppendEntriesRequest ---------------------------------------------------

void AppendEntriesRequest::EncodeTo(std::string* dst) const {
  PutString(dst, leader);
  PutString(dst, dest);
  PutRoute(dst, route);
  PutVarint64(dst, term);
  PutOpId(dst, prev);
  PutOpId(dst, commit_marker);
  uint8_t flags = 0;
  if (proxy_payload_omitted) flags |= 0x1;
  if (entries_compressed) flags |= 0x2;
  dst->push_back(static_cast<char>(flags));
  PutVarint64(dst, entries.size());
  for (const auto& e : entries) e.EncodeTo(dst);
  PutVarint64(dst, trace_id);
  PutVarint64(dst, trace_span_id);
  PutVarint64(dst, lease_sent_micros);
  PutLengthPrefixed(dst, config_payload);
}

Result<AppendEntriesRequest> AppendEntriesRequest::DecodeFrom(Slice in) {
  AppendEntriesRequest req;
  if (!GetString(&in, &req.leader) || !GetString(&in, &req.dest) ||
      !GetRoute(&in, &req.route) || !GetVarint64(&in, &req.term) ||
      !GetOpId(&in, &req.prev) || !GetOpId(&in, &req.commit_marker)) {
    return Truncated("append-entries header");
  }
  if (in.empty()) return Truncated("append-entries flags");
  req.proxy_payload_omitted = (in[0] & 0x1) != 0;
  req.entries_compressed = (in[0] & 0x2) != 0;
  in.RemovePrefix(1);
  uint64_t n;
  if (!GetVarint64(&in, &n)) return Truncated("append-entries count");
  for (uint64_t i = 0; i < n; ++i) {
    auto entry = LogEntry::DecodeFrom(&in);
    if (!entry.ok()) return entry.status();
    req.entries.push_back(std::move(*entry));
  }
  Slice config;
  if (!GetVarint64(&in, &req.trace_id) ||
      !GetVarint64(&in, &req.trace_span_id) ||
      !GetVarint64(&in, &req.lease_sent_micros) ||
      !GetLengthPrefixed(&in, &config)) {
    return Truncated("append-entries trailer");
  }
  req.config_payload = config.ToString();
  if (!in.empty()) return Status::Corruption("wire: trailing bytes");
  return req;
}

uint64_t AppendEntriesRequest::PayloadBytes() const {
  uint64_t total = 0;
  for (const auto& e : entries) total += e.payload_bytes().size();
  return total;
}

// --- AppendEntriesResponse ----------------------------------------------------

void AppendEntriesResponse::EncodeTo(std::string* dst) const {
  PutString(dst, from);
  PutString(dst, dest);
  PutRoute(dst, route);
  PutVarint64(dst, term);
  dst->push_back(success ? 1 : 0);
  PutOpId(dst, last_received);
  PutVarint64(dst, last_durable_index);
  PutVarint64(dst, request_prev_index);
  PutVarint64(dst, trace_id);
  PutVarint64(dst, trace_span_id);
  PutVarint64(dst, lease_granted_micros);
  PutVarint64(dst, config_term);
  PutVarint64(dst, config_version);
}

Result<AppendEntriesResponse> AppendEntriesResponse::DecodeFrom(Slice in) {
  AppendEntriesResponse resp;
  if (!GetString(&in, &resp.from) || !GetString(&in, &resp.dest) ||
      !GetRoute(&in, &resp.route) || !GetVarint64(&in, &resp.term)) {
    return Truncated("append-response header");
  }
  if (in.empty()) return Truncated("append-response flag");
  resp.success = in[0] != 0;
  in.RemovePrefix(1);
  if (!GetOpId(&in, &resp.last_received) ||
      !GetVarint64(&in, &resp.last_durable_index) ||
      !GetVarint64(&in, &resp.request_prev_index) ||
      !GetVarint64(&in, &resp.trace_id) ||
      !GetVarint64(&in, &resp.trace_span_id) ||
      !GetVarint64(&in, &resp.lease_granted_micros) ||
      !GetVarint64(&in, &resp.config_term) ||
      !GetVarint64(&in, &resp.config_version)) {
    return Truncated("append-response body");
  }
  if (!in.empty()) return Status::Corruption("wire: trailing bytes");
  return resp;
}

// --- VoteRequest -------------------------------------------------------------

void VoteRequest::EncodeTo(std::string* dst) const {
  PutString(dst, candidate);
  PutString(dst, dest);
  PutVarint64(dst, term);
  PutOpId(dst, last_log);
  PutString(dst, candidate_region);
  uint8_t flags = 0;
  if (pre_vote) flags |= 1;
  if (mock_election) flags |= 2;
  dst->push_back(static_cast<char>(flags));
  PutOpId(dst, leader_cursor_snapshot);
  PutVarint64(dst, config_term);
  PutVarint64(dst, config_version);
}

Result<VoteRequest> VoteRequest::DecodeFrom(Slice in) {
  VoteRequest req;
  if (!GetString(&in, &req.candidate) || !GetString(&in, &req.dest) ||
      !GetVarint64(&in, &req.term) || !GetOpId(&in, &req.last_log) ||
      !GetString(&in, &req.candidate_region)) {
    return Truncated("vote-request header");
  }
  if (in.empty()) return Truncated("vote-request flags");
  const uint8_t flags = static_cast<uint8_t>(in[0]);
  in.RemovePrefix(1);
  req.pre_vote = (flags & 1) != 0;
  req.mock_election = (flags & 2) != 0;
  if (!GetOpId(&in, &req.leader_cursor_snapshot) ||
      !GetVarint64(&in, &req.config_term) ||
      !GetVarint64(&in, &req.config_version)) {
    return Truncated("vote-request body");
  }
  if (!in.empty()) return Status::Corruption("wire: trailing bytes");
  return req;
}

// --- VoteResponse -------------------------------------------------------------

void VoteResponse::EncodeTo(std::string* dst) const {
  PutString(dst, from);
  PutString(dst, dest);
  PutVarint64(dst, term);
  uint8_t flags = 0;
  if (granted) flags |= 1;
  if (pre_vote) flags |= 2;
  if (mock_election) flags |= 4;
  dst->push_back(static_cast<char>(flags));
  PutString(dst, reason);
  PutString(dst, voter_region);
  PutVarint64(dst, last_leader_term);
  PutString(dst, last_leader_region);
}

Result<VoteResponse> VoteResponse::DecodeFrom(Slice in) {
  VoteResponse resp;
  if (!GetString(&in, &resp.from) || !GetString(&in, &resp.dest) ||
      !GetVarint64(&in, &resp.term)) {
    return Truncated("vote-response header");
  }
  if (in.empty()) return Truncated("vote-response flags");
  const uint8_t flags = static_cast<uint8_t>(in[0]);
  in.RemovePrefix(1);
  resp.granted = (flags & 1) != 0;
  resp.pre_vote = (flags & 2) != 0;
  resp.mock_election = (flags & 4) != 0;
  if (!GetString(&in, &resp.reason) || !GetString(&in, &resp.voter_region)) {
    return Truncated("vote-response body");
  }
  if (!GetVarint64(&in, &resp.last_leader_term) ||
      !GetString(&in, &resp.last_leader_region)) {
    return Truncated("vote-response leader view");
  }
  if (!in.empty()) return Status::Corruption("wire: trailing bytes");
  return resp;
}

// --- StartElectionRequest ------------------------------------------------------

void StartElectionRequest::EncodeTo(std::string* dst) const {
  PutString(dst, from);
  PutString(dst, dest);
  PutVarint64(dst, term);
  dst->push_back(mock ? 1 : 0);
  PutOpId(dst, leader_cursor_snapshot);
}

Result<StartElectionRequest> StartElectionRequest::DecodeFrom(Slice in) {
  StartElectionRequest req;
  if (!GetString(&in, &req.from) || !GetString(&in, &req.dest) ||
      !GetVarint64(&in, &req.term)) {
    return Truncated("start-election");
  }
  if (in.empty()) return Truncated("start-election flags");
  req.mock = in[0] != 0;
  in.RemovePrefix(1);
  if (!GetOpId(&in, &req.leader_cursor_snapshot)) {
    return Truncated("start-election snapshot");
  }
  if (!in.empty()) return Status::Corruption("wire: trailing bytes");
  return req;
}

// --- Envelope -------------------------------------------------------------------

void EncodeMessage(const Message& msg, std::string* dst) {
  std::visit(
      [dst](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        MessageType type;
        if constexpr (std::is_same_v<T, AppendEntriesRequest>) {
          type = MessageType::kAppendEntriesRequest;
        } else if constexpr (std::is_same_v<T, AppendEntriesResponse>) {
          type = MessageType::kAppendEntriesResponse;
        } else if constexpr (std::is_same_v<T, VoteRequest>) {
          type = MessageType::kVoteRequest;
        } else if constexpr (std::is_same_v<T, VoteResponse>) {
          type = MessageType::kVoteResponse;
        } else {
          type = MessageType::kStartElectionRequest;
        }
        dst->push_back(static_cast<char>(type));
        m.EncodeTo(dst);
      },
      msg);
}

Result<Message> DecodeMessage(Slice in) {
  if (in.empty()) return Status::Corruption("wire: empty message");
  const uint8_t tag = static_cast<uint8_t>(in[0]);
  in.RemovePrefix(1);
  switch (static_cast<MessageType>(tag)) {
    case MessageType::kAppendEntriesRequest: {
      auto r = AppendEntriesRequest::DecodeFrom(in);
      if (!r.ok()) return r.status();
      return Message(std::move(*r));
    }
    case MessageType::kAppendEntriesResponse: {
      auto r = AppendEntriesResponse::DecodeFrom(in);
      if (!r.ok()) return r.status();
      return Message(std::move(*r));
    }
    case MessageType::kVoteRequest: {
      auto r = VoteRequest::DecodeFrom(in);
      if (!r.ok()) return r.status();
      return Message(std::move(*r));
    }
    case MessageType::kVoteResponse: {
      auto r = VoteResponse::DecodeFrom(in);
      if (!r.ok()) return r.status();
      return Message(std::move(*r));
    }
    case MessageType::kStartElectionRequest: {
      auto r = StartElectionRequest::DecodeFrom(in);
      if (!r.ok()) return r.status();
      return Message(std::move(*r));
    }
  }
  return Status::Corruption("wire: unknown message type");
}

MemberId MessageDest(const Message& msg) {
  return std::visit([](const auto& m) { return m.dest; }, msg);
}

MemberId MessageFrom(const Message& msg) {
  return std::visit(
      [](const auto& m) -> MemberId {
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

MemberId MessageNextHop(const Message& msg) {
  if (const auto* request = std::get_if<AppendEntriesRequest>(&msg)) {
    if (!request->route.empty()) return request->route.front();
  }
  if (const auto* response = std::get_if<AppendEntriesResponse>(&msg)) {
    if (!response->route.empty()) return response->route.front();
  }
  return MessageDest(msg);
}

uint64_t MessageWireBytes(const Message& msg) {
  std::string buf;
  EncodeMessage(msg, &buf);
  return buf.size();
}

}  // namespace myraft

#include "proxy/proxy_router.h"

#include <algorithm>
#include <cstdint>

#include "util/logging.h"
#include "util/string_util.h"

namespace myraft::proxy {

void ProxyRouter::ObserveTraffic(const MemberId& from) {
  for (Traffic& traffic : last_traffic_) {
    if (traffic.member == from) {
      traffic.micros = loop_->now();
      return;
    }
  }
  last_traffic_.push_back(Traffic{from, loop_->now()});
}

RegionId ProxyRouter::RegionOf(const MemberId& member) const {
  if (consensus_ == nullptr) return "";
  const MemberInfo* info = consensus_->config().Find(member);
  return info != nullptr ? info->region : "";
}

bool ProxyRouter::RelayHealthy(const MemberId& relay) const {
  // A healthy relay constantly produces traffic: relayed requests to its
  // region-mates, responses to the leader. Silence for the threshold —
  // including never having been heard from once the router has been up
  // that long — marks it unhealthy (§4.2.3 health checks).
  const uint64_t now = loop_->now();
  uint64_t reference = created_micros_;
  for (const Traffic& traffic : last_traffic_) {
    if (traffic.member == relay) {
      reference = traffic.micros;
      break;
    }
  }
  return now - reference <= kRelayUnhealthyAfterMicros;
}

MemberId ProxyRouter::ChooseRelay(const RegionId& region,
                                  bool allow_self) const {
  if (consensus_ == nullptr) return "";
  const MemberId* fallback = nullptr;
  for (const auto& member : consensus_->config().members) {
    if (member.region != region) continue;
    if (member.id == self_) {
      if (!allow_self) continue;
    } else if (!RelayHealthy(member.id)) {
      continue;
    }
    if (member.kind == MemberKind::kMySql && member.is_voter()) {
      return member.id;  // preferred relay: the region's failover replica
    }
    if (fallback == nullptr) fallback = &member.id;
  }
  return fallback != nullptr ? *fallback : "";
}

MemberId ProxyRouter::ChooseReadTarget(
    const RegionId& client_region, uint64_t staleness_budget_entries) const {
  if (consensus_ == nullptr) return "";
  const bool leading = consensus_->role() == RaftRole::kLeader;
  if (!leading || staleness_budget_entries == 0) {
    reads_routed_leader_->Increment();
    return leading ? self_ : consensus_->leader();
  }
  // Leader-side steering: the replication bookkeeping (match indexes) is
  // authoritative here, so lag checks need no extra round trips.
  const uint64_t marker = consensus_->commit_marker().index;
  const auto& peers = consensus_->peers();
  MemberId best;
  uint64_t best_match = 0;
  for (const auto& member : consensus_->config().members) {
    if (member.kind != MemberKind::kMySql || member.id == self_) continue;
    if (member.region != client_region) continue;
    if (!RelayHealthy(member.id)) continue;
    auto it = peers.find(member.id);
    if (it == peers.end()) continue;
    const uint64_t match = it->second.match_index;
    if (match + staleness_budget_entries < marker) continue;  // too stale
    if (best.empty() || match > best_match) {
      best = member.id;
      best_match = match;
    }
  }
  if (best.empty()) {
    reads_routed_leader_->Increment();
    return self_;
  }
  reads_routed_follower_->Increment();
  return best;
}

void ProxyRouter::Send(Message message) {
  if (!options_.enabled) {
    lower_send_(std::move(message));
    return;
  }
  if (auto* request = std::get_if<AppendEntriesRequest>(&message)) {
    RouteRequest(std::move(*request));
    return;
  }
  if (auto* response = std::get_if<AppendEntriesResponse>(&message)) {
    RouteResponse(std::move(*response));
    return;
  }
  // Votes and election control are never proxied (§4.2.1).
  lower_send_(std::move(message));
}

void ProxyRouter::RouteRequest(AppendEntriesRequest request) {
  const RegionId dest_region = RegionOf(request.dest);
  // Same-region traffic, empty payload (heartbeat) routing overhead is
  // pointless; and only the leader originates requests.
  if (dest_region.empty() || dest_region == region_ ||
      request.entries.empty()) {
    direct_requests_->Increment();
    lower_send_(std::move(request));
    return;
  }
  const MemberId relay = ChooseRelay(dest_region, /*allow_self=*/false);
  if (relay.empty() || relay == request.dest) {
    // The relay IS the destination (it gets full payload), or no healthy
    // relay exists — route around (§4.2.3).
    if (relay.empty()) route_arounds_->Increment();
    direct_requests_->Increment();
    lower_send_(std::move(request));
    return;
  }

  // PROXY_OP: strip payloads; the relay reconstitutes from its own log.
  proxied_requests_->Increment();
  if (options_.tracer != nullptr) {
    options_.tracer->Instant("proxy", "proxied", request.trace_id, "dest",
                             request.dest, "relay", relay, "n",
                             request.entries.size());
  }
  request.route.push_back(relay);
  request.proxy_payload_omitted = true;
  // Stripped payloads make the compression flag meaningless; the relay
  // reconstitutes uncompressed bytes from its local log.
  request.entries_compressed = false;
  for (LogEntry& entry : request.entries) {
    entry.payload.clear();  // checksum retained for verification
    entry.shared_payload.reset();  // drop borrowed zero-copy buffers too
  }
  lower_send_(std::move(request));
}

void ProxyRouter::RouteResponse(AppendEntriesResponse response) {
  const RegionId dest_region = RegionOf(response.dest);
  if (dest_region.empty() || dest_region == region_) {
    lower_send_(std::move(response));
    return;
  }
  // Responses travel back up the tree via our in-region relay (§4.2.1:
  // "the response ... will then be proxied back upstream"). If we ARE the
  // region's relay, upstream means direct.
  const MemberId relay = ChooseRelay(region_, /*allow_self=*/true);
  if (relay.empty() || relay == self_) {
    lower_send_(std::move(response));
    return;
  }
  response.route.push_back(relay);
  lower_send_(std::move(response));
}

bool ProxyRouter::HandleInbound(const Message& message) {
  if (auto* request = std::get_if<AppendEntriesRequest>(&message)) {
    if (request->route.empty()) {
      // For the local consensus, which appends these entries before the
      // loop runs anything else, so a zero-delay drain sees them: this is
      // how parked PROXY_OPs wake.
      if (!request->entries.empty() && !relay_queues_.empty()) {
        ScheduleDrain();
      }
      return false;
    }
    if (request->route.front() != self_) {
      // Misrouted; drop.
      return true;
    }
    AppendEntriesRequest hop = *request;
    hop.route.erase(hop.route.begin());
    if (!hop.route.empty()) {
      // Intermediate hop: forward along the remaining path.
      relayed_requests_->Increment();
      if (options_.tracer != nullptr) {
        options_.tracer->Instant("proxy", "relayed", hop.trace_id, "dest",
                                 hop.dest, "hops_left", hop.route.size());
      }
      Message out(std::move(hop));
      bytes_relayed_->Increment(MessageWireBytes(out));
      lower_send_(std::move(out));
      return true;
    }
    if (hop.dest == self_) {
      // We were the final relay and also the destination (shouldn't
      // normally happen): deliver locally.
      return false;
    }
    if (!hop.proxy_payload_omitted) {
      relayed_requests_->Increment();
      Message out(std::move(hop));
      bytes_relayed_->Increment(MessageWireBytes(out));
      lower_send_(std::move(out));
      return true;
    }
    EnqueueProxyOp(std::move(hop));
    return true;
  }

  if (auto* response = std::get_if<AppendEntriesResponse>(&message)) {
    if (response->route.empty()) return false;
    if (response->route.front() != self_) return true;
    AppendEntriesResponse hop = *response;
    hop.route.erase(hop.route.begin());
    relayed_responses_->Increment();
    Message out(std::move(hop));
    bytes_relayed_->Increment(MessageWireBytes(out));
    lower_send_(std::move(out));
    return true;
  }

  return false;
}

Result<LogEntry> ProxyRouter::LookupEntry(const LogEntry& proxy_entry) const {
  if (consensus_ == nullptr) return Status::IllegalState("unbound router");
  auto cached = consensus_->log_cache().Get(proxy_entry.id.index);
  Result<LogEntry> entry =
      cached.ok() ? std::move(cached)
                  : consensus_->log()->Read(proxy_entry.id.index);
  if (!entry.ok()) return entry.status();
  if (entry->id != proxy_entry.id ||
      entry->checksum != proxy_entry.checksum) {
    return Status::NotFound("local entry does not match PROXY_OP stamp");
  }
  return entry;
}

bool ProxyRouter::RestorePayloads(PendingProxyOp* op) const {
  std::vector<LogEntry>& entries = op->request.entries;
  for (; op->restored < entries.size(); ++op->restored) {
    auto local = LookupEntry(entries[op->restored]);
    if (!local.ok()) return false;
    entries[op->restored] = std::move(*local);
  }
  return true;
}

void ProxyRouter::EnqueueProxyOp(AppendEntriesRequest request) {
  const uint64_t now = loop_->now();
  std::deque<PendingProxyOp>& queue = relay_queues_[request.dest];
  queue.push_back(PendingProxyOp{std::move(request), 0, now,
                                 now + kReconstituteWaitMicros});
  // Behind an earlier op this one must wait its turn: that head is still
  // missing entries, or a drain is already scheduled for it.
  if (queue.size() == 1) DrainQueues();
}

void ProxyRouter::DrainQueue(std::deque<PendingProxyOp>* queue) {
  const uint64_t now = loop_->now();
  while (!queue->empty()) {
    PendingProxyOp& head = queue->front();
    AppendEntriesRequest& request = head.request;
    if (RestorePayloads(&head)) {
      reconstitutions_->Increment();
      if (options_.tracer != nullptr) {
        options_.tracer->Instant("proxy", "reconstituted", request.trace_id,
                                 "dest", request.dest, "n",
                                 request.entries.size());
      }
      request.proxy_payload_omitted = false;
    } else if (now >= head.deadline_micros) {
      // §4.2.1: degrade to a simple heartbeat so the downstream follower
      // still learns the term and commit marker; the leader will retry.
      degraded_to_heartbeat_->Increment();
      if (options_.tracer != nullptr) {
        options_.tracer->Instant("proxy", "degraded_to_heartbeat",
                                 request.trace_id, "dest", request.dest, "n",
                                 request.entries.size());
      }
      request.entries.clear();
      request.proxy_payload_omitted = false;
    } else {
      return;  // the head waits; everything behind it waits too
    }
    reconstitute_wait_us_->Record(now - head.queued_micros);
    lower_send_(std::move(request));
    queue->pop_front();
  }
}

void ProxyRouter::DrainQueues() {
  for (auto it = relay_queues_.begin(); it != relay_queues_.end();) {
    DrainQueue(&it->second);
    it = it->second.empty() ? relay_queues_.erase(it) : std::next(it);
  }
  ArmDegradeTimer();
}

void ProxyRouter::ScheduleDrain() {
  if (drain_scheduled_) return;
  drain_scheduled_ = true;
  // The router may be destroyed (process crash) before this fires.
  loop_->Schedule(0, [this, alive = alive_]() {
    if (!*alive) return;
    drain_scheduled_ = false;
    DrainQueues();
  });
}

void ProxyRouter::ArmDegradeTimer() {
  if (degrade_timer_armed_ || relay_queues_.empty()) return;
  uint64_t deadline = UINT64_MAX;
  for (const auto& [dest, queue] : relay_queues_) {
    deadline = std::min(deadline, queue.front().deadline_micros);
  }
  degrade_timer_armed_ = true;
  loop_->Schedule(deadline - loop_->now(), [this, alive = alive_]() {
    if (!*alive) return;
    degrade_timer_armed_ = false;
    DrainQueues();
  });
}

std::string ProxyRouter::DebugStatusJson() const {
  std::string out = StringPrintf("{\"enabled\":%s,\"relay_health\":{",
                                 options_.enabled ? "true" : "false");
  if (consensus_ != nullptr) {
    bool first = true;
    for (const auto& member : consensus_->config().members) {
      if (member.id == self_) continue;  // own health is tautological
      if (!first) out.push_back(',');
      first = false;
      out.append(StringPrintf("\"%s\":%s", member.id.c_str(),
                              RelayHealthy(member.id) ? "true" : "false"));
    }
  }
  out.append(StringPrintf(
      "},\"stats\":{\"direct_requests\":%llu,\"proxied_requests\":%llu,"
      "\"relayed_requests\":%llu,\"reconstitutions\":%llu,"
      "\"degraded_to_heartbeat\":%llu,\"relayed_responses\":%llu,"
      "\"route_arounds\":%llu,\"bytes_relayed\":%llu,"
      "\"reads_routed_follower\":%llu,\"reads_routed_leader\":%llu}}",
      (unsigned long long)direct_requests_->value(),
      (unsigned long long)proxied_requests_->value(),
      (unsigned long long)relayed_requests_->value(),
      (unsigned long long)reconstitutions_->value(),
      (unsigned long long)degraded_to_heartbeat_->value(),
      (unsigned long long)relayed_responses_->value(),
      (unsigned long long)route_arounds_->value(),
      (unsigned long long)bytes_relayed_->value(),
      (unsigned long long)reads_routed_follower_->value(),
      (unsigned long long)reads_routed_leader_->value()));
  return out;
}

}  // namespace myraft::proxy

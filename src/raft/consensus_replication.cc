#include "raft/consensus.h"

#include <algorithm>

#include "raft/consensus_internal.h"
#include "util/compression.h"
#include "util/logging.h"

namespace myraft::raft {

// --- Replication: leader side --------------------------------------------------

Result<OpId> RaftConsensus::Replicate(EntryType type, std::string payload,
                                      trace::TraceContext trace_ctx) {
  if (role_ != RaftRole::kLeader) {
    return Status::IllegalState("not the leader");
  }
  if (is_quiesced_for_transfer() && type == EntryType::kTransaction) {
    return Status::ServiceUnavailable("quiesced for leadership transfer");
  }
  const OpId opid{meta_.current_term, log_->LastOpId().index + 1};
  const LogEntry entry = LogEntry::Make(opid, type, std::move(payload));
  MYRAFT_RETURN_NOT_OK(AppendToLocalLog(entry));
  // Group-commit sync stage (§3.4): every Replicate() arriving before the
  // deferred sync runs shares one fsync. The entry still ships to peers
  // immediately; only the leader's own quorum ack waits (gated on
  // last_synced_index_ in AdvanceCommitMarker), so nothing commits before
  // the covering sync.
  ScheduleGroupSync();
  replicate_time_micros_[opid.index] = clock_->NowMicros();
  if (options_.tracer != nullptr && trace_ctx.valid()) {
    replicate_trace_ctx_[opid.index] = trace_ctx;
  }

  last_commit_completer_.clear();  // a self-append commit has no straggler
  AdvanceCommitMarker();  // single-voter rings commit immediately
  BroadcastAppendEntries();
  return opid;
}

Status RaftConsensus::AppendToLocalLog(const LogEntry& entry) {
  MYRAFT_RETURN_NOT_OK(log_->Append(entry));
  cache_.Put(entry);
  listener_->OnEntryAppended(entry);
  return Status::OK();
}

void RaftConsensus::CancelInflight(PeerStatus* peer) {
  if (options_.tracer != nullptr) {
    for (const InflightBatch& batch : peer->inflight) {
      if (batch.trace_span_id != 0) {
        options_.tracer->EndSpan(batch.trace_span_id, "cancelled");
      }
    }
  }
  peer->inflight.clear();
  peer->inflight_bytes = 0;
  NoteStallEnded(peer);
}

void RaftConsensus::NoteStallEnded(PeerStatus* peer) {
  if (!peer->stalled) return;
  peer->stalled = false;
  const uint64_t now = clock_->NowMicros();
  m_.stall_duration_us->Record(
      now >= peer->stall_started_micros ? now - peer->stall_started_micros
                                        : 0);
}

bool RaftConsensus::LookupTermAt(uint64_t index, uint64_t* term) const {
  if (index == 0) {
    *term = 0;
    return true;
  }
  auto opid = log_->OpIdAt(index);
  if (opid.ok()) {
    *term = opid->term;
    return true;
  }
  auto cached = cache_.Peek(index);
  if (cached.has_value()) {
    *term = cached->id.term;
    return true;
  }
  return false;
}

Status RaftConsensus::BuildAppendBatch(uint64_t next_index,
                                       uint64_t* prev_term,
                                       AppendEntriesRequest* request,
                                       uint64_t* raw_bytes) {
  // Preceding entry's term for the log-matching check.
  if (!LookupTermAt(next_index - 1, prev_term)) {
    return Status::NotFound(
        "previous entry unavailable (member needs re-provisioning)");
  }

  // Size the batch once: the cached run from next_index (Peek compresses
  // nothing), then, if the cache ends first, the rest of the budget read
  // from the historical log files through the log abstraction (§3.1).
  const uint64_t last = log_->LastOpId().index;
  const size_t max_entries = options_.max_entries_per_rpc;
  uint64_t raw = 0;
  uint64_t cached_end = next_index;
  std::vector<LogEntry> disk;
  while (cached_end <= last && cached_end - next_index < max_entries &&
         raw < kMaxBytesPerRpc) {
    auto cached = cache_.Peek(cached_end);
    if (cached.has_value()) {
      raw += cached->payload_size;
      ++cached_end;
      continue;
    }
    // The follower lags behind the cache. Get records the miss in
    // log_cache.misses, as for any lookup that finds nothing.
    (void)cache_.Get(cached_end);
    m_.cache_fallback_reads->Increment();
    auto batch =
        log_->ReadBatch(cached_end, max_entries - (cached_end - next_index),
                        kMaxBytesPerRpc - raw);
    if (!batch.ok()) return batch.status();
    disk = std::move(*batch);
    for (const LogEntry& entry : disk) raw += entry.payload.size();
    break;
  }
  *raw_bytes = raw;

  // One compression decision per batch, from its raw size: compressed
  // when at least kWireCompressionMinBytes and the packed bytes are
  // fewer. Cached entries lend the cache's memoized span (borrowed, so
  // each is compressed at most once per node); only disk reads are
  // compressed here.
  if (raw >= kWireCompressionMinBytes) {
    uint64_t packed = 0;
    for (uint64_t index = next_index; index < cached_end; ++index) {
      auto cached = cache_.GetCompressed(index);  // found by the size pass
      LogEntry entry;
      entry.id = cached->id;
      entry.type = cached->type;
      entry.checksum = cached->checksum;
      entry.shared_payload = std::move(cached->compressed);
      packed += entry.shared_payload->size();
      request->entries.push_back(std::move(entry));
    }
    for (const LogEntry& read : disk) {
      LogEntry entry;
      entry.id = read.id;
      entry.type = read.type;
      entry.checksum = read.checksum;
      LzCompress(read.payload, &entry.payload);
      packed += entry.payload.size();
      request->entries.push_back(std::move(entry));
    }
    if (packed < raw) {
      request->entries_compressed = true;
      m_.wire_batches_compressed->Increment();
      return Status::OK();
    }
    request->entries.clear();  // incompressible: ship raw
  }
  for (uint64_t index = next_index; index < cached_end; ++index) {
    auto cached = cache_.Get(index);
    if (!cached.ok()) {
      // A cached copy that fails its checksum is read from the log.
      m_.cache_fallback_reads->Increment();
      cached = log_->Read(index);
      if (!cached.ok()) return cached.status();
    }
    request->entries.push_back(std::move(*cached));
  }
  for (LogEntry& read : disk) request->entries.push_back(std::move(read));
  return Status::OK();
}

void RaftConsensus::SendAppendEntriesTo(const MemberId& peer_id,
                                        bool allow_empty) {
  auto it = peers_.find(peer_id);
  if (it == peers_.end()) return;
  PeerStatus& peer = it->second;
  const uint64_t last = log_->LastOpId().index;

  // Stream as many batches as the in-flight window and byte budget allow.
  // next_index advances optimistically past each batch as it is sent; acks
  // (or rewinds) reconcile it later. This is also the duplicate-suppression
  // fix: a broadcast tick while a batch is outstanding now continues from
  // the optimistic cursor instead of re-sending the same suffix.
  bool sent_entries = false;
  while (peer.next_index <= last) {
    if (peer.inflight.size() >= options_.max_inflight_batches ||
        peer.inflight_bytes >= kMaxInflightBytesPerPeer) {
      // Count the *transition* into the stalled state, not every attempt
      // against a full window (the historical over-counting).
      if (!peer.stalled) {
        peer.stalled = true;
        peer.stall_started_micros = clock_->NowMicros();
        m_.pipeline_stalls->Increment();
      }
      break;
    }

    AppendEntriesRequest request;
    uint64_t prev_term = 0;
    uint64_t batch_raw_bytes = 0;
    Status s = BuildAppendBatch(peer.next_index, &prev_term, &request,
                                &batch_raw_bytes);
    if (!s.ok()) {
      MYRAFT_LOG(Warning) << options_.self << ": cannot serve entries to "
                          << peer_id << ": " << s;
      return;
    }
    if (request.entries.empty()) break;  // nothing fetchable despite next<=last
    FillAppendHeader(peer_id, &peer, OpId{prev_term, peer.next_index - 1},
                     &request);

    InflightBatch batch;
    batch.first_index = peer.next_index;
    batch.last_index = request.entries.back().id.index;
    // Stamped per send, not once per call: later batches in one streaming
    // burst get their own timestamps, so RPC-timeout and RTT accounting
    // aren't skewed against them.
    batch.sent_micros = clock_->NowMicros();
    batch.bytes = batch_raw_bytes;
    m_.entries_replicated->Increment(request.entries.size());

    if (options_.tracer != nullptr) {
      // The batch span belongs to the first traced entry's transaction
      // (0 = an untraced batch, still visible in the pipeline window).
      trace::TraceContext ctx;
      auto ctx_it = replicate_trace_ctx_.lower_bound(batch.first_index);
      if (ctx_it != replicate_trace_ctx_.end() &&
          ctx_it->first <= batch.last_index) {
        ctx = ctx_it->second;
      }
      batch.trace_span_id = options_.tracer->BeginSpan(
          "raft", "replicate.batch", ctx.trace_id, ctx.span_id,
          "peer", peer_id, "first", batch.first_index, "last",
          batch.last_index, "window", peer.inflight.size() + 1);
      request.trace_id = ctx.trace_id;
      request.trace_span_id = batch.trace_span_id;
    }

    peer.next_index = batch.last_index + 1;
    peer.inflight_bytes += batch.bytes;
    peer.inflight.push_back(batch);
    m_.inflight_window_batches->Record(peer.inflight.size());
    SendToPeer(&peer, std::move(request));
    sent_entries = true;
  }
  if (!sent_entries && allow_empty) SendEmptyAppendEntries(peer_id, &peer);
}

void RaftConsensus::SendEmptyAppendEntries(const MemberId& peer_id,
                                           PeerStatus* peer) {
  // With batches in flight, an empty append only carries an advanced
  // commit marker past the full (or blocked) window, which would otherwise
  // wait for an ack to free window space: a marker-only heartbeat, at most
  // once per advance, anchored at the acked match point so the
  // log-matching check passes whatever is still in flight. A caught-up,
  // idle peer gets a plain heartbeat at its cursor, not tracked in the
  // window (a lost one is simply replaced at the next interval).
  const bool marker_only = !peer->inflight.empty();
  if (marker_only && peer->last_sent_commit_index >= commit_marker_.index) {
    return;
  }
  const uint64_t anchor =
      marker_only ? peer->match_index : peer->next_index - 1;
  uint64_t prev_term = 0;
  if (!LookupTermAt(anchor, &prev_term)) {
    MYRAFT_LOG(Warning) << options_.self << ": cannot heartbeat " << peer_id
                        << ": previous entry unavailable (member needs "
                           "re-provisioning)";
    return;
  }
  AppendEntriesRequest request;
  FillAppendHeader(peer_id, peer, OpId{prev_term, anchor}, &request);
  (marker_only ? m_.marker_only_heartbeats : m_.heartbeats_sent)->Increment();
  SendToPeer(peer, std::move(request));
}

void RaftConsensus::FillAppendHeader(const MemberId& dest,
                                     const PeerStatus* peer, OpId prev,
                                     AppendEntriesRequest* request) {
  request->leader = options_.self;
  request->dest = dest;
  request->term = meta_.current_term;
  request->commit_marker = commit_marker_;
  request->prev = prev;
  StampLease(request);
  StampConfig(peer, request);
}

void RaftConsensus::SendToPeer(PeerStatus* peer,
                               AppendEntriesRequest request) {
  peer->last_rpc_sent_micros = clock_->NowMicros();
  peer->last_sent_commit_index =
      std::max(peer->last_sent_commit_index, commit_marker_.index);
  outbox_->Send(std::move(request));
}

void RaftConsensus::BroadcastAppendEntries() {
  for (const auto& [peer_id, peer] : peers_) {
    SendAppendEntriesTo(peer_id, /*allow_empty=*/false);
  }
}

void RaftConsensus::AdvanceCommitMarker() {
  if (role_ != RaftRole::kLeader) return;
  const uint64_t last = log_->LastOpId().index;
  for (uint64_t n = last; n > commit_marker_.index; --n) {
    auto opid = log_->OpIdAt(n);
    if (!opid.ok()) break;
    // Raft safety: a leader only commits entries from its own term by
    // counting replicas (older entries commit transitively).
    if (opid->term != meta_.current_term) break;
    // The leader's own ack obeys the same durability rule as peers': only
    // the fsynced tail counts. With the group-commit sync stage the tail
    // can trail the log between Replicate() and the coalescing sync.
    std::set<MemberId> ackers;
    if (last_synced_index_ >= n) {
      ackers.insert(options_.self);
    }
    for (const auto& [peer_id, peer] : peers_) {
      if (peer.match_index >= n) ackers.insert(peer_id);
    }
    if (quorum_->IsCommitQuorumSatisfied(MakeQuorumContext(options_.self),
                                         ackers)) {
      SetCommitMarker(*opid);
      break;
    }
  }
}

void RaftConsensus::SetCommitMarker(OpId new_marker) {
  if (new_marker.index <= commit_marker_.index) return;
  commit_marker_ = new_marker;
  // Leader-side commit latency: Replicate() -> marker advance.
  const uint64_t now = clock_->NowMicros();
  for (auto it = replicate_time_micros_.begin();
       it != replicate_time_micros_.end() && it->first <= new_marker.index;) {
    m_.commit_advance_latency_us->Record(now - it->second);
    it = replicate_time_micros_.erase(it);
  }
  if (options_.tracer != nullptr) {
    // Quorum ack for each traced entry the marker now covers; the
    // completer is the peer whose ack moved the marker (the quorum
    // straggler the slow-transaction log reports).
    for (auto it = replicate_trace_ctx_.begin();
         it != replicate_trace_ctx_.end() && it->first <= new_marker.index;) {
      options_.tracer->Instant(
          "raft", "quorum_ack", it->second.trace_id,
          "index", it->first, "completed_by",
          last_commit_completer_.empty()
              ? std::string_view("self")
              : std::string_view(last_commit_completer_));
      it = replicate_trace_ctx_.erase(it);
    }
  }
  listener_->OnCommitAdvanced(commit_marker_);
  // Leases-off linearizable reads wait on their no-op barrier (§13.2).
  CompleteBarrierReads();
}

void RaftConsensus::HandleAppendEntriesResponse(
    const AppendEntriesResponse& response) {
  if (response.term > meta_.current_term) {
    StepDown(response.term, "", "");
    return;
  }
  if (role_ != RaftRole::kLeader) return;
  auto it = peers_.find(response.from);
  if (it == peers_.end()) return;
  PeerStatus& peer = it->second;
  const uint64_t now = clock_->NowMicros();
  peer.last_response_micros = now;
  // Even a log-matching rejection acks the config install (the echo
  // reflects the follower's installed config, not its log): this is what
  // lets a reconfig commit while the rejecting follower's log is still
  // rewinding or healing.
  RecordConfigEcho(response, &peer);

  if (response.success) {
    // Retire every in-flight batch the follower's tail now covers. Acks
    // may arrive out of order under jittery links; since each success
    // reports the cumulative tail, a late-arriving earlier ack is simply
    // a no-op here (max/min semantics below are monotone).
    while (!peer.inflight.empty() &&
           peer.inflight.front().last_index <=
               response.last_received.index) {
      const InflightBatch& front = peer.inflight.front();
      if (options_.tracer != nullptr && front.trace_span_id != 0) {
        options_.tracer->EndSpan(front.trace_span_id, "acked_by",
                                 response.from, "durable",
                                 response.last_durable_index);
      }
      if (now > front.sent_micros) {
        m_.peer_rtt_us->Record(now - front.sent_micros);
      }
      peer.inflight_bytes -= front.bytes;
      peer.inflight.pop_front();
    }
    if (peer.stalled && peer.inflight.size() < options_.max_inflight_batches &&
        peer.inflight_bytes < kMaxInflightBytesPerPeer) {
      NoteStallEnded(&peer);
    }

    // Commit quorums only count fsynced entries: match on the durable
    // index, not the received one. next_index still advances past
    // everything received so replication is not re-sent while the
    // follower's sync catches up (the next heartbeat refreshes it).
    const uint64_t acked = std::min(response.last_received.index,
                                    response.last_durable_index);
    peer.match_index = std::max(peer.match_index, acked);
    peer.next_index =
        std::max(peer.next_index, response.last_received.index + 1);
    RecordLeaseGrant(response, &peer);
    last_commit_completer_ = response.from;  // straggler if the marker moves
    AdvanceCommitMarker();
    // A current-term success doubles as leadership confirmation for the
    // ReadIndex rounds whose registration its echoed send time postdates.
    if (response.term == meta_.current_term) {
      ConfirmQuorumReads(response.from, response.lease_granted_micros);
    }

    // Graceful transfer: once the quiesced target is fully caught up,
    // fire TimeoutNow (§2.2 Promotion).
    if (transfer_.has_value() &&
        transfer_->phase == TransferState::Phase::kQuiesced &&
        response.from == transfer_->target &&
        peer.match_index == log_->LastOpId().index) {
      SendTimeoutNow(transfer_->target);
      // Leave transfer_ set: we stay quiesced until the new leader's term
      // arrives (or the deadline fails the transfer).
    }
    if (peer.next_index <= log_->LastOpId().index) {
      SendAppendEntriesTo(response.from, /*allow_empty=*/false);
    }
  } else {
    const uint64_t hint = response.last_received.index;
    // Stale rejection guard, keyed on WHICH request was refused (the echoed
    // prev), not on the tail hint: an in-order ack can overtake a reordered
    // rejection on the return path and raise match_index past the hint
    // while the rejected batches are still genuinely undelivered. Only a
    // rejection of a request whose prev lies below the acked match is
    // provably obsolete — the follower verifiably holds that prefix now.
    if (response.request_prev_index < peer.match_index) {
      m_.stale_responses_ignored->Increment();
      return;
    }
    // Rewind and retry. The rejected batch invalidates the whole in-flight
    // suffix after it (each batch's prev points into its predecessor), so
    // cancel the window and restream from the rewound cursor. The cursor
    // may drop below match_index: a follower that crashed before fsyncing
    // its acked tail legitimately rejects batches at or above match, and
    // clamping there would resend the same refused prev forever. Re-sent
    // prefixes are idempotent on the follower.
    const uint64_t base =
        peer.inflight.empty() ? peer.next_index
                              : peer.inflight.front().first_index;
    CancelInflight(&peer);
    m_.window_rewinds->Increment();
    peer.next_index = std::max<uint64_t>(1, std::min(base - 1, hint + 1));
    SendAppendEntriesTo(response.from, /*allow_empty=*/true);
  }
}

}  // namespace myraft::raft

#include "raft/consensus.h"

#include <algorithm>

#include "raft/consensus_internal.h"
#include "util/compression.h"
#include "util/logging.h"

namespace myraft::raft {

// --- Group-commit sync stage ---------------------------------------------------

void RaftConsensus::ScheduleGroupSync() {
  if (group_sync_scheduled_) {
    // Another write already armed the sync; this one rides along.
    m_.group_sync_coalesced->Increment();
    return;
  }
  group_sync_scheduled_ = true;
  options_.defer(0, [this]() { RunGroupSync(); });
}

Status RaftConsensus::SyncLog() {
  if (!options_.unsafe_follower_skips_fsync || role_ == RaftRole::kLeader) {
    MYRAFT_RETURN_NOT_OK(log_->Sync());
  }
  last_synced_index_ = log_->LastOpId().index;
  return Status::OK();
}

void RaftConsensus::RunGroupSync() {
  group_sync_scheduled_ = false;
  if (!started_) return;
  if (last_synced_index_ < log_->LastOpId().index) {
    Status s = SyncLog();
    if (s.ok()) {
      m_.group_syncs->Increment();
    } else {
      MYRAFT_LOG(Error) << options_.self << ": group sync failed: " << s;
      // Leader: the self ack stays withheld, nothing commits on our vote.
      // Follower: fall through — the held ack (if any) reports the stale
      // durable index, which is exactly the truth.
    }
  }
  if (role_ == RaftRole::kLeader) {
    // The leader's own (now durable) ack may complete a quorum.
    last_commit_completer_.clear();
    AdvanceCommitMarker();
    return;
  }
  if (held_ack_.has_value()) {
    // One cumulative ack stands in for every batch that shared the sync.
    const FollowerAck ack = std::move(*held_ack_);
    held_ack_.reset();
    outbox_->Send(FollowerResponse(/*request=*/nullptr, &ack,
                                   /*echo_config=*/true));
  }
}

AppendEntriesResponse RaftConsensus::FollowerResponse(
    const AppendEntriesRequest* request, const FollowerAck* ack,
    bool echo_config) const {
  AppendEntriesResponse response;
  response.from = options_.self;
  response.dest = ack != nullptr ? ack->dest : request->leader;
  response.term = meta_.current_term;
  response.success = ack != nullptr;
  response.last_received = log_->LastOpId();
  if (ack != nullptr && ack->verified_index < response.last_received.index) {
    // Ack only the verified prefix: an unverified divergent suffix above
    // it must not look acked, or the leader would retire undelivered
    // in-flight batches against it and count a bogus match_index towards
    // commit.
    auto verified = log_->OpIdAt(ack->verified_index);
    response.last_received =
        verified.ok() ? *verified : OpId{0, ack->verified_index};
  }
  // Only the fsynced tail counts towards the leader's commit quorum; a
  // received-but-unsynced suffix would be lost in a crash.
  response.last_durable_index = last_synced_index_;
  if (request != nullptr) response.request_prev_index = request->prev.index;
  // Echo the trace context so the ack stitches back to the batch span.
  response.trace_id = ack != nullptr ? ack->trace_id : request->trace_id;
  response.trace_span_id =
      ack != nullptr ? ack->trace_span_id : request->trace_span_id;
  if (ack != nullptr) response.lease_granted_micros = ack->lease_echo;
  if (echo_config) {
    response.config_term = meta_.config.config_term;
    response.config_version = meta_.config.config_version;
  }
  return response;
}

void RaftConsensus::AdvanceFollowerCommit(uint64_t leader_commit_index,
                                          uint64_t verified_index) {
  const uint64_t commit_to = std::min(leader_commit_index, verified_index);
  if (commit_to > commit_marker_.index) {
    auto opid = log_->OpIdAt(commit_to);
    if (opid.ok()) SetCommitMarker(*opid);
  }
}

// --- Replication: receiver side -------------------------------------------------

void RaftConsensus::HandleAppendEntries(const AppendEntriesRequest& request) {
  // Inflate a compressed batch into a local copy of its entries; checksums
  // cover the uncompressed payload, so VerifyChecksum below runs against
  // the restored bytes. A batch that does not inflate is refused before
  // anything else.
  std::vector<LogEntry> inflated;
  if (request.entries_compressed) {
    inflated.reserve(request.entries.size());
    for (const LogEntry& packed : request.entries) {
      LogEntry& entry = inflated.emplace_back();
      entry.id = packed.id;
      entry.type = packed.type;
      entry.checksum = packed.checksum;
      Status decomp = LzDecompress(packed.payload_bytes(), &entry.payload);
      if (!decomp.ok()) {
        MYRAFT_LOG(Error) << options_.self << ": undecompressable batch from "
                          << request.leader << ": " << decomp;
        outbox_->Send(FollowerResponse(&request, /*ack=*/nullptr,
                                       /*echo_config=*/false));
        return;
      }
    }
  }
  const std::vector<LogEntry>& entries =
      request.entries_compressed ? inflated : request.entries;

  // Follower-side receive->synced span, parented under the leader's batch
  // span via the wire context. Covers every return path below.
  SpanGuard append_span{options_.tracer, 0, {}};
  if (options_.tracer != nullptr && !entries.empty()) {
    append_span.id = options_.tracer->BeginSpan(
        "raft", "follower.append", request.trace_id, request.trace_span_id,
        "leader", request.leader, "n", entries.size(), "first",
        entries.front().id.index);
    append_span.end_args = "rejected";
  }

  if (request.term < meta_.current_term) {
    m_.append_rejections->Increment();
    outbox_->Send(FollowerResponse(&request, /*ack=*/nullptr,
                                   /*echo_config=*/false));
    return;
  }

  // A valid leader for this (or a newer) term: follow it.
  if (request.term > meta_.current_term || role_ == RaftRole::kCandidate ||
      role_ == RaftRole::kLeader || leader_ != request.leader) {
    const MemberInfo* leader_info = meta_.config.Find(request.leader);
    StepDown(request.term, request.leader,
             leader_info != nullptr ? leader_info->region : "");
  }
  last_leader_contact_micros_ = clock_->NowMicros();

  // Adopt a newer config carried by the leader BEFORE any log checks —
  // config propagation is deliberately decoupled from log replication, so
  // membership heals even while the log is rewinding or unavailable. Every
  // response from here on echoes the installed identity; that echo drives
  // the leader's install quorum and tells it to stop attaching the config.
  MaybeInstallConfig(request);

  // Log-matching check on the preceding entry.
  if (request.prev.index > 0) {
    const uint64_t last = log_->LastOpId().index;
    if (request.prev.index > last) {
      m_.append_rejections->Increment();
      // Hint: our last opid.
      outbox_->Send(FollowerResponse(&request, /*ack=*/nullptr,
                                     /*echo_config=*/true));
      return;
    }
    auto local_prev = log_->OpIdAt(request.prev.index);
    if (!local_prev.ok() || local_prev->term != request.prev.term) {
      // Conflict below our tail: ask the leader to rewind.
      AppendEntriesResponse response = FollowerResponse(
          &request, /*ack=*/nullptr, /*echo_config=*/true);
      response.last_received =
          OpId{0, request.prev.index > 0 ? request.prev.index - 1 : 0};
      m_.append_rejections->Increment();
      outbox_->Send(std::move(response));
      return;
    }
  }

  // Append new entries, truncating any conflicting suffix first.
  bool appended = false;
  bool append_failed = false;
  for (const LogEntry& entry : entries) {
    auto local = log_->OpIdAt(entry.id.index);
    if (local.ok()) {
      if (local->term == entry.id.term) {
        m_.duplicate_entries_received->Increment();
        continue;
      }
      // Conflict: drop our uncommitted suffix (§3.3 demotion step 4 —
      // GTID cleanup happens inside the log abstraction).
      Status s = log_->TruncateAfter(entry.id.index - 1);
      if (!s.ok()) {
        MYRAFT_LOG(Error) << options_.self << ": truncate failed: " << s;
        outbox_->Send(FollowerResponse(&request, /*ack=*/nullptr,
                                       /*echo_config=*/true));
        return;
      }
      cache_.TruncateAfter(entry.id.index - 1);
      last_synced_index_ = std::min(last_synced_index_, entry.id.index - 1);
      listener_->OnSuffixTruncated(log_->LastOpId());
    }
    if (!entry.VerifyChecksum()) {
      MYRAFT_LOG(Error) << options_.self
                        << ": corrupt entry from leader at "
                        << entry.id.ToString();
      outbox_->Send(FollowerResponse(&request, /*ack=*/nullptr,
                                     /*echo_config=*/true));
      return;
    }
    Status s = AppendToLocalLog(entry);
    if (!s.ok()) {
      MYRAFT_LOG(Error) << options_.self << ": append failed: " << s;
      append_failed = true;
      break;
    }
    appended = true;
  }
  // The commit marker may only advance over the prefix this request
  // verified: prev for an empty request, the batch tail otherwise. Our own
  // log tail is NOT safe — a rewinding leader's heartbeat can anchor prev
  // at the match point while we still carry a divergent unverified suffix
  // above it (e.g. a rejoined deposed leader), and committing that suffix
  // diverges the replica. The ack reports that prefix too.
  const uint64_t verified_index =
      entries.empty() ? request.prev.index : entries.back().id.index;
  // The lease echo proves to the leader how fresh this ack is (ReadIndex)
  // and, when it requested one, grants a lease (§13). The grant promise
  // (not electing a rival before it expires) is kept by our own election
  // timer, which last_leader_contact_micros_ just re-armed.
  FollowerAck ack{request.leader, verified_index, request.trace_id,
                  request.trace_span_id,
                  IsVoterSelf() ? request.lease_sent_micros : 0};

  // Sync whenever the durable tail trails the log — this also covers
  // heartbeats/retries arriving after a batch whose sync never completed,
  // so a received-but-unsynced suffix eventually becomes durable.
  if (appended || last_synced_index_ < log_->LastOpId().index) {
    if (!append_failed) {
      // Coalesced follower sync: hold this ack and let one deferred fsync
      // cover every batch that arrives this instant; RunGroupSync sends a
      // single cumulative response in place of the per-batch ones. The
      // leader hears a durable index that genuinely covers the sync, so
      // the quorum rule is untouched — followers just fsync (and ack)
      // once per burst.
      AdvanceFollowerCommit(request.commit_marker.index, verified_index);
      if (held_ack_.has_value()) {
        // The highest verified prefix and the freshest echo win.
        ack.verified_index =
            std::max(ack.verified_index, held_ack_->verified_index);
        ack.lease_echo = std::max(ack.lease_echo, held_ack_->lease_echo);
      }
      held_ack_ = std::move(ack);
      ScheduleGroupSync();
      if (append_span.id != 0) {
        append_span.end_args = "ok held-for-group-sync";
        trace::AppendArgs(&append_span.end_args, "last",
                          log_->LastOpId().index);
      }
      return;
    }
    // The rejection below goes out at once, so sync the partial prefix
    // now: it then reports that prefix durable.
    Status s = SyncLog();
    if (!s.ok()) {
      MYRAFT_LOG(Error) << options_.self << ": log sync failed: " << s;
    }
  }

  if (append_failed) {
    // A mid-batch append failure must NOT ack the whole batch: report our
    // real (possibly partially-extended) tail as a failure so the leader
    // rewinds next_index there and retries the remainder.
    m_.append_rejections->Increment();
    outbox_->Send(FollowerResponse(&request, /*ack=*/nullptr,
                                   /*echo_config=*/true));
    return;
  }

  AppendEntriesResponse response =
      FollowerResponse(&request, &ack, /*echo_config=*/true);
  if (append_span.id != 0) {
    append_span.end_args = "ok";
    trace::AppendArgs(&append_span.end_args, "last",
                      response.last_received.index, "durable",
                      response.last_durable_index);
  }
  // Advance our commit marker to what the leader has committed (§3.4:
  // piggybacked commit marker).
  AdvanceFollowerCommit(request.commit_marker.index, verified_index);
  outbox_->Send(std::move(response));
}

}  // namespace myraft::raft

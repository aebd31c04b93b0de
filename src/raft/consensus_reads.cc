#include "raft/consensus.h"

#include <algorithm>

namespace myraft::raft {

// --- Leader leases & linearizable reads (§13) ------------------------------------

uint64_t RaftConsensus::LeaseDurationMicros() const {
  // Safety clamp: the grant must expire while the granting follower's own
  // election timer (plus stickiness against pre-votes) still shields this
  // leader — no rival can be elected inside that window, so a valid lease
  // proves no newer committed writes exist anywhere. The margin absorbs
  // follower clocks running fast.
  const uint64_t timeout = ElectionTimeoutMicros();
  const uint64_t cap = timeout > kLeaseDriftMarginMicros
                           ? timeout - kLeaseDriftMarginMicros
                           : 0;
  return std::min(kLeaseDurationMicros, cap);
}

void RaftConsensus::StampLease(AppendEntriesRequest* request) {
  // Leases off: no grant requested (0), so followers echo nothing and
  // reads use the commit-barrier fallback (§13.2).
  if (role_ != RaftRole::kLeader || !options_.enable_leader_leases) return;
  request->lease_sent_micros = clock_->NowMicros();
}

void RaftConsensus::RecordLeaseGrant(const AppendEntriesResponse& response,
                                     PeerStatus* peer) {
  if (!options_.enable_leader_leases || response.lease_granted_micros == 0) {
    return;
  }
  if (response.term != meta_.current_term) return;
  // Expiry arithmetic entirely on our own clock: the follower echoed OUR
  // send timestamp, the duration counts from it, and the drift margin
  // fences off follower clocks running up to margin/duration fast.
  const uint64_t expiry = response.lease_granted_micros + LeaseDurationMicros();
  const uint64_t fenced =
      expiry > kLeaseDriftMarginMicros ? expiry - kLeaseDriftMarginMicros : 0;
  if (fenced > peer->lease_expiry_micros) {
    peer->lease_expiry_micros = fenced;
    m_.lease_renewals->Increment();
  }
}

void RaftConsensus::RevokeLease() {
  for (auto& [peer_id, peer] : peers_) peer.lease_expiry_micros = 0;
}

bool RaftConsensus::HasValidLease() const {
  if (!options_.enable_leader_leases || role_ != RaftRole::kLeader) {
    return false;
  }
  const uint64_t now = clock_->NowMicros();
  // Deferred handoff: a fresh leader first waits out every grant the
  // deposed leader could still hold.
  if (now < lease_serve_after_micros_) return false;
  // A lease read linearizes at the commit marker, so the marker must be
  // from our own term (the leadership no-op committed) — older markers
  // may trail entries the previous leader committed.
  if (commit_marker_.term != meta_.current_term) return false;
  std::set<MemberId> holders{options_.self};
  for (const auto& [peer_id, peer] : peers_) {
    if (peer.lease_expiry_micros > now) holders.insert(peer_id);
  }
  return quorum_->IsCommitQuorumSatisfied(MakeQuorumContext(options_.self),
                                          holders);
}

void RaftConsensus::LinearizableRead(ReadCallback done) {
  ReadResult result;
  if (role_ != RaftRole::kLeader) {
    result.status = Status::IllegalState("not the leader");
    done(result);
    return;
  }
  if (commit_marker_.term != meta_.current_term) {
    result.status =
        Status::ServiceUnavailable("leadership not yet established");
    done(result);
    return;
  }
  if (HasValidLease()) {
    m_.reads_lease->Increment();
    result.status = Status::OK();
    result.read_index = commit_marker_;
    result.served_by_lease = true;
    done(result);
    return;
  }
  PendingQuorumRead read;
  read.read_marker = commit_marker_;
  read.registered_micros = clock_->NowMicros();
  read.done = std::move(done);

  if (!options_.enable_leader_leases) {
    // Commit-barrier fallback: with leases off no grant is requested, so
    // acks carry no timestamp echo and leadership is confirmed the
    // strongest way possible — replicate a no-op and serve when it
    // commits. A committed current-term entry proves no rival quorum
    // existed through the registration: any later election quorum
    // intersects the barrier's commit quorum, and a voter that had already
    // moved to a higher term cannot have acked it. Reads registered while
    // a barrier is in flight share it.
    if (read_barrier_index_ <= commit_marker_.index) {
      auto noop = Replicate(EntryType::kNoOp, "");
      if (!noop.ok()) {
        result.status = noop.status();
        read.done(result);
        return;
      }
      read_barrier_index_ = noop->index;
    }
    read.barrier_index = read_barrier_index_;
    pending_reads_.push_back(std::move(read));
    // Single-voter rings commit inside Replicate, before the read could
    // register; catch up immediately instead of waiting for an ack.
    CompleteBarrierReads();
    return;
  }

  // ReadIndex echo round (leases on, so every follower echoes our send
  // timestamp): capture the commit marker as the read point, then confirm
  // we are still the quorum's leader with one round of acks that were
  // sent AFTER this registration — a deposed leader's stale marker can
  // never gather fresh current-term acks.
  read.confirmed.insert(options_.self);
  pending_reads_.push_back(std::move(read));
  if (quorum_->IsCommitQuorumSatisfied(MakeQuorumContext(options_.self),
                                       pending_reads_.back().confirmed)) {
    // Single-voter data quorum.
    ConfirmQuorumReads(options_.self, clock_->NowMicros());
    return;
  }
  for (const auto& [peer_id, peer] : peers_) {
    SendAppendEntriesTo(peer_id, /*allow_empty=*/true);
  }
}

void RaftConsensus::ConfirmQuorumReads(const MemberId& from,
                                       uint64_t acked_sent_micros) {
  if (pending_reads_.empty()) return;
  for (auto& read : pending_reads_) {
    // Only an ack to an AppendEntries we sent at-or-after registration
    // proves we were still the quorum's leader at the read point; an ack
    // already in flight when the read arrived proves nothing.
    if (acked_sent_micros >= read.registered_micros) {
      read.confirmed.insert(from);
    }
  }
  // Barrier reads (barrier_index != 0) complete on commit-marker advance,
  // not on ack counts — skip them here.
  while (!pending_reads_.empty() && pending_reads_.front().barrier_index == 0 &&
         quorum_->IsCommitQuorumSatisfied(MakeQuorumContext(options_.self),
                                          pending_reads_.front().confirmed)) {
    FireOldestRead(Status::OK(), m_.reads_quorum);
  }
}

void RaftConsensus::CompleteBarrierReads() {
  while (!pending_reads_.empty() &&
         pending_reads_.front().barrier_index != 0 &&
         pending_reads_.front().barrier_index <= commit_marker_.index) {
    FireOldestRead(Status::OK(), m_.reads_quorum);
  }
}

uint64_t RaftConsensus::ReadDeadlineMicros() const {
  // One RPC timeout plus an election timeout: long enough for any healthy
  // confirmation round (echo acks or a barrier commit) to land, short
  // enough that a quorum-severed leader sheds callbacks at the same scale
  // its clients give up.
  return options_.rpc_timeout_micros + ElectionTimeoutMicros();
}

void RaftConsensus::FireOldestRead(const Status& status,
                                   metrics::Counter* counter) {
  // Pop before firing: a callback may re-enter LinearizableRead.
  PendingQuorumRead read = std::move(pending_reads_.front());
  pending_reads_.pop_front();
  if (counter != nullptr) counter->Increment();
  ReadResult result;
  result.status = status;
  if (status.ok()) result.read_index = read.read_marker;
  read.done(result);
}

}  // namespace myraft::raft

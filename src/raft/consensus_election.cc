#include "raft/consensus.h"

#include "raft/consensus_internal.h"
#include "util/logging.h"

namespace myraft::raft {

void RaftConsensus::PotentialLeaderEvidence(const MemberId& candidate,
                                            uint64_t* term,
                                            RegionId* region) const {
  *term = meta_.last_leader_term;
  *region = meta_.last_leader_region;
  // Voting history (§4.1): a binding vote for X at term T implies a
  // possible term-T leader in X's region. Votes for `candidate` itself
  // carry no such implication for its own election.
  if (!meta_.last_voted_for.empty() && meta_.last_voted_for != candidate &&
      meta_.last_vote_term > *term) {
    *term = meta_.last_vote_term;
    *region = meta_.last_voted_region;
  }
}

// --- Elections ---------------------------------------------------------------

Status RaftConsensus::StartElection(ElectionMode mode) {
  // A manual election (tooling, TimeoutNow) preempts any stalled round.
  if (election_.has_value()) {
    AbortElection(Status::Aborted("preempted by manual election"));
  }
  return BeginElection(mode, /*report_to=*/"", /*cursor=*/kZeroOpId);
}

Status RaftConsensus::BeginElection(ElectionMode mode,
                                    const MemberId& report_to, OpId cursor) {
  if (!started_) return Status::IllegalState("not started");
  if (!IsVoterSelf()) return Status::IllegalState("not a voter");
  if (role_ == RaftRole::kLeader) {
    return Status::IllegalState("already leader");
  }
  if (election_.has_value()) {
    return Status::IllegalState("election already in progress");
  }

  ElectionState election;
  election.mode = mode;
  election.started_micros = clock_->NowMicros();
  election.report_to = report_to;
  election.cursor_snapshot = cursor;
  PotentialLeaderEvidence(options_.self, &election.known_leader_term,
                          &election.known_leader_region);
  if (election.known_leader_term > 0 && !election.known_leader_region.empty()) {
    election.evidence_regions.insert(election.known_leader_region);
  }

  switch (mode) {
    case ElectionMode::kRealElection: {
      m_.elections_started->Increment();
      meta_.current_term += 1;
      meta_.voted_for = options_.self;
      meta_.last_vote_term = meta_.current_term;
      meta_.last_voted_for = options_.self;
      meta_.last_voted_region = options_.region;
      MYRAFT_RETURN_NOT_OK(PersistMeta());
      role_ = RaftRole::kCandidate;
      leader_.clear();
      election.election_term = meta_.current_term;
      if (options_.tracer != nullptr) {
        options_.tracer->Instant("raft", "election_started", 0,
                                 "term", election.election_term);
        election.trace_span_id = options_.tracer->BeginSpan(
            "raft", "election", 0, 0, "term", election.election_term);
      }
      break;
    }
    case ElectionMode::kPreVote: {
      m_.pre_votes_started->Increment();
      election.election_term = meta_.current_term + 1;
      if (options_.tracer != nullptr) {
        options_.tracer->Instant("raft", "pre_vote_started", 0,
                                 "term", election.election_term);
      }
      break;
    }
    case ElectionMode::kMockElection: {
      m_.mock_elections_started->Increment();
      election.election_term = meta_.current_term + 1;
      if (options_.tracer != nullptr) {
        options_.tracer->Instant("raft", "mock_election_started", 0,
                                 "term", election.election_term);
      }
      break;
    }
  }
  election.granted.insert(options_.self);
  election.responded.insert(options_.self);
  election_ = std::move(election);

  // Single-voter rings win immediately.
  if (ElectionQuorumSatisfied(election_->granted)) {
    WinElection();
    return Status::OK();
  }
  RequestVotes();
  return Status::OK();
}

void RaftConsensus::RequestVotes() {
  for (const MemberId& voter : meta_.config.VoterIds()) {
    if (voter == options_.self) continue;
    VoteRequest request;
    request.candidate = options_.self;
    request.dest = voter;
    request.term = election_->election_term;
    request.last_log = log_->LastOpId();
    request.candidate_region = options_.region;
    request.pre_vote = election_->mode == ElectionMode::kPreVote;
    request.mock_election = election_->mode == ElectionMode::kMockElection;
    request.leader_cursor_snapshot = election_->cursor_snapshot;
    request.config_term = meta_.config.config_term;
    request.config_version = meta_.config.config_version;
    outbox_->Send(std::move(request));
  }
}

bool RaftConsensus::ElectionQuorumSatisfied(
    const std::set<MemberId>& granted) const {
  if (election_votes_override_.has_value()) {
    return static_cast<int>(granted.size()) >= *election_votes_override_;
  }
  QuorumContext context = MakeQuorumContext(options_.self);
  if (election_.has_value()) {
    // Use the freshest last-leader view aggregated across voters, not
    // just our own (possibly starved) one — the committed tail lives in
    // THAT leader's region. Handing over the response set and the full
    // evidence union lets the engine refuse to trust that view until the
    // responses cover a majority of every region (election safety: two
    // candidates aggregating over disjoint respondent sets must not win
    // the same term with disjoint quorums).
    context.last_leader_region = election_->known_leader_region;
    context.responded = &election_->responded;
    context.evidence_regions = &election_->evidence_regions;
  }
  return quorum_->IsElectionQuorumSatisfied(context, granted);
}

void RaftConsensus::HandleVoteRequest(const VoteRequest& request) {
  VoteResponse response = EvaluateVote(request);
  outbox_->Send(std::move(response));
}

VoteResponse RaftConsensus::EvaluateVote(const VoteRequest& request) {
  VoteResponse response;
  response.from = options_.self;
  response.dest = request.candidate;
  response.pre_vote = request.pre_vote;
  response.mock_election = request.mock_election;
  response.voter_region = options_.region;
  response.granted = false;
  PotentialLeaderEvidence(request.candidate, &response.last_leader_term,
                          &response.last_leader_region);

  const bool binding = !request.pre_vote && !request.mock_election;

  // A real vote request at a higher term dethrones us first — this is one
  // of the ways an erstwhile, fenced-off leader learns to demote (§2.2).
  if (binding && request.term > meta_.current_term) {
    StepDown(request.term, "", "");
  }
  response.term = meta_.current_term;

  if (!IsVoterSelf()) {
    response.reason = "not-a-voter";
    return response;
  }
  if (request.term < meta_.current_term) {
    response.reason = "stale-term";
    return response;
  }
  // A member we know to have been removed (or demoted to learner) cannot
  // take leadership; it may still believe it is a voter if it never
  // installed the config that changed it.
  const MemberInfo* candidate_info = meta_.config.Find(request.candidate);
  if (candidate_info == nullptr || !candidate_info->is_voter()) {
    response.reason = "candidate-not-a-voter";
    return response;
  }
  // Deny candidates campaigning on a superseded config. A leader elected
  // on an old member set could assemble quorums disjoint from the new
  // config's — the config analogue of the stale-log check.
  if (meta_.config.config_term > request.config_term ||
      (meta_.config.config_term == request.config_term &&
       meta_.config.config_version > request.config_version)) {
    response.reason = "stale-config";
    return response;
  }

  // Startup lease embargo (§13.6): a restart may have erased the memory
  // of a lease grant echoed just before the crash, so this voter must
  // act as if one is outstanding — no pre-votes and no binding votes
  // until the longest grant it could have made has expired. Mock
  // elections stay unaffected: they are leader-initiated dry runs and
  // never depose anyone.
  if ((binding || request.pre_vote) &&
      clock_->NowMicros() < vote_embargo_until_micros_) {
    response.reason = "startup-lease-embargo";
    return response;
  }

  const OpId my_last = log_->LastOpId();

  if (request.mock_election) {
    // §4.3: the leader's cursor snapshot "mimics the act of quiescing the
    // leader" — the candidate will be caught up to the log tail before
    // TimeoutNow, so the live stale-log check does not apply. What must
    // hold is that the candidate's region can function as the new data
    // quorum: reject when this voter is lagging in the same region as the
    // candidate.
    if (request.candidate_region == options_.region &&
        request.leader_cursor_snapshot.index >
            my_last.index + kMockElectionLagAllowance) {
      response.reason = "lagging-same-region";
      return response;
    }
    response.granted = true;
    return response;
  }

  // Log up-to-dateness (longest log wins, §2.2 Failover).
  if (my_last.IsLaterThan(request.last_log)) {
    response.reason = "stale-log";
    return response;
  }

  if (request.pre_vote) {
    // Leader stickiness: ignore disruptive pre-votes while our leader is
    // healthy.
    if (!leader_.empty() &&
        clock_->NowMicros() - last_leader_contact_micros_ <
            ElectionTimeoutMicros()) {
      response.reason = "leader-alive";
      return response;
    }
    response.granted = true;
    return response;
  }

  // Binding vote.
  if (!meta_.voted_for.empty() && meta_.voted_for != request.candidate) {
    response.reason = "already-voted";
    return response;
  }
  meta_.voted_for = request.candidate;
  if (request.term >= meta_.last_vote_term) {
    meta_.last_vote_term = request.term;
    meta_.last_voted_for = request.candidate;
    meta_.last_voted_region = request.candidate_region;
  }
  Status s = PersistMeta();
  if (!s.ok()) {
    MYRAFT_LOG(Error) << options_.self << ": vote persist failed: " << s;
    response.reason = "persist-failed";
    return response;
  }
  last_leader_contact_micros_ = clock_->NowMicros();  // reset timer on grant
  response.granted = true;
  return response;
}

void RaftConsensus::HandleVoteResponse(const VoteResponse& response) {
  // Leader receiving the aggregated mock-election outcome from a transfer
  // target (§4.3).
  if (role_ == RaftRole::kLeader && response.mock_election &&
      response.reason == kMockOutcomeReason) {
    if (!transfer_.has_value() || response.from != transfer_->target ||
        transfer_->phase != TransferState::Phase::kMockElection) {
      return;  // stale outcome
    }
    if (!response.granted) {
      FailTransfer(Status::Aborted("mock election lost"));
      return;
    }
    // Quiesce writes and wait for the target to be fully caught up; the
    // TimeoutNow fires from HandleAppendEntriesResponse.
    transfer_->phase = TransferState::Phase::kQuiesced;
    transfer_->deadline_micros = clock_->NowMicros() + kTransferTimeoutMicros;
    TimeoutNowOrCatchUp(transfer_->target);
    return;
  }

  if (response.term > meta_.current_term) {
    StepDown(response.term, "", "");
    return;
  }
  if (!election_.has_value()) return;
  // Responses must match the election mode in flight.
  const bool mode_matches =
      (election_->mode == ElectionMode::kPreVote && response.pre_vote) ||
      (election_->mode == ElectionMode::kMockElection &&
       response.mock_election) ||
      (election_->mode == ElectionMode::kRealElection && !response.pre_vote &&
       !response.mock_election);
  if (!mode_matches) return;

  election_->responded.insert(response.from);
  if (response.granted) election_->granted.insert(response.from);
  // Aggregate the voter's last-known-leader view (denials count too).
  if (response.last_leader_term > election_->known_leader_term) {
    election_->known_leader_term = response.last_leader_term;
    election_->known_leader_region = response.last_leader_region;
  }
  if (response.last_leader_term > 0 && !response.last_leader_region.empty()) {
    election_->evidence_regions.insert(response.last_leader_region);
  }

  if (ElectionQuorumSatisfied(election_->granted)) {
    WinElection();
    return;
  }

  // Fail fast when no quorum is reachable any more.
  bool doomed;
  if (election_votes_override_.has_value()) {
    const int outstanding = meta_.config.NumVoters() -
                            static_cast<int>(election_->responded.size());
    doomed = static_cast<int>(election_->granted.size()) + outstanding <
             *election_votes_override_;
  } else {
    doomed = quorum_->IsElectionDoomed(MakeQuorumContext(options_.self),
                                       election_->granted,
                                       election_->responded);
  }
  if (doomed) {
    AbortElection(Status::Aborted("election quorum unreachable"));
  }
}

void RaftConsensus::WinElection() {
  MYRAFT_CHECK(election_.has_value());
  const ElectionMode mode = election_->mode;
  const MemberId report_to = election_->report_to;
  if (options_.tracer != nullptr && election_->trace_span_id != 0) {
    options_.tracer->EndSpan(election_->trace_span_id, "won");
  }
  election_.reset();

  switch (mode) {
    case ElectionMode::kPreVote: {
      Status s = StartElection(ElectionMode::kRealElection);
      if (!s.ok()) {
        MYRAFT_LOG(Warning) << options_.self
                            << ": real election after pre-vote failed: " << s;
      }
      break;
    }
    case ElectionMode::kMockElection: {
      if (!report_to.empty()) ReportMockOutcome(report_to, true);
      break;
    }
    case ElectionMode::kRealElection:
      BecomeLeader();
      break;
  }
}

void RaftConsensus::AbortElection(const Status& reason) {
  if (!election_.has_value()) return;
  MYRAFT_LOG(Info) << options_.self << ": election aborted: " << reason;
  const ElectionMode mode = election_->mode;
  const MemberId report_to = election_->report_to;
  if (options_.tracer != nullptr && election_->trace_span_id != 0) {
    options_.tracer->EndSpan(election_->trace_span_id, "aborted");
  }
  election_.reset();
  if (mode == ElectionMode::kMockElection && !report_to.empty()) {
    ReportMockOutcome(report_to, false);
  }
  if (role_ == RaftRole::kCandidate) {
    role_ = RaftRole::kFollower;
  }
  ResetElectionTimer();
}

void RaftConsensus::ReportMockOutcome(const MemberId& report_to,
                                      bool success) {
  // The aggregated outcome travels back to the initiating leader as a
  // flagged VoteResponse.
  VoteResponse outcome;
  outcome.from = options_.self;
  outcome.dest = report_to;
  outcome.term = meta_.current_term;
  outcome.granted = success;
  outcome.mock_election = true;
  outcome.reason = kMockOutcomeReason;
  outcome.voter_region = options_.region;
  outbox_->Send(std::move(outcome));
}

void RaftConsensus::BecomeLeader() {
  m_.elections_won->Increment();
  if (options_.tracer != nullptr) {
    options_.tracer->Instant("raft", "election_won", 0,
                             "term", meta_.current_term);
  }
  role_ = RaftRole::kLeader;
  leader_ = options_.self;
  // Any ack held for a coalesced follower sync is moot now that this node
  // leads; the self-ack path covers its durability.
  held_ack_.reset();
  read_barrier_index_ = 0;
  if (options_.enable_leader_leases) {
    // Deferred lease handoff (§13): refuse lease reads until every grant
    // the deposed leader could still hold has provably expired. It
    // measured durations from ITS send timestamps, all at most "now", so
    // now + duration + margin outlasts them on any in-margin clock.
    lease_serve_after_micros_ =
        clock_->NowMicros() + kLeaseDurationMicros + kLeaseDriftMarginMicros;
  }
  meta_.last_known_leader = options_.self;
  meta_.last_leader_region = options_.region;
  meta_.last_leader_term = meta_.current_term;
  // Schultz et al.: a new leader rebases the config identity onto its own
  // term, persisted with the leadership record. The term dominates the
  // (term, version) ordering, so any uncommitted config a deposed leader
  // is still propagating is superseded everywhere our heartbeats reach,
  // and the rebased config re-commits through a fresh install quorum.
  const bool rebased = meta_.config.config_term != meta_.current_term;
  if (rebased) {
    meta_.config.config_term = meta_.current_term;
    config_payload_.clear();
  }
  Status s = PersistMeta();
  if (!s.ok()) MYRAFT_LOG(Error) << "persist on becoming leader: " << s;

  RefreshPeers();
  transfer_.reset();
  if (rebased) {
    listener_->OnMembershipChanged(meta_.config);
    MaybeCommitConfig();  // single-voter rings commit immediately
  }

  // §3.3 promotion step 1: assert leadership with a no-op and
  // consensus-commit the tail of the log.
  auto noop = Replicate(EntryType::kNoOp, "");
  OpId noop_opid = noop.ok() ? *noop : kZeroOpId;
  if (!noop.ok()) {
    MYRAFT_LOG(Error) << options_.self
                      << ": no-op append failed: " << noop.status();
  }
  MYRAFT_LOG(Info) << options_.self << ": became leader of term "
                   << meta_.current_term;
  listener_->OnLeadershipAcquired(meta_.current_term, noop_opid);
}

void RaftConsensus::StepDown(uint64_t new_term, const MemberId& new_leader,
                             const RegionId& leader_region) {
  const bool was_leader = role_ == RaftRole::kLeader;
  const uint64_t old_term = meta_.current_term;

  bool dirty = false;
  if (new_term > meta_.current_term) {
    meta_.current_term = new_term;
    meta_.voted_for.clear();
    dirty = true;
  }
  if (!new_leader.empty() && new_term >= meta_.last_leader_term &&
      (meta_.last_known_leader != new_leader ||
       meta_.last_leader_term != new_term)) {
    meta_.last_known_leader = new_leader;
    meta_.last_leader_region = leader_region;
    meta_.last_leader_term = new_term;
    dirty = true;
  }
  if (dirty) {
    Status s = PersistMeta();
    if (!s.ok()) MYRAFT_LOG(Error) << "persist on step down: " << s;
  }

  leader_ = new_leader;
  const MemberInfo* self = SelfInfo();
  role_ = (self != nullptr && self->is_learner()) ? RaftRole::kLearner
                                                  : RaftRole::kFollower;
  if (options_.tracer != nullptr && election_.has_value() &&
      election_->trace_span_id != 0) {
    options_.tracer->EndSpan(election_->trace_span_id, "stepped_down");
  }
  election_.reset();
  transfer_.reset();
  // Close any open batch spans before dropping the leader-side windows.
  for (auto& [peer_id, peer] : peers_) CancelInflight(&peer);
  peers_.clear();
  replicate_time_micros_.clear();
  replicate_trace_ctx_.clear();
  // A held coalesced ack addressed to a dethroned leader is dropped; the
  // new leader's first append re-elicits one (any scheduled group sync
  // itself still runs — durability work is never discarded).
  held_ack_.reset();
  // Deposed leaseholder fencing (§13): the lease died with the peer
  // state above; reads parked on a quorum round can never confirm now.
  lease_serve_after_micros_ = 0;
  read_barrier_index_ = 0;
  // No longer leader, so a callback that re-enters LinearizableRead is
  // refused and registers nothing.
  while (!pending_reads_.empty()) {
    FireOldestRead(Status::Aborted("leadership lost"), nullptr);
  }
  ResetElectionTimer();

  if (was_leader) {
    m_.step_downs->Increment();
    if (options_.tracer != nullptr) {
      options_.tracer->Instant("raft", "step_down", 0, "old_term", old_term,
                               "new_term", meta_.current_term);
    }
    MYRAFT_LOG(Info) << options_.self << ": stepping down from term "
                     << old_term;
    listener_->OnLeadershipLost(old_term);
  }
}

// --- Leadership transfer ---------------------------------------------------------

Status RaftConsensus::TransferLeadership(const MemberId& target) {
  if (role_ != RaftRole::kLeader) return Status::IllegalState("not leader");
  if (target == options_.self) {
    return Status::InvalidArgument("cannot transfer to self");
  }
  const MemberInfo* info = meta_.config.Find(target);
  if (info == nullptr || !info->is_voter()) {
    return Status::InvalidArgument("target is not a voter: " + target);
  }
  if (transfer_.has_value()) {
    return Status::IllegalState("transfer already in progress");
  }

  TransferState transfer;
  transfer.target = target;
  transfer.deadline_micros = clock_->NowMicros() + kTransferTimeoutMicros;

  if (options_.enable_mock_election) {
    // §4.3: capture a cursor snapshot and ask the target to run a mock
    // round first, so clients see no downtime if it cannot win.
    transfer.phase = TransferState::Phase::kMockElection;
    transfer_ = transfer;
    StartElectionRequest request;
    request.from = options_.self;
    request.dest = target;
    request.term = meta_.current_term;
    request.mock = true;
    request.leader_cursor_snapshot = log_->LastOpId();
    outbox_->Send(std::move(request));
  } else {
    transfer.phase = TransferState::Phase::kQuiesced;
    transfer_ = transfer;
    TimeoutNowOrCatchUp(target);
  }
  return Status::OK();
}

void RaftConsensus::SendTimeoutNow(const MemberId& target) {
  RevokeLease();
  StartElectionRequest go;
  go.from = options_.self;
  go.dest = target;
  go.term = meta_.current_term;
  outbox_->Send(std::move(go));
}

void RaftConsensus::TimeoutNowOrCatchUp(const MemberId& target) {
  auto it = peers_.find(target);
  if (it != peers_.end() && it->second.match_index == log_->LastOpId().index) {
    SendTimeoutNow(target);
  } else {
    SendAppendEntriesTo(target, /*allow_empty=*/true);
  }
}

void RaftConsensus::FailTransfer(const Status& reason) {
  if (!transfer_.has_value()) return;
  const MemberId target = transfer_->target;
  transfer_.reset();
  MYRAFT_LOG(Warning) << options_.self << ": transfer to " << target
                      << " failed: " << reason;
  listener_->OnLeadershipTransferFailed(target, reason);
}

void RaftConsensus::HandleStartElection(const StartElectionRequest& request) {
  if (request.term < meta_.current_term) return;
  if (!IsVoterSelf()) return;
  if (role_ == RaftRole::kLeader) return;

  if (request.mock) {
    if (election_.has_value()) return;
    Status s = BeginElection(ElectionMode::kMockElection, request.from,
                             request.leader_cursor_snapshot);
    if (!s.ok()) {
      MYRAFT_LOG(Warning) << options_.self << ": mock election: " << s;
    }
    return;
  }

  // TimeoutNow: campaign immediately, skipping pre-vote.
  election_.reset();
  Status s = StartElection(ElectionMode::kRealElection);
  if (!s.ok()) {
    MYRAFT_LOG(Warning) << options_.self << ": TimeoutNow election: " << s;
  }
}

}  // namespace myraft::raft

#include "raft/consensus.h"

#include <algorithm>

#include "raft/consensus_internal.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace myraft::raft {

RaftConsensus::RaftConsensus(RaftOptions options, LogAbstraction* log,
                             const QuorumEngine* quorum,
                             ConsensusMetadataStore* meta_store, Clock* clock,
                             Random* rng, RaftOutbox* outbox,
                             StateMachineListener* listener)
    : options_(std::move(options)),
      log_(log),
      quorum_(quorum),
      meta_store_(meta_store),
      clock_(clock),
      rng_(rng),
      outbox_(outbox),
      listener_(listener),
      owned_metrics_(options_.metrics == nullptr
                         ? std::make_unique<metrics::MetricRegistry>()
                         : nullptr),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : owned_metrics_.get()),
      cache_(options_.log_cache_capacity_bytes, metrics_) {
  m_.elections_started = metrics_->GetCounter("raft.elections_started");
  m_.elections_won = metrics_->GetCounter("raft.elections_won");
  m_.pre_votes_started = metrics_->GetCounter("raft.pre_votes_started");
  m_.mock_elections_started =
      metrics_->GetCounter("raft.mock_elections_started");
  m_.heartbeats_sent = metrics_->GetCounter("raft.heartbeats_sent");
  m_.entries_replicated = metrics_->GetCounter("raft.entries_replicated");
  m_.append_rejections = metrics_->GetCounter("raft.append_rejections");
  m_.duplicate_entries_received =
      metrics_->GetCounter("raft.duplicate_entries_received");
  m_.cache_fallback_reads =
      metrics_->GetCounter("raft.cache_fallback_reads");
  m_.step_downs = metrics_->GetCounter("raft.step_downs");
  m_.pipeline_stalls = metrics_->GetCounter("raft.pipeline_stalls");
  m_.stale_responses_ignored =
      metrics_->GetCounter("raft.stale_responses_ignored");
  m_.window_rewinds = metrics_->GetCounter("raft.window_rewinds");
  m_.wire_batches_compressed =
      metrics_->GetCounter("raft.wire_batches_compressed");
  m_.group_syncs = metrics_->GetCounter("raft.group_syncs");
  m_.group_sync_coalesced =
      metrics_->GetCounter("raft.group_sync_coalesced");
  m_.marker_only_heartbeats =
      metrics_->GetCounter("raft.marker_only_heartbeats");
  m_.lease_renewals = metrics_->GetCounter("raft.lease_renewals");
  m_.reads_lease = metrics_->GetCounter("raft.reads_lease");
  m_.reads_quorum = metrics_->GetCounter("raft.reads_quorum");
  m_.reads_timed_out = metrics_->GetCounter("raft.reads_timed_out");
  m_.inflight_window_batches =
      metrics_->GetHistogram("raft.inflight_window_batches");
  m_.peer_rtt_us = metrics_->GetHistogram("raft.peer_rtt_us");
  m_.stall_duration_us = metrics_->GetHistogram("raft.stall_duration_us");
  m_.commit_advance_latency_us =
      metrics_->GetHistogram("raft.commit_advance_latency_us");
}

Status RaftConsensus::Bootstrap(const MembershipConfig& config) {
  if (started_) return Status::IllegalState("already started");
  if (!config.Contains(options_.self)) {
    return Status::InvalidArgument("bootstrap config does not include self");
  }
  meta_ = ConsensusMetadata{};
  meta_.config = config;
  if (meta_.config.config_term == 0 && meta_.config.config_version == 0) {
    // Seed the config identity so (0,0) stays reserved for "no config
    // reported" on the wire.
    meta_.config.config_version = 1;
  }
  meta_.committed_config = meta_.config;  // a bootstrap config is committed
  MYRAFT_RETURN_NOT_OK(meta_store_->Save(meta_));
  return Start();
}

Status RaftConsensus::Start() {
  if (started_) return Status::IllegalState("already started");
  if (!options_.defer) {
    return Status::InvalidArgument(
        "RaftOptions::defer is required: it drives the group-commit sync "
        "stage (DESIGN.md §12.1)");
  }
  MYRAFT_ASSIGN_OR_RETURN(meta_, meta_store_->Load());
  if (meta_.config.members.empty()) {
    return Status::Uninitialized("no membership config; bootstrap first");
  }
  // The current term can never trail the log (relevant when Raft is
  // enabled over a pre-existing binlog, §5.2: the semi-sync generation
  // numbers become Raft terms).
  if (log_->LastOpId().term > meta_.current_term) {
    meta_.current_term = log_->LastOpId().term;
    meta_.voted_for.clear();
    MYRAFT_RETURN_NOT_OK(meta_store_->Save(meta_));
  }
  const MemberInfo* self = SelfInfo();
  if (self == nullptr) {
    return Status::IllegalState("self not in recovered config");
  }
  role_ = self->is_learner() ? RaftRole::kLearner : RaftRole::kFollower;
  commit_marker_ = kZeroOpId;
  // Everything recovered from the on-disk log is durable by definition.
  last_synced_index_ = log_->LastOpId().index;
  // Startup lease embargo (§13.6): a voter may have echoed a lease grant
  // moments before a crash, and nothing about that promise survives in
  // memory — leader identity and last-contact are volatile, and binding
  // votes have no stickiness at all. Until every grant this node could
  // possibly have made has provably expired, refuse to help elect a
  // rival: the deposed leaseholder may still be serving local reads
  // against an unexpired commit quorum of grants. A first boot (term 0,
  // empty log) can never have granted anything — an echo requires leader
  // contact, which persists a term bump before the echo is sent.
  if (options_.enable_leader_leases &&
      (meta_.current_term > 0 || log_->LastOpId().index > 0)) {
    vote_embargo_until_micros_ =
        clock_->NowMicros() + kLeaseDurationMicros + kLeaseDriftMarginMicros;
  }
  ResetElectionTimer();
  started_ = true;
  return Status::OK();
}

const MemberInfo* RaftConsensus::SelfInfo() const {
  return meta_.config.Find(options_.self);
}

bool RaftConsensus::IsVoterSelf() const {
  const MemberInfo* self = SelfInfo();
  return self != nullptr && self->is_voter();
}

Status RaftConsensus::PersistMeta() { return meta_store_->Save(meta_); }

uint64_t RaftConsensus::ElectionTimeoutMicros() const {
  return options_.heartbeat_interval_micros *
         static_cast<uint64_t>(options_.missed_heartbeats_before_election);
}

void RaftConsensus::ResetElectionTimer() {
  last_leader_contact_micros_ = clock_->NowMicros();
  election_timeout_micros_ =
      ElectionTimeoutMicros() +
      (options_.election_jitter_micros > 0
           ? rng_->Uniform(options_.election_jitter_micros)
           : 0);
}

QuorumContext RaftConsensus::MakeQuorumContext(const MemberId& subject) const {
  QuorumContext context;
  context.config = &meta_.config;
  context.subject = subject;
  const MemberInfo* info = meta_.config.Find(subject);
  context.subject_region = info != nullptr ? info->region : "";
  context.last_known_leader = meta_.last_known_leader;
  context.last_leader_region = meta_.last_leader_region;
  return context;
}

// --- Event dispatch ----------------------------------------------------------

void RaftConsensus::HandleMessage(const Message& message) {
  if (!started_) return;
  if (MessageDest(message) != options_.self) return;  // proxy handles routing
  std::visit(
      [this](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, AppendEntriesRequest>) {
          HandleAppendEntries(m);
        } else if constexpr (std::is_same_v<T, AppendEntriesResponse>) {
          HandleAppendEntriesResponse(m);
        } else if constexpr (std::is_same_v<T, VoteRequest>) {
          HandleVoteRequest(m);
        } else if constexpr (std::is_same_v<T, VoteResponse>) {
          HandleVoteResponse(m);
        } else if constexpr (std::is_same_v<T, StartElectionRequest>) {
          HandleStartElection(m);
        }
      },
      message);
}

void RaftConsensus::Tick() {
  if (!started_) return;
  const uint64_t now = clock_->NowMicros();

  // Belt-and-braces for the group-commit sync stage: if the deferred sync
  // was dropped (host restart races), the next tick picks the tail up.
  if (TailSyncDropped()) ScheduleGroupSync();

  if (role_ == RaftRole::kLeader) {
    for (auto& [peer_id, peer] : peers_) {
      if (!peer.inflight.empty() && now >= RpcTimeoutDueMicros(peer)) {
        // Oldest in-flight batch timed out: the whole window after it is
        // suspect (batches are cumulative), so rewind and restream.
        peer.next_index = peer.inflight.front().first_index;
        CancelInflight(&peer);
        m_.window_rewinds->Increment();
      }
      if (now >= SendDueMicros(peer)) {
        SendAppendEntriesTo(peer_id, /*allow_empty=*/true);
      }
    }
    if (transfer_.has_value() && now >= TransferDueMicros()) {
      FailTransfer(Status::TimedOut("leadership transfer deadline"));
    }
    // Leader-side read deadline: a leader cut off from its quorum never
    // steps down on its own (§4.1), so it would otherwise accumulate
    // pending_reads_ and their captured callbacks unboundedly — clients
    // gave up long ago.
    while (!pending_reads_.empty() && now >= ReadDueMicros()) {
      FireOldestRead(Status::TimedOut("linearizable read deadline"),
                     m_.reads_timed_out);
    }
    return;
  }

  // Non-leaders: drive stalled elections and failure detection.
  if (election_.has_value()) {
    if (now >= ElectionRoundDueMicros()) {
      AbortElection(Status::TimedOut("election round timed out"));
    }
    return;
  }
  if (role_ == RaftRole::kLearner || !IsVoterSelf()) return;
  if (now >= LeaderTimeoutDueMicros()) {
    MYRAFT_LOG(Info) << options_.self << ": leader timed out, campaigning";
    Status s = StartElection(ElectionMode::kPreVote);
    if (!s.ok()) ResetElectionTimer();
  }
}

uint64_t RaftConsensus::NextTickDueMicros() const {
  // The earliest of the deadlines Tick() tests on the branch it would
  // take (DESIGN.md §18).
  if (!started_) return UINT64_MAX;
  if (TailSyncDropped()) return 0;

  uint64_t due = UINT64_MAX;
  if (role_ == RaftRole::kLeader) {
    for (const auto& [peer_id, peer] : peers_) {
      due = std::min(due, SendDueMicros(peer));
      if (!peer.inflight.empty()) {
        due = std::min(due, RpcTimeoutDueMicros(peer));
      }
    }
    if (transfer_.has_value()) due = std::min(due, TransferDueMicros());
    if (!pending_reads_.empty()) due = std::min(due, ReadDueMicros());
    return due;
  }
  if (election_.has_value()) return ElectionRoundDueMicros();
  if (role_ == RaftRole::kLearner || !IsVoterSelf()) return UINT64_MAX;
  return LeaderTimeoutDueMicros();
}

bool RaftConsensus::TailSyncDropped() const {
  return !group_sync_scheduled_ && last_synced_index_ < log_->LastOpId().index;
}

uint64_t RaftConsensus::RpcTimeoutDueMicros(const PeerStatus& peer) const {
  return ExceededAt(peer.inflight.front().sent_micros,
                    options_.rpc_timeout_micros);
}

uint64_t RaftConsensus::SendDueMicros(const PeerStatus& peer) const {
  if (peer.next_index <= log_->LastOpId().index ||
      peer.last_sent_commit_index < commit_marker_.index) {
    return 0;
  }
  if (!peer.inflight.empty()) return UINT64_MAX;
  return ReachedAt(peer.last_rpc_sent_micros,
                   options_.heartbeat_interval_micros);
}

uint64_t RaftConsensus::TransferDueMicros() const {
  return ExceededAt(transfer_->deadline_micros, 0);
}

uint64_t RaftConsensus::ReadDueMicros() const {
  return ExceededAt(pending_reads_.front().registered_micros,
                    ReadDeadlineMicros());
}

uint64_t RaftConsensus::ElectionRoundDueMicros() const {
  return ExceededAt(election_->started_micros,
                    options_.election_round_timeout_micros);
}

uint64_t RaftConsensus::LeaderTimeoutDueMicros() const {
  return ExceededAt(last_leader_contact_micros_, election_timeout_micros_);
}

std::string RaftConsensus::ToString() const {
  return StringPrintf(
      "%s[%s] term=%llu role=%s leader=%s last=%s commit=%s voters=%d",
      options_.self.c_str(), options_.region.c_str(),
      (unsigned long long)meta_.current_term,
      std::string(RaftRoleToString(role_)).c_str(), leader_.c_str(),
      log_->LastOpId().ToString().c_str(),
      commit_marker_.ToString().c_str(), meta_.config.NumVoters());
}

RaftConsensus::DebugStatusSnapshot RaftConsensus::DebugStatus() const {
  DebugStatusSnapshot s;
  s.self = options_.self;
  s.region = options_.region;
  s.term = meta_.current_term;
  s.role = role_;
  s.leader = leader_;
  s.commit_marker = commit_marker_;
  s.last_logged = log_->LastOpId();
  s.last_synced_index = last_synced_index_;
  s.lease_enabled = options_.enable_leader_leases;
  s.lease_valid = HasValidLease();
  s.lease_serve_after_micros = lease_serve_after_micros_;
  s.vote_embargo_until_micros = vote_embargo_until_micros_;
  s.pending_reads = pending_reads_.size();
  s.read_barrier_index = read_barrier_index_;
  s.has_pending_config_change = has_pending_config_change();
  s.config_term = meta_.config.config_term;
  s.config_version = meta_.config.config_version;
  s.config_committed = meta_.committed_config.SameIdAs(meta_.config);
  s.quorum = quorum_->Describe();
  s.num_voters = meta_.config.NumVoters();
  if (transfer_.has_value()) s.transfer_target = transfer_->target;
  if (role_ == RaftRole::kLeader) {
    for (const auto& [id, peer] : peers_) {
      PeerDebugStatus p;
      p.id = id;
      p.match_index = peer.match_index;
      p.next_index = peer.next_index;
      p.inflight_batches = peer.inflight.size();
      p.inflight_bytes = peer.inflight_bytes;
      p.stalled = peer.stalled;
      p.lease_expiry_micros = peer.lease_expiry_micros;
      p.last_response_micros = peer.last_response_micros;
      s.peers.push_back(std::move(p));
    }
  }
  return s;
}

std::string RaftConsensus::DebugStatusSnapshot::ToJson() const {
  std::string out = StringPrintf(
      "{\"self\":\"%s\",\"region\":\"%s\",\"term\":%llu,\"role\":\"%s\","
      "\"leader\":\"%s\",\"commit_term\":%llu,\"commit_index\":%llu,"
      "\"last_logged_term\":%llu,\"last_logged_index\":%llu,"
      "\"last_synced_index\":%llu,\"lease_enabled\":%s,\"lease_valid\":%s,"
      "\"lease_serve_after_us\":%llu,\"vote_embargo_until_us\":%llu,"
      "\"pending_reads\":%llu,\"read_barrier_index\":%llu,"
      "\"pending_config_change\":%s,\"config_term\":%llu,"
      "\"config_version\":%llu,\"config_committed\":%s,"
      "\"quorum\":\"%s\",\"voters\":%d,\"transfer_target\":\"%s\","
      "\"peers\":[",
      self.c_str(), region.c_str(), (unsigned long long)term,
      std::string(RaftRoleToString(role)).c_str(), leader.c_str(),
      (unsigned long long)commit_marker.term,
      (unsigned long long)commit_marker.index,
      (unsigned long long)last_logged.term,
      (unsigned long long)last_logged.index,
      (unsigned long long)last_synced_index, lease_enabled ? "true" : "false",
      lease_valid ? "true" : "false",
      (unsigned long long)lease_serve_after_micros,
      (unsigned long long)vote_embargo_until_micros,
      (unsigned long long)pending_reads,
      (unsigned long long)read_barrier_index,
      has_pending_config_change ? "true" : "false",
      (unsigned long long)config_term, (unsigned long long)config_version,
      config_committed ? "true" : "false", quorum.c_str(),
      num_voters, transfer_target.c_str());
  bool first = true;
  for (const auto& p : peers) {
    if (!first) out.push_back(',');
    first = false;
    out.append(StringPrintf(
        "{\"id\":\"%s\",\"match_index\":%llu,\"next_index\":%llu,"
        "\"inflight_batches\":%llu,\"inflight_bytes\":%llu,"
        "\"stalled\":%s,"
        "\"lease_expiry_us\":%llu,\"last_response_us\":%llu}",
        p.id.c_str(), (unsigned long long)p.match_index,
        (unsigned long long)p.next_index,
        (unsigned long long)p.inflight_batches,
        (unsigned long long)p.inflight_bytes, p.stalled ? "true" : "false",
        (unsigned long long)p.lease_expiry_micros,
        (unsigned long long)p.last_response_micros));
  }
  out.append("]}");
  return out;
}

}  // namespace myraft::raft

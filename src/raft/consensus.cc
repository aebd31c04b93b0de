#include "raft/consensus.h"

#include <algorithm>

#include "util/compression.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace myraft::raft {

namespace {
/// Marker used in VoteResponse.reason when a transfer target reports its
/// aggregated mock-election outcome back to the initiating leader.
constexpr char kMockOutcomeReason[] = "mock-outcome";

/// Byte budget across one peer's in-flight window (payload bytes); the
/// window closes on this or on max_inflight_batches, whichever comes first.
constexpr uint64_t kMaxInflightBytesPerPeer = 4ull << 20;

/// Payload bytes one AppendEntries batch may carry (with
/// max_entries_per_rpc, whichever comes first).
constexpr uint64_t kMaxBytesPerRpc = 1 << 20;

/// A mock-election voter in the candidate's region rejects only when it
/// trails the leader's cursor snapshot by more than this many entries:
/// normal in-flight replication must not doom routine transfers under
/// load; a genuinely unhealthy logtailer trails by far more.
constexpr uint64_t kMockElectionLagAllowance = 32;

/// How long a leadership transfer may take before it is abandoned.
constexpr uint64_t kTransferTimeoutMicros = 3'000'000;

/// Ends a span on scope exit (covers every early-return path of a
/// handler). No-op while id stays 0.
struct SpanGuard {
  trace::Tracer* tracer = nullptr;
  uint64_t id = 0;
  std::string end_args;
  ~SpanGuard() {
    if (tracer != nullptr && id != 0) tracer->EndSpan(id, std::move(end_args));
  }
};

/// Timer arithmetic for Tick()'s deadlines: the first local time `t` with
/// `t - since >= limit` (ReachedAt) or `t - since > limit` (ExceededAt),
/// saturating at UINT64_MAX ("never"). Local clocks are monotone, so
/// `since` never lies ahead of the time it is compared with.
uint64_t ReachedAt(uint64_t since, uint64_t limit) {
  return limit > UINT64_MAX - since ? UINT64_MAX : since + limit;
}
uint64_t ExceededAt(uint64_t since, uint64_t limit) {
  return limit >= UINT64_MAX - since ? UINT64_MAX : since + limit + 1;
}
}  // namespace

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
      PendingQuorumRead read = std::move(pending_reads_.front());
      pending_reads_.pop_front();
      m_.reads_timed_out->Increment();
      ReadResult result;
      result.status = Status::TimedOut("linearizable read deadline");
      read.done(result);
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
  if (follower_ack_pending_) {
    // One cumulative ack stands in for every batch that shared the sync.
    // It acks the verified prefix, not the raw tail (see the member doc).
    follower_ack_pending_ = false;
    AppendEntriesResponse response;
    response.from = options_.self;
    response.dest = follower_ack_dest_;
    response.term = meta_.current_term;
    response.success = true;
    response.last_received = log_->LastOpId();
    if (follower_ack_verified_index_ < response.last_received.index) {
      auto verified = log_->OpIdAt(follower_ack_verified_index_);
      response.last_received =
          verified.ok() ? *verified : OpId{0, follower_ack_verified_index_};
    }
    follower_ack_verified_index_ = 0;
    response.last_durable_index = last_synced_index_;
    response.trace_id = follower_ack_trace_id_;
    response.trace_span_id = follower_ack_span_id_;
    response.lease_granted_micros = follower_ack_lease_echo_;
    follower_ack_lease_echo_ = 0;
    response.config_term = meta_.config.config_term;
    response.config_version = meta_.config.config_version;
    outbox_->Send(std::move(response));
  }
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
  // Pop before firing: a callback may re-enter LinearizableRead. Barrier
  // reads (barrier_index != 0) complete on commit-marker advance, not on
  // ack counts — skip them here.
  while (!pending_reads_.empty() && pending_reads_.front().barrier_index == 0 &&
         quorum_->IsCommitQuorumSatisfied(MakeQuorumContext(options_.self),
                                          pending_reads_.front().confirmed)) {
    PendingQuorumRead read = std::move(pending_reads_.front());
    pending_reads_.pop_front();
    m_.reads_quorum->Increment();
    ReadResult result;
    result.status = Status::OK();
    result.read_index = read.read_marker;
    read.done(result);
  }
}

void RaftConsensus::CompleteBarrierReads() {
  // Pop before firing: a callback may re-enter LinearizableRead.
  while (!pending_reads_.empty() &&
         pending_reads_.front().barrier_index != 0 &&
         pending_reads_.front().barrier_index <= commit_marker_.index) {
    PendingQuorumRead read = std::move(pending_reads_.front());
    pending_reads_.pop_front();
    m_.reads_quorum->Increment();
    ReadResult result;
    result.status = Status::OK();
    result.read_index = read.read_marker;
    read.done(result);
  }
}

uint64_t RaftConsensus::ReadDeadlineMicros() const {
  // One RPC timeout plus an election timeout: long enough for any healthy
  // confirmation round (echo acks or a barrier commit) to land, short
  // enough that a quorum-severed leader sheds callbacks at the same scale
  // its clients give up.
  return options_.rpc_timeout_micros + ElectionTimeoutMicros();
}

void RaftConsensus::FailPendingReads(const Status& reason) {
  if (pending_reads_.empty()) return;
  std::deque<PendingQuorumRead> failed = std::move(pending_reads_);
  pending_reads_.clear();
  ReadResult result;
  result.status = reason;
  for (auto& read : failed) read.done(result);
}

// --- Replication: receiver side -------------------------------------------------

void RaftConsensus::HandleAppendEntries(const AppendEntriesRequest& request) {
  if (request.entries_compressed) {
    // Inflate on the receiver's copy; checksums cover the uncompressed
    // payload, so VerifyChecksum below runs against the restored bytes.
    AppendEntriesRequest inflated = request;
    inflated.entries_compressed = false;
    for (auto& entry : inflated.entries) {
      std::string raw;
      Status decomp = LzDecompress(entry.payload_bytes(), &raw);
      if (!decomp.ok()) {
        MYRAFT_LOG(Error) << options_.self
                          << ": undecompressable batch from "
                          << request.leader << ": " << decomp;
        AppendEntriesResponse response;
        response.from = options_.self;
        response.dest = request.leader;
        response.term = meta_.current_term;
        response.success = false;
        response.last_received = log_->LastOpId();
        response.last_durable_index = last_synced_index_;
        response.request_prev_index = request.prev.index;
        response.trace_id = request.trace_id;
        response.trace_span_id = request.trace_span_id;
        outbox_->Send(std::move(response));
        return;
      }
      entry.payload = std::move(raw);
      entry.shared_payload.reset();  // owned again after inflation
    }
    HandleAppendEntries(inflated);
    return;
  }

  AppendEntriesResponse response;
  response.from = options_.self;
  response.dest = request.leader;
  response.term = meta_.current_term;
  response.success = false;
  response.last_received = log_->LastOpId();
  // Only the fsynced tail counts towards the leader's commit quorum; a
  // received-but-unsynced suffix would be lost in a crash.
  response.last_durable_index = last_synced_index_;
  response.request_prev_index = request.prev.index;
  // Echo the trace context so the ack stitches back to the batch span.
  response.trace_id = request.trace_id;
  response.trace_span_id = request.trace_span_id;

  // Follower-side receive->synced span, parented under the leader's batch
  // span via the wire context. Covers every return path below.
  SpanGuard append_span{options_.tracer, 0, {}};
  if (options_.tracer != nullptr && !request.entries.empty()) {
    append_span.id = options_.tracer->BeginSpan(
        "raft", "follower.append", request.trace_id, request.trace_span_id,
        "leader", request.leader, "n", request.entries.size(), "first",
        request.entries.front().id.index);
    append_span.end_args = "rejected";
  }

  if (request.term < meta_.current_term) {
    m_.append_rejections->Increment();
    outbox_->Send(std::move(response));
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
  response.term = meta_.current_term;

  // Adopt a newer config carried by the leader BEFORE any log checks —
  // config propagation is deliberately decoupled from log replication, so
  // membership heals even while the log is rewinding or unavailable. The
  // response echoes the installed identity either way; that echo drives
  // the leader's install quorum and tells it to stop attaching the config.
  MaybeInstallConfig(request);
  response.config_term = meta_.config.config_term;
  response.config_version = meta_.config.config_version;

  // Log-matching check on the preceding entry.
  if (request.prev.index > 0) {
    const uint64_t last = log_->LastOpId().index;
    if (request.prev.index > last) {
      m_.append_rejections->Increment();
      outbox_->Send(std::move(response));  // hint: our last opid
      return;
    }
    auto local_prev = log_->OpIdAt(request.prev.index);
    if (!local_prev.ok() || local_prev->term != request.prev.term) {
      // Conflict below our tail: ask the leader to rewind.
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
  for (const LogEntry& entry : request.entries) {
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
        outbox_->Send(std::move(response));
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
      outbox_->Send(std::move(response));
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
  // diverges the replica.
  const uint64_t verified_index = request.entries.empty()
                                      ? request.prev.index
                                      : request.entries.back().id.index;

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
      const uint64_t commit_to =
          std::min(request.commit_marker.index, verified_index);
      if (commit_to > commit_marker_.index) {
        auto opid = log_->OpIdAt(commit_to);
        if (opid.ok()) SetCommitMarker(*opid);
      }
      follower_ack_pending_ = true;
      follower_ack_dest_ = request.leader;
      follower_ack_verified_index_ =
          std::max(follower_ack_verified_index_, verified_index);
      follower_ack_trace_id_ = request.trace_id;
      follower_ack_span_id_ = request.trace_span_id;
      if (request.lease_sent_micros != 0 && IsVoterSelf()) {
        // Timestamp echo rides the held cumulative ack; max over the held
        // batches' send timestamps (the freshest echo wins).
        follower_ack_lease_echo_ =
            std::max(follower_ack_lease_echo_, request.lease_sent_micros);
      }
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
    response.success = false;
    response.last_received = log_->LastOpId();
    response.last_durable_index = last_synced_index_;
    outbox_->Send(std::move(response));
    return;
  }

  response.success = true;
  // Ack only the prefix this request verified (prev check + appended
  // entries). An unverified divergent suffix above it must not look acked,
  // or the leader would retire undelivered in-flight batches against it
  // and count a bogus match_index towards commit.
  response.last_received = log_->LastOpId();
  if (verified_index < response.last_received.index) {
    auto verified = log_->OpIdAt(verified_index);
    response.last_received =
        verified.ok() ? *verified : OpId{0, verified_index};
  }
  response.last_durable_index = last_synced_index_;
  if (request.lease_sent_micros != 0 && IsVoterSelf()) {
    // Echo the leader's send timestamp: ReadIndex freshness proof always,
    // and — when the request carried a duration — a lease grant (§13).
    // The grant promise (not electing a rival before it expires) is kept
    // by our own election timer, which last_leader_contact_micros_ just
    // re-armed.
    response.lease_granted_micros = request.lease_sent_micros;
  }
  if (append_span.id != 0) {
    append_span.end_args = "ok";
    trace::AppendArgs(&append_span.end_args, "last",
                      response.last_received.index, "durable",
                      response.last_durable_index);
  }

  // Advance our commit marker to what the leader has committed (§3.4:
  // piggybacked commit marker).
  const uint64_t commit_to =
      std::min(request.commit_marker.index, verified_index);
  if (commit_to > commit_marker_.index) {
    auto opid = log_->OpIdAt(commit_to);
    if (opid.ok()) SetCommitMarker(*opid);
  }
  outbox_->Send(std::move(response));
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
  follower_ack_pending_ = false;
  follower_ack_verified_index_ = 0;
  follower_ack_lease_echo_ = 0;
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
  follower_ack_pending_ = false;
  follower_ack_verified_index_ = 0;
  follower_ack_lease_echo_ = 0;
  // Deposed leaseholder fencing (§13): the lease died with the peer
  // state above; reads parked on a quorum round can never confirm now.
  lease_serve_after_micros_ = 0;
  read_barrier_index_ = 0;
  FailPendingReads(Status::Aborted("leadership lost"));
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

// --- Membership --------------------------------------------------------------

namespace {
/// Number of members whose VOTING status differs between the two configs
/// (voter added, voter removed, or voter <-> learner swap). Non-voting
/// changes (learners, regions, quorum_spec) don't count: they cannot
/// change any quorum.
int CountVotingChanges(const MembershipConfig& from,
                       const MembershipConfig& to) {
  int changes = 0;
  for (const auto& member : to.members) {
    const MemberInfo* old = from.Find(member.id);
    const bool was_voter = old != nullptr && old->is_voter();
    if (member.is_voter() != was_voter) ++changes;
  }
  for (const auto& member : from.members) {
    if (member.is_voter() && to.Find(member.id) == nullptr) ++changes;
  }
  return changes;
}
}  // namespace

Status RaftConsensus::AddMember(const MemberInfo& member) {
  if (role_ != RaftRole::kLeader) return Status::IllegalState("not leader");
  if (meta_.config.Contains(member.id)) {
    return Status::AlreadyPresent("member already in config: " + member.id);
  }
  MembershipConfig new_config = meta_.config;
  new_config.members.push_back(member);
  return ProposeConfig(std::move(new_config), /*force=*/false);
}

Status RaftConsensus::RemoveMember(const MemberId& member) {
  if (role_ != RaftRole::kLeader) return Status::IllegalState("not leader");
  if (member == options_.self) {
    return Status::InvalidArgument("leader cannot remove itself");
  }
  if (!meta_.config.Contains(member)) {
    return Status::NotFound("member not in config: " + member);
  }
  MembershipConfig new_config = meta_.config;
  new_config.members.erase(
      std::remove_if(new_config.members.begin(), new_config.members.end(),
                     [&](const MemberInfo& m) { return m.id == member; }),
      new_config.members.end());
  return ProposeConfig(std::move(new_config), /*force=*/false);
}

Status RaftConsensus::SetMemberType(const MemberId& member,
                                    RaftMemberType type) {
  if (role_ != RaftRole::kLeader) return Status::IllegalState("not leader");
  if (member == options_.self && type == RaftMemberType::kNonVoter) {
    return Status::InvalidArgument("leader cannot demote itself");
  }
  MembershipConfig new_config = meta_.config;
  MemberInfo* info = nullptr;
  for (auto& m : new_config.members) {
    if (m.id == member) {
      info = &m;
      break;
    }
  }
  if (info == nullptr) {
    return Status::NotFound("member not in config: " + member);
  }
  if (info->type == type) return Status::OK();  // idempotent no-op
  info->type = type;
  return ProposeConfig(std::move(new_config), /*force=*/false);
}

Status RaftConsensus::SetQuorumSpec(const std::string& quorum_spec) {
  if (role_ != RaftRole::kLeader) return Status::IllegalState("not leader");
  if (meta_.config.quorum_spec == quorum_spec) return Status::OK();
  MembershipConfig new_config = meta_.config;
  new_config.quorum_spec = quorum_spec;
  return ProposeConfig(std::move(new_config), /*force=*/false);
}

Status RaftConsensus::ForceReplaceConfig(MembershipConfig new_config) {
  if (role_ != RaftRole::kLeader) return Status::IllegalState("not leader");
  if (!new_config.Contains(options_.self)) {
    return Status::InvalidArgument("forced config must include self");
  }
  if (new_config.NumVoters() == 0) {
    return Status::InvalidArgument("forced config has no voters");
  }
  MYRAFT_LOG(Warning) << options_.self
                      << ": FORCED config replacement: "
                      << new_config.ToString();
  return ProposeConfig(std::move(new_config), /*force=*/true);
}

Status RaftConsensus::ProposeConfig(MembershipConfig new_config, bool force) {
  if (role_ != RaftRole::kLeader) return Status::IllegalState("not leader");
  if (!force) {
    if (has_pending_config_change()) {
      return Status::IllegalState("another membership change is in flight");
    }
    // A committed current-term entry proves this leader's authority is
    // current; without it, a leader elected on a stale log could bump the
    // config before discovering it must step down.
    if (commit_marker_.term != meta_.current_term) {
      return Status::ServiceUnavailable(
          "leadership not yet established (current-term entry uncommitted)");
    }
    // §2.2 single-change rule, enforced structurally: quorum intersection
    // between consecutive configs is only guaranteed one voting change at
    // a time. The force path (Quorum Fixer) deliberately bypasses this —
    // with the old quorum dead, intersection with it is meaningless and
    // excising all dead voters in one bump is the point.
    if (CountVotingChanges(meta_.config, new_config) > 1) {
      return Status::InvalidArgument(
          "at most one voting-membership change per reconfig");
    }
  }
  // Version the new config: (term, version) with the term dominating, so
  // a config proposed by a deposed leader can never supersede one issued
  // at a later term no matter how many bumps it racked up.
  new_config.config_term = meta_.current_term;
  new_config.config_version = meta_.config.config_version + 1;
  const MembershipConfig old_config = meta_.config;
  MYRAFT_RETURN_NOT_OK(ApplyConfig(new_config));
  MaybeCommitConfig();  // single-voter (or self-sufficient) quorums: now
  // Push the new config out immediately — the install quorum is gated on
  // echoes, and waiting a heartbeat interval would stall every reconfig.
  for (const auto& [peer_id, peer] : peers_) {
    SendAppendEntriesTo(peer_id, /*allow_empty=*/true);
  }
  // Farewell to members the new config dropped: RefreshPeers has already
  // forgotten them, so without this they would never learn, sitting in
  // the old config campaigning into vote denials forever. One stamped
  // heartbeat makes them install the config, see themselves gone, and
  // park as non-campaigning followers.
  for (const auto& member : old_config.members) {
    if (member.id == options_.self || meta_.config.Contains(member.id)) {
      continue;
    }
    // Not a peer, so the config is always stamped; prev is zero because
    // log matching is irrelevant to the config.
    AppendEntriesRequest farewell;
    FillAppendHeader(member.id, /*peer=*/nullptr, kZeroOpId, &farewell);
    outbox_->Send(std::move(farewell));
  }
  return Status::OK();
}

void RaftConsensus::MaybeCommitConfig() {
  if (role_ != RaftRole::kLeader) return;
  if (meta_.committed_config.SameIdAs(meta_.config)) return;  // none pending
  // Logless commit rule (Schultz et al.): the pending config is committed
  // once a quorum of the NEW config has installed it. Log state plays no
  // part — this is what lets reconfiguration proceed while the log is
  // unavailable or healing. MakeQuorumContext evaluates against
  // meta_.config, i.e. the new member set.
  std::set<MemberId> installed{options_.self};
  for (const auto& [peer_id, peer] : peers_) {
    if (peer.acked_config_term == meta_.config.config_term &&
        peer.acked_config_version == meta_.config.config_version) {
      installed.insert(peer_id);
    }
  }
  if (!quorum_->IsCommitQuorumSatisfied(MakeQuorumContext(options_.self),
                                        installed)) {
    return;
  }
  meta_.committed_config = meta_.config;
  Status s = PersistMeta();
  if (!s.ok()) {
    MYRAFT_LOG(Error) << options_.self
                      << ": persist committed config failed: " << s;
    return;
  }
  MYRAFT_LOG(Info) << options_.self << ": config committed: "
                   << meta_.config.ToString();
}

void RaftConsensus::MaybeInstallConfig(const AppendEntriesRequest& request) {
  // The leader keeps stamping until our echo reaches it; a stamp of the
  // config we already hold needs no decode.
  if (request.config_payload.empty() ||
      request.config_payload == config_payload_) {
    return;
  }
  auto config = DecodeMembershipConfig(request.config_payload);
  if (!config.ok()) {
    MYRAFT_LOG(Error) << options_.self << ": undecodable config from "
                      << request.leader << ": " << config.status();
    return;
  }
  if (!config->IdIsNewerThan(meta_.config)) return;
  // Install is decoupled from the log: no log-matching gate, no entry.
  // Adopting the newer config is what makes this node count towards the
  // NEW config's install quorum (via the response echo).
  Status s = ApplyConfig(*config);
  if (!s.ok()) {
    MYRAFT_LOG(Error) << options_.self << ": config install failed: " << s;
    return;
  }
  config_payload_ = request.config_payload;
}

void RaftConsensus::StampConfig(const PeerStatus* peer,
                                AppendEntriesRequest* request) {
  // Stamp until echoed (DESIGN.md §15.1): encoding the member list into
  // every heartbeat, then sizing and decoding it again downstream, was the
  // largest host cost of heartbeat-bound runs. Any request can carry the
  // install, so it stays decoupled from the log; a peer whose latest
  // response echoed the active identity has it installed.
  if (peer != nullptr && peer->config_echoed) return;
  if (config_payload_.empty()) {
    EncodeMembershipConfig(meta_.config, &config_payload_);
  }
  request->config_payload = config_payload_;
}

void RaftConsensus::RecordConfigEcho(const AppendEntriesResponse& response,
                                     PeerStatus* peer) {
  peer->config_echoed = response.config_term == meta_.config.config_term &&
                        response.config_version == meta_.config.config_version;
  // The install quorum counts the highest identity ever echoed: a
  // reordered older echo must not regress it.
  if (response.config_term > peer->acked_config_term ||
      (response.config_term == peer->acked_config_term &&
       response.config_version > peer->acked_config_version)) {
    peer->acked_config_term = response.config_term;
    peer->acked_config_version = response.config_version;
    MaybeCommitConfig();
  }
}

Status RaftConsensus::ApplyConfig(const MembershipConfig& config) {
  meta_.config = config;
  config_payload_.clear();
  MYRAFT_RETURN_NOT_OK(PersistMeta());
  if (role_ == RaftRole::kLeader) RefreshPeers();
  // Role may change if our own voter/learner status changed.
  if (role_ != RaftRole::kLeader && role_ != RaftRole::kCandidate) {
    const MemberInfo* self = SelfInfo();
    if (self != nullptr) {
      role_ = self->is_learner() ? RaftRole::kLearner : RaftRole::kFollower;
    } else {
      // Removed from the ring: park as a quiescent follower. IsVoterSelf()
      // is false from here on, so this node never campaigns, never votes,
      // and never disrupts the ring it no longer belongs to — it just
      // waits to be re-added or retired by an operator.
      role_ = RaftRole::kFollower;
    }
  } else if (role_ == RaftRole::kCandidate && SelfInfo() == nullptr) {
    AbortElection(Status::Aborted("removed from config"));
    role_ = RaftRole::kFollower;
  }
  listener_->OnMembershipChanged(meta_.config);
  return Status::OK();
}

void RaftConsensus::RefreshPeers() {
  // Keep progress for surviving peers, add new ones, drop removed ones.
  // Nobody has echoed the new config yet, so every peer gets it stamped.
  std::map<MemberId, PeerStatus> new_peers;
  for (const auto& member : meta_.config.members) {
    if (member.id == options_.self) continue;
    auto it = peers_.find(member.id);
    if (it != peers_.end()) {
      new_peers[member.id] = it->second;
      new_peers[member.id].config_echoed = false;
    } else {
      PeerStatus peer;
      peer.next_index = log_->LastOpId().index + 1;
      peer.match_index = 0;
      // Arm the auto-step-down / health window from now.
      peer.last_response_micros = clock_->NowMicros();
      new_peers[member.id] = peer;
    }
  }
  peers_ = std::move(new_peers);
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

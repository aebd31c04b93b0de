// RaftConsensus: the Raft implementation at the heart of MyRaft (the
// kuduraft stand-in). Event-driven: the host (simulator node or a real
// transport loop) feeds HandleMessage() and a periodic Tick(); outbound
// RPCs go through RaftOutbox and state-machine orchestration happens via
// StateMachineListener callbacks — the callback API of §3.1/§3.3.
//
// Features beyond textbook Raft, per the paper:
//  * pluggable log (LogAbstraction) so the server can keep MySQL binlogs
//    as the replicated log;
//  * pluggable quorums (QuorumEngine) for FlexiRaft;
//  * pre-vote, leader stickiness, and Mock Elections (§4.3) ahead of
//    graceful TransferLeadership;
//  * witnesses (voting logtailers) and learners (non-voting replicas);
//  * single-server membership changes (§2.2), logless: the config is
//    versioned consensus state installed via AppendEntries and committed
//    on an install quorum of the new config (DESIGN.md §15);
//  * an election-quorum override used by Quorum Fixer (§5.3);
//  * an in-memory entry cache (compressed once, on first compressed send)
//    with disk fallback for laggards.

#ifndef MYRAFT_RAFT_CONSENSUS_H_
#define MYRAFT_RAFT_CONSENSUS_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "raft/consensus_metadata.h"
#include "raft/log_abstraction.h"
#include "raft/log_cache.h"
#include "raft/quorum.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/trace.h"
#include "wire/messages.h"

namespace myraft::raft {

/// Compress entry payloads on the wire when a batch carries at least this
/// many payload bytes. Lossless; the entry checksum always covers the
/// uncompressed payload, so corruption is still caught after inflation on
/// the receiver.
inline constexpr uint64_t kWireCompressionMinBytes = 1024;

/// How long a leader lease grant lasts (DESIGN.md §13), measured on the
/// leader's clock from the moment the granting request was SENT (the
/// follower echoes the send timestamp back, so expiry arithmetic never
/// mixes clocks). Clamped at use to the election timeout minus the drift
/// margin: a follower's own election timer is what makes the grant a
/// promise — it will not campaign (nor, via leader stickiness, indulge
/// pre-votes) before the timeout elapses, so no rival leader can exist
/// while a grant lives.
inline constexpr uint64_t kLeaseDurationMicros = 1'200'000;
/// Bounded-clock-drift safety margin (LeaseGuard): subtracted from every
/// grant's leader-side expiry and added to a new leader's serve-after
/// wait, covering follower clocks running fast by up to margin/duration
/// in relative rate.
inline constexpr uint64_t kLeaseDriftMarginMicros = 100'000;

struct RaftOptions {
  MemberId self;
  RegionId region;
  MemberKind kind = MemberKind::kMySql;

  /// §6.2: production runs 500 ms heartbeats and three consecutive missed
  /// heartbeats before an election (≈1.5 s detection).
  uint64_t heartbeat_interval_micros = 500'000;
  int missed_heartbeats_before_election = 3;
  /// Random extra per election round to de-synchronise candidates.
  uint64_t election_jitter_micros = 300'000;
  /// Outstanding-RPC resend window.
  uint64_t rpc_timeout_micros = 1'000'000;
  /// Candidate retry window when an election stalls.
  uint64_t election_round_timeout_micros = 1'500'000;

  size_t max_entries_per_rpc = 64;

  /// Replication pipelining: the static in-flight window, in AppendEntries
  /// batches per peer (also capped by a fixed per-peer byte budget). The
  /// paper's throughput numbers (§5, Fig. 5) assume the dissemination path
  /// is not ack-bound on WAN RTTs; 1 makes replication lock-step.
  size_t max_inflight_batches = 8;
  /// §4.3: run a mock election before TransferLeadership.
  bool enable_mock_election = true;

  /// Resident bytes of the log cache: raw payloads plus the compressed
  /// spans memoized for sends.
  uint64_t log_cache_capacity_bytes = 8ull << 20;

  /// Host-provided deferral hook, required (Start() rejects null): run
  /// `fn` after `delay_micros` once the current call stack unwinds (the
  /// sim node schedules it on the event loop; delay 0 means "this same
  /// instant, after pending events"), and drop it once this instance is
  /// gone. It drives the group-commit sync stage (§3.4): Replicate()
  /// appends without syncing and schedules one Sync() covering every entry
  /// appended by the time it runs, so concurrent writes share an fsync.
  /// The leader's own quorum ack is gated on last_synced_index, so nothing
  /// commits before that sync completes.
  std::function<void(uint64_t delay_micros, std::function<void()> fn)> defer;

  /// LeaseGuard leader leases (DESIGN.md §13): followers piggyback lease
  /// grants on their AppendEntries acks (including the coalesced and
  /// marker-only heartbeat paths — no separate lease RPC); a leader
  /// holding unexpired grants from a commit quorum serves linearizable
  /// reads locally with zero quorum round-trips. Off by default; the
  /// read path then falls back to a commit-barrier round (§13.2). The
  /// grant promise is kept by pre-vote leader stickiness (§13.6); every
  /// election runs through pre-vote, so that holds by construction.
  bool enable_leader_leases = false;

  /// FAULT INJECTION (chaos checker self-test only): a non-leader's log
  /// sync advances the durable horizon without fsyncing, so its held ack
  /// reports an index a power-loss crash (sim CrashMode::kLoseUnsynced)
  /// can still tear away — an acked write can be lost. Never enable
  /// outside tests.
  bool unsafe_follower_skips_fsync = false;

  /// Destination for "raft.*" / "log_cache.*" metrics. Null means a
  /// private per-instance registry (unit-test isolation).
  metrics::MetricRegistry* metrics = nullptr;
  /// Optional causal trace journal (util/trace): per-peer batch spans,
  /// follower append spans, election/step-down/quorum-ack instants.
  trace::Tracer* tracer = nullptr;
};

enum class ElectionMode { kPreVote, kRealElection, kMockElection };

/// Transport hook: implementations route/deliver the message (the proxy
/// layer and the simulator network sit behind this).
class RaftOutbox {
 public:
  virtual ~RaftOutbox() = default;
  virtual void Send(Message message) = 0;
};

/// Callbacks from Raft into the state machine / database (§3.1: "The
/// callback API from Raft to MySQL server is used by Raft to orchestrate
/// ... promotion ... demotion"). All methods have empty defaults so
/// log-only members (witnesses) can subclass selectively.
class StateMachineListener {
 public:
  virtual ~StateMachineListener() = default;

  /// This member won an election. The no-op asserting leadership has been
  /// appended at `noop_opid`; the server runs promotion orchestration and
  /// typically waits for it to commit before enabling writes (§3.3).
  virtual void OnLeadershipAcquired(uint64_t term, OpId noop_opid) {}
  /// Stepped down (higher term observed / transfer completed): run
  /// demotion orchestration.
  virtual void OnLeadershipLost(uint64_t term) {}
  /// The consensus-commit marker moved forward.
  virtual void OnCommitAdvanced(OpId commit_marker) {}
  /// A new entry landed in the local log (on followers this signals the
  /// applier, §3.5).
  virtual void OnEntryAppended(const LogEntry& entry) {}
  /// Conflicting suffix removed; entries after `new_last` are gone (GTID
  /// cleanup happens inside the log abstraction).
  virtual void OnSuffixTruncated(OpId new_last) {}
  virtual void OnMembershipChanged(const MembershipConfig& config) {}
  /// A graceful TransferLeadership this member initiated failed (mock
  /// election lost, catch-up timeout, ...).
  virtual void OnLeadershipTransferFailed(const MemberId& target,
                                          const Status& reason) {}
};

class RaftConsensus {
 public:
  /// One unacked AppendEntries batch in a peer's pipeline window.
  struct InflightBatch {
    uint64_t first_index = 0;
    uint64_t last_index = 0;  // inclusive
    uint64_t bytes = 0;       // payload bytes (pre-compression)
    uint64_t sent_micros = 0;
    /// Open "raft.replicate.batch" span; closed when the batch is acked
    /// or its window suffix is cancelled. 0 when tracing is off.
    uint64_t trace_span_id = 0;
  };

  struct PeerStatus {
    /// First index not yet handed to the transport; advances optimistically
    /// past every in-flight batch so broadcast ticks never re-send an
    /// outstanding suffix.
    uint64_t next_index = 1;
    uint64_t match_index = 0;
    uint64_t last_rpc_sent_micros = 0;
    uint64_t last_response_micros = 0;
    /// Oldest-first pipeline of unacked batches; each chains off the
    /// previous one's tail, so a rejection invalidates the whole suffix.
    std::deque<InflightBatch> inflight;
    uint64_t inflight_bytes = 0;
    /// Stall accounting counts *transitions* into the window-full state,
    /// not attempts while stalled (the over-counting fix).
    bool stalled = false;
    uint64_t stall_started_micros = 0;
    /// Highest commit-marker index ever put on the wire to this peer;
    /// when the marker advances past it and the window is full, a
    /// marker-only heartbeat carries the news instead of waiting for
    /// window space.
    uint64_t last_sent_commit_index = 0;
    /// Leader-clock expiry of this peer's freshest lease grant (0 =
    /// none): echoed send timestamp + lease duration − drift margin,
    /// monotone max over acks (§13).
    uint64_t lease_expiry_micros = 0;
    /// Highest config identity this peer has reported installed (echoed
    /// in AppendEntries responses, monotone max). Drives the
    /// config-install quorum that commits a pending config.
    uint64_t acked_config_term = 0;
    uint64_t acked_config_version = 0;
    /// Whether this peer's most recent response echoed the active config
    /// identity. While false, every AppendEntries to it carries the
    /// config; a new config (RefreshPeers) clears it for every peer.
    bool config_echoed = false;
  };

  /// Structured point-in-time state dump — the `SHOW RAFT STATUS` analogue
  /// (DESIGN.md §14). Built by DebugStatus() for tools (`bench_chaos
  /// --raftstat`) and flight-recorder bundles; ToJson() is deterministic
  /// for same-seed sim runs (all timestamps are sim-clock).
  struct PeerDebugStatus {
    MemberId id;
    uint64_t match_index = 0;
    uint64_t next_index = 0;
    size_t inflight_batches = 0;
    uint64_t inflight_bytes = 0;
    bool stalled = false;
    uint64_t lease_expiry_micros = 0;
    uint64_t last_response_micros = 0;
  };
  struct DebugStatusSnapshot {
    MemberId self;
    RegionId region;
    uint64_t term = 0;
    RaftRole role = RaftRole::kFollower;
    MemberId leader;
    OpId commit_marker;
    OpId last_logged;
    uint64_t last_synced_index = 0;
    bool lease_enabled = false;
    bool lease_valid = false;
    uint64_t lease_serve_after_micros = 0;
    uint64_t vote_embargo_until_micros = 0;
    size_t pending_reads = 0;
    uint64_t read_barrier_index = 0;
    bool has_pending_config_change = false;
    uint64_t config_term = 0;
    uint64_t config_version = 0;
    bool config_committed = true;
    std::string quorum;  // QuorumEngine::Describe()
    int num_voters = 0;
    MemberId transfer_target;  // leadership transfer in progress ("" = none)
    std::vector<PeerDebugStatus> peers;  // replication state, leaders only

    std::string ToJson() const;
  };

  RaftConsensus(RaftOptions options, LogAbstraction* log,
                const QuorumEngine* quorum, ConsensusMetadataStore* meta_store,
                Clock* clock, Random* rng, RaftOutbox* outbox,
                StateMachineListener* listener);

  RaftConsensus(const RaftConsensus&) = delete;
  RaftConsensus& operator=(const RaftConsensus&) = delete;

  /// First boot of a new ring: persists `config` and starts as follower.
  /// Every member must bootstrap with an identical config.
  Status Bootstrap(const MembershipConfig& config);
  /// Recovers term/vote/config from the metadata store.
  Status Start();

  // --- Event entry points ----------------------------------------------------

  void HandleMessage(const Message& message);
  /// Drive heartbeats, election timeouts, RPC resends and transfer
  /// deadlines. Call every few tens of milliseconds.
  void Tick();
  /// Earliest local time at which Tick() can act (0 = now, UINT64_MAX =
  /// never, until some other input changes this member's state). Before
  /// it, Tick() is a no-op; hosts use this to skip idle ticks.
  uint64_t NextTickDueMicros() const;

  // --- Leader API -------------------------------------------------------------

  /// OpId the next Replicate call will assign. Transaction payloads carry
  /// OpId stamps in their binlog events (§3.4), so the server plans the
  /// OpId, finalises the payload, then calls Replicate — atomic within one
  /// event-loop turn.
  OpId NextOpId() const { return {meta_.current_term, log_->LastOpId().index + 1}; }

  /// Appends an operation to the replicated log, ships it, and returns its
  /// OpId. Commit is observed via OnCommitAdvanced / IsCommitted.
  /// `trace_ctx` (optional) ties the entry to a client trace: outgoing
  /// batches carrying it propagate the context on the wire and the quorum
  /// ack emits an instant into the journal.
  Result<OpId> Replicate(EntryType type, std::string payload,
                         trace::TraceContext trace_ctx = {});
  bool IsCommitted(OpId opid) const {
    return !opid.IsZero() && opid.index <= commit_marker_.index;
  }

  /// Outcome of LinearizableRead: on OK, `read_index` is the consensus
  /// point the read linearizes at — the caller must wait until its state
  /// machine covers it before serving data.
  struct ReadResult {
    Status status;
    OpId read_index;
    bool served_by_lease = false;
  };
  using ReadCallback = std::function<void(const ReadResult&)>;
  /// Linearizable read point (§13). Under a valid leader lease the
  /// callback fires immediately — zero quorum round-trips — with the
  /// current commit marker as the read index; otherwise a ReadIndex-style
  /// round confirms leadership with fresh quorum acks first. Fails with
  /// IllegalState on non-leaders, ServiceUnavailable before the
  /// leadership no-op commits, and Aborted when leadership is lost while
  /// a quorum round is in flight.
  void LinearizableRead(ReadCallback done);
  /// True when this leader currently holds unexpired lease grants from a
  /// commit quorum and the deferred-handoff wait has passed.
  /// Introspection for tests and the chaos stale-read audit.
  bool HasValidLease() const;

  /// Graceful promotion (§2.2): mock election → quiesce → catch-up →
  /// TimeoutNow. Progress/failure surfaces via listener callbacks.
  Status TransferLeadership(const MemberId& target);

  /// Single-server membership changes (§2.2). One at a time, each a
  /// config-version bump that commits on the new config's install quorum.
  Status AddMember(const MemberInfo& member);
  Status RemoveMember(const MemberId& member);
  /// Voter ↔ learner (witness) swap as a single config change.
  Status SetMemberType(const MemberId& member, RaftMemberType type);
  /// Data-quorum rule change ("" = engine default, "majority",
  /// "single-region", "multi:<K>") as a config-version bump.
  Status SetQuorumSpec(const std::string& quorum_spec);
  /// Quorum Fixer (§5.3) force path: replaces the entire
  /// member set in ONE config bump, bypassing the committed-config and
  /// single-change preconditions. This is how a shattered quorum is
  /// repaired — with the data quorum dead, no log entry (and no chain of
  /// single-member excisions) can ever commit, but a forced config whose
  /// install quorum is satisfiable by the survivors can.
  Status ForceReplaceConfig(MembershipConfig new_config);

  // --- Manual elections & remediation ------------------------------------------

  Status StartElection(ElectionMode mode);
  /// Quorum Fixer (§5.3): when set, an election succeeds once `min_votes`
  /// votes (including self) are granted, bypassing the quorum engine.
  void SetElectionVotesOverride(std::optional<int> min_votes) {
    election_votes_override_ = min_votes;
  }

  // --- Introspection -------------------------------------------------------------

  RaftRole role() const { return role_; }
  uint64_t term() const { return meta_.current_term; }
  const MemberId& self() const { return options_.self; }
  const RegionId& region() const { return options_.region; }
  /// Currently known leader ("" if unknown).
  const MemberId& leader() const { return leader_; }
  OpId commit_marker() const { return commit_marker_; }
  OpId last_logged() const { return log_->LastOpId(); }
  const MembershipConfig& config() const { return meta_.config; }
  /// Last config known committed (== config() in steady state).
  const MembershipConfig& committed_config() const {
    return meta_.committed_config;
  }
  const MemberId& last_known_leader() const {
    return meta_.last_known_leader;
  }
  bool has_pending_config_change() const {
    return !meta_.committed_config.SameIdAs(meta_.config);
  }
  const RaftOptions& options() const { return options_; }
  std::optional<MemberId> transfer_target() const {
    return transfer_ ? std::optional<MemberId>(transfer_->target)
                     : std::nullopt;
  }
  /// Writes quiesced for a pending leadership transfer?
  bool is_quiesced_for_transfer() const {
    return transfer_.has_value() &&
           transfer_->phase == TransferState::Phase::kQuiesced;
  }
  const std::map<MemberId, PeerStatus>& peers() const { return peers_; }
  metrics::MetricRegistry* metrics() const { return metrics_; }
  const LogCache& log_cache() const { return cache_; }
  LogAbstraction* log() const { return log_; }
  /// Highest log index known to be fsynced locally; only this much is
  /// reported as `last_durable_index` in AppendEntries responses.
  uint64_t last_synced_index() const { return last_synced_index_; }
  /// The peer whose ack most recently advanced the commit marker — the
  /// quorum "straggler" the slow-transaction log reports ("" when the
  /// marker last moved on the leader's own append, e.g. single voter).
  const MemberId& last_commit_completer() const {
    return last_commit_completer_;
  }

  /// One-line human-readable state for tools.
  std::string ToString() const;

  /// Full structured state dump (see DebugStatusSnapshot).
  DebugStatusSnapshot DebugStatus() const;

 private:
  struct ElectionState {
    ElectionMode mode = ElectionMode::kPreVote;
    uint64_t election_term = 0;  // term being campaigned for
    std::set<MemberId> granted;
    std::set<MemberId> responded;
    uint64_t started_micros = 0;
    /// For mock elections requested by a leader: where to report the
    /// outcome.
    MemberId report_to;
    OpId cursor_snapshot;
    /// FlexiRaft: most recent last-known-leader view aggregated from our
    /// own metadata plus every vote response (grants and denials); the
    /// election quorum must cover this leader's region.
    uint64_t known_leader_term = 0;
    RegionId known_leader_region;
    /// Pessimistic union of every potential-leader region reported by any
    /// response (or our own metadata): a vote for X at term T means a
    /// term-T leader may exist in X's region, so the election quorum must
    /// intersect the data quorum of each such region. Tracking only the
    /// max-term view lets two same-term candidates aggregate divergent
    /// stale views and win with disjoint quorums.
    std::set<RegionId> evidence_regions;
    /// Open "raft.election" span for real elections (0 = untraced).
    uint64_t trace_span_id = 0;
  };

  struct TransferState {
    enum class Phase { kMockElection, kQuiesced };
    MemberId target;
    Phase phase = Phase::kMockElection;
    uint64_t deadline_micros = 0;
  };

  // Message handlers.
  void HandleAppendEntries(const AppendEntriesRequest& request);
  void HandleAppendEntriesResponse(const AppendEntriesResponse& response);
  void HandleVoteRequest(const VoteRequest& request);
  void HandleVoteResponse(const VoteResponse& response);
  void HandleStartElection(const StartElectionRequest& request);

  // Role transitions.
  void BecomeLeader();
  void StepDown(uint64_t new_term, const MemberId& new_leader,
                const RegionId& leader_region);
  void WinElection();
  void AbortElection(const Status& reason);
  void FailTransfer(const Status& reason);
  /// Revokes the lease and sends TimeoutNow (a StartElectionRequest) to
  /// the transfer target (§2.2 Promotion).
  void SendTimeoutNow(const MemberId& target);
  /// Quiesced transfer step: TimeoutNow if `target` holds the whole log,
  /// else push appends toward it.
  void TimeoutNowOrCatchUp(const MemberId& target);

  // Replication plumbing.
  void SendAppendEntriesTo(const MemberId& peer_id, bool allow_empty);
  void BroadcastAppendEntries();
  /// Group-commit sync stage: schedule (at most one outstanding) deferred
  /// coalescing sync; RunGroupSync fsyncs the accumulated tail, then
  /// advances the commit marker (leader) or flushes the held cumulative
  /// ack (follower).
  void ScheduleGroupSync();
  void RunGroupSync();
  /// The one fsync site: syncs the log and, on success, moves the durable
  /// horizon (last_synced_index_) to the log tail.
  Status SyncLog();
  void NoteStallEnded(PeerStatus* peer);
  /// Term of the entry at `index` (0 for index 0), from log or cache.
  bool LookupTermAt(uint64_t index, uint64_t* term) const;
  /// Empty AppendEntries anchored at the peer's match point, carrying only
  /// the advanced commit marker past a full window.
  void SendMarkerOnlyHeartbeat(const MemberId& peer_id, PeerStatus* peer);
  /// Zero-copy send: assemble a batch directly from the cache's memoized
  /// compressed spans (borrowed buffers, no inflate/re-encode). False when
  /// the batch isn't fully cached, its raw bytes are below
  /// kWireCompressionMinBytes (checked before compressing anything) or
  /// compression isn't profitable — the caller falls back to
  /// FetchEntriesFor.
  bool TryFetchCompressed(uint64_t next_index, AppendEntriesRequest* request,
                          uint64_t* raw_bytes);
  /// Drops the peer's in-flight window and rewinds next_index to the
  /// first unacked entry (RPC loss / rejection recovery). Closes any open
  /// batch spans as cancelled.
  void CancelInflight(PeerStatus* peer);
  /// Compresses the request's entry payloads when the batch is large
  /// enough to be worth it (and it actually shrinks).
  void MaybeCompressPayloads(AppendEntriesRequest* request);
  void AdvanceCommitMarker();
  void SetCommitMarker(OpId new_marker);
  /// Header of every leader AppendEntries (data batches, marker-only and
  /// idle heartbeats, farewells): identity, term, commit marker, `prev`,
  /// then the lease and config stamps. `peer` is null for a farewell.
  void FillAppendHeader(const MemberId& dest, const PeerStatus* peer,
                        OpId prev, AppendEntriesRequest* request);
  /// Sends a request to a tracked peer, recording when it went out and
  /// the commit marker it carried.
  void SendToPeer(PeerStatus* peer, AppendEntriesRequest request);
  /// Lease plumbing (§13).
  uint64_t LeaseDurationMicros() const;
  /// Attach a lease grant request to an outbound AppendEntries (called by
  /// FillAppendHeader, so on every leader send path).
  void StampLease(AppendEntriesRequest* request);
  /// Fold a follower's echoed grant into its peer state (monotone max).
  void RecordLeaseGrant(const AppendEntriesResponse& response,
                        PeerStatus* peer);
  /// Drop every grant — called right before TimeoutNow so a hand-picked
  /// successor, electable well inside the grants' lifetime, can never
  /// race this (still unaware, not yet deposed) leaseholder's reads.
  void RevokeLease();
  /// Count `from`'s fresh current-term ack towards the in-flight
  /// ReadIndex rounds it postdates, and release the rounds whose quorum
  /// is now confirmed. `acked_sent_micros` is our own send timestamp the
  /// ack echoed back: only acks to AppendEntries sent at-or-after a
  /// round's registration prove we were still leader then — an ack that
  /// was already in flight proves nothing about the present.
  void ConfirmQuorumReads(const MemberId& from, uint64_t acked_sent_micros);
  /// Fire barrier-fallback reads (leases off) whose no-op barrier the
  /// commit marker now covers.
  void CompleteBarrierReads();
  void FailPendingReads(const Status& reason);
  /// Leader-side ceiling on how long a registered quorum read may sit
  /// unconfirmed before it fails with TimedOut.
  uint64_t ReadDeadlineMicros() const;
  Status AppendToLocalLog(const LogEntry& entry);
  Result<std::vector<LogEntry>> FetchEntriesFor(uint64_t next_index,
                                                uint64_t* prev_term);

  // Election plumbing.
  Status BeginElection(ElectionMode mode, const MemberId& report_to,
                       OpId cursor);
  void RequestVotes();
  bool ElectionQuorumSatisfied(const std::set<MemberId>& granted) const;
  VoteResponse EvaluateVote(const VoteRequest& request);
  void ReportMockOutcome(const MemberId& report_to, bool success);

  // Config plumbing.
  Status ApplyConfig(const MembershipConfig& config);
  void RefreshPeers();
  Status PersistMeta();
  /// Stamp (config_term = current term, config_version + 1)
  /// on `new_config`, apply it locally as pending, and broadcast. With
  /// `force` unset, enforces the reconfig preconditions: leader, current
  /// config committed, a current-term entry committed, and at most one
  /// voting-membership change vs the current config.
  Status ProposeConfig(MembershipConfig new_config, bool force);
  /// Commit check for a pending config: installed on a quorum of the NEW
  /// config (per-peer acked config ids + self)? If so, persist it as
  /// committed.
  void MaybeCommitConfig();
  /// Follower-side install of a config carried on AppendEntries: adopt it
  /// iff its identity is newer than ours.
  void MaybeInstallConfig(const AppendEntriesRequest& request);
  /// Attach the active config to an outbound AppendEntries unless `peer`'s
  /// latest response already echoed its identity (every leader send path —
  /// the StampLease analogue). `peer` is null for a farewell to a removed
  /// member, which always carries it.
  void StampConfig(const PeerStatus* peer, AppendEntriesRequest* request);
  /// Fold a response's config echo into the peer state: the install-quorum
  /// maximum, and whether the next request still needs the config.
  void RecordConfigEcho(const AppendEntriesResponse& response,
                        PeerStatus* peer);

  uint64_t ElectionTimeoutMicros() const;
  void ResetElectionTimer();
  // Tick()'s deadlines: each is the first local time its branch of Tick()
  // acts (0 = now, UINT64_MAX = never). Tick() tests `now >= ...`, and
  // NextTickDueMicros() takes the minimum of the same functions.
  /// The tail is unsynced and no group sync is scheduled for it.
  bool TailSyncDropped() const;
  /// When `peer`'s oldest in-flight batch times out (window non-empty).
  uint64_t RpcTimeoutDueMicros(const PeerStatus& peer) const;
  /// When `peer` is sent an AppendEntries: now while entries or a commit
  /// marker advance wait, else its idle heartbeat, never while batches
  /// are in flight.
  uint64_t SendDueMicros(const PeerStatus& peer) const;
  uint64_t TransferDueMicros() const;       // transfer_ set
  uint64_t ReadDueMicros() const;           // pending_reads_ non-empty
  uint64_t ElectionRoundDueMicros() const;  // election_ set
  uint64_t LeaderTimeoutDueMicros() const;
  /// Most recent evidence of a leader's existence (last-known-leader view
  /// combined with voting history, excluding votes for `candidate`).
  void PotentialLeaderEvidence(const MemberId& candidate, uint64_t* term,
                               RegionId* region) const;
  QuorumContext MakeQuorumContext(const MemberId& subject) const;
  const MemberInfo* SelfInfo() const;
  bool IsVoterSelf() const;

  /// Resolved handles to the registry-backed metrics (stable pointers,
  /// bumped directly on the hot path).
  struct Metrics {
    metrics::Counter* elections_started;
    metrics::Counter* elections_won;
    metrics::Counter* pre_votes_started;
    metrics::Counter* mock_elections_started;
    metrics::Counter* heartbeats_sent;
    metrics::Counter* entries_replicated;
    metrics::Counter* append_rejections;
    /// Follower side: entries received that the log already held (each
    /// one a wasted send by the leader).
    metrics::Counter* duplicate_entries_received;
    metrics::Counter* cache_fallback_reads;
    metrics::Counter* step_downs;
    /// Pipelining: sends skipped because a peer's window was full.
    metrics::Counter* pipeline_stalls;
    /// Responses discarded as stale (reordered acks from before a rewind).
    metrics::Counter* stale_responses_ignored;
    /// Rejections/timeouts that cancelled an in-flight suffix.
    metrics::Counter* window_rewinds;
    metrics::Counter* wire_batches_compressed;
    /// Batches shipped straight from the cache's compressed spans.
    metrics::Counter* zero_copy_batches;
    /// Coalescing syncs actually issued / extra Replicate() calls that
    /// piggybacked on an already-scheduled one.
    metrics::Counter* group_syncs;
    metrics::Counter* group_sync_coalesced;
    /// Marker-only heartbeats squeezed past a full window.
    metrics::Counter* marker_only_heartbeats;
    /// Lease grants folded into peer state (renewals included).
    metrics::Counter* lease_renewals;
    /// LinearizableRead served locally under a valid lease.
    metrics::Counter* reads_lease;
    /// LinearizableRead served via the ReadIndex quorum fallback.
    metrics::Counter* reads_quorum;
    /// Pending quorum reads failed at the leader-side deadline (a leader
    /// cut off from its quorum must not hoard read callbacks forever).
    metrics::Counter* reads_timed_out;
    /// Window occupancy (batches in flight) sampled at each batch send.
    metrics::HistogramMetric* inflight_window_batches;
    /// Per-batch RTT, recorded when the batch is acked.
    metrics::HistogramMetric* peer_rtt_us;
    /// Time spent with a peer's window full, recorded when a stall ends.
    metrics::HistogramMetric* stall_duration_us;
    /// Replicate() -> commit-marker advance, leader side.
    metrics::HistogramMetric* commit_advance_latency_us;
  };

  RaftOptions options_;
  LogAbstraction* log_;
  const QuorumEngine* quorum_;
  ConsensusMetadataStore* meta_store_;
  Clock* clock_;
  Random* rng_;
  RaftOutbox* outbox_;
  StateMachineListener* listener_;

  std::unique_ptr<metrics::MetricRegistry> owned_metrics_;
  metrics::MetricRegistry* metrics_;
  Metrics m_;

  ConsensusMetadata meta_;
  RaftRole role_ = RaftRole::kFollower;
  MemberId leader_;
  OpId commit_marker_;
  LogCache cache_;

  std::map<MemberId, PeerStatus> peers_;  // leader-side progress
  std::optional<ElectionState> election_;
  std::optional<TransferState> transfer_;
  std::optional<int> election_votes_override_;

  uint64_t last_leader_contact_micros_ = 0;
  uint64_t election_timeout_micros_ = 0;  // current randomized timeout
  /// Encoding of meta_.config, filled on first use and cleared whenever
  /// the config changes: the leader stamps it without re-encoding, and a
  /// follower skips decoding a stamp of the config it already holds.
  std::string config_payload_;

  /// Durable (fsynced) tail of the local log; trails log_->LastOpId()
  /// between Append and Sync.
  uint64_t last_synced_index_ = 0;
  /// Group-commit sync stage: one coalescing sync outstanding at a time.
  bool group_sync_scheduled_ = false;
  /// Follower-side coalesced ack held until the covering sync completes:
  /// one cumulative response replaces the per-batch ones for every batch
  /// that arrived this instant.
  bool follower_ack_pending_ = false;
  MemberId follower_ack_dest_;
  /// Highest index the held batches actually verified against the leader's
  /// log. The cumulative ack reports this, never the raw tail: the tail can
  /// still carry a divergent unverified suffix (rejoined deposed leader).
  uint64_t follower_ack_verified_index_ = 0;
  uint64_t follower_ack_trace_id_ = 0;
  uint64_t follower_ack_span_id_ = 0;
  /// Lease echo carried by the next coalesced cumulative ack: max send
  /// timestamp over the held batches' grant requests (0 = none).
  uint64_t follower_ack_lease_echo_ = 0;
  /// Deferred lease handoff (§13): leader-clock time before which a
  /// fresh leader refuses lease reads, waiting out every grant the
  /// deposed leader could still hold. 0 outside leadership.
  uint64_t lease_serve_after_micros_ = 0;
  /// ReadIndex fallback rounds awaiting fresh quorum acks (leader side).
  struct PendingQuorumRead {
    OpId read_marker;
    /// Registration time (our clock): acks only count if they echo a
    /// send timestamp at or after this.
    uint64_t registered_micros = 0;
    /// Commit-barrier fallback (leases off): index of the no-op this read
    /// completes on instead of counting echoed acks. 0 = echo round.
    uint64_t barrier_index = 0;
    std::set<MemberId> confirmed;
    ReadCallback done;
  };
  std::deque<PendingQuorumRead> pending_reads_;
  /// In-flight read-barrier no-op (leases off): reads registered while it
  /// is uncommitted share it instead of appending one no-op each.
  uint64_t read_barrier_index_ = 0;
  /// Startup lease embargo (§13.6): until this leader-clock instant, a
  /// freshly restarted voter refuses pre-votes AND binding votes — a
  /// lease grant echoed just before a crash is a promise that must
  /// survive the restart, and nothing about it is persisted.
  uint64_t vote_embargo_until_micros_ = 0;
  /// Leader-side Replicate() timestamps awaiting commit, for the
  /// commit-advance latency histogram. Cleared on step down.
  std::map<uint64_t, uint64_t> replicate_time_micros_;
  /// Leader-side trace contexts of uncommitted traced entries, by index;
  /// consumed when the commit marker covers them. Cleared on step down.
  std::map<uint64_t, trace::TraceContext> replicate_trace_ctx_;
  MemberId last_commit_completer_;

  bool started_ = false;
};

}  // namespace myraft::raft

#endif  // MYRAFT_RAFT_CONSENSUS_H_

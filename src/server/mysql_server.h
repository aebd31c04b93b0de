// MySqlServer: the MySQL stand-in at the heart of MyRaft. One instance
// models one replicaset member: a full database (storage engine + binlog +
// applier + client sessions) for MySQL members, or a log-only logtailer
// for witnesses.
//
// §3.4 — writes on the primary run the three-stage commit pipeline:
//   1. Flush: the transaction is prepared in the engine, its binlog
//      payload is finalised with GTID + OpId, and written to the binlog
//      via Raft (Replicate);
//   2. Wait for Raft consensus commit: the write parks in pending_ until
//      the commit marker covers it;
//   3. Storage-engine commit: CommitPrepared releases row locks and the
//      client callback fires.
//
// §3.5 — on replicas the applier consumes committed entries from the
// relay log and drives them through the same prepare/commit path.
//
// §3.1/§3.3 — the server is Raft's callback API (StateMachineListener):
// it owns the consensus instance, its durable metadata and the binlog
// adapter that makes the binlog Raft's log, and orchestrates role changes
// from the callbacks: promotion (no-op barrier → applier catch-up → log
// rewiring → enable writes → service-discovery publish) and demotion
// (abort in-flight → disable writes → rewiring → truncation GTID cleanup
// → applier restart from the engine's recovered cursor).

#ifndef MYRAFT_SERVER_MYSQL_SERVER_H_
#define MYRAFT_SERVER_MYSQL_SERVER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "binlog/transaction.h"
#include "raft/consensus.h"
#include "raft/consensus_metadata.h"
#include "server/binlog_log_adapter.h"
#include "server/service_discovery.h"
#include "storage/engine.h"
#include "util/metrics.h"

namespace myraft::server {

struct MySqlServerOptions {
  std::string replicaset = "rs0";
  MemberId id;
  RegionId region;
  MemberKind kind = MemberKind::kMySql;
  std::string data_dir;
  uint32_t numeric_server_id = 0;
  Uuid server_uuid;
  raft::RaftOptions raft;
  /// Checkpoint the storage engine once its WAL exceeds this size
  /// (bounds crash-recovery replay). 0 disables.
  uint64_t engine_checkpoint_wal_bytes = 32ull << 20;
  /// Parallel applier worker slots (§3.5). Transactions whose commit
  /// intervals prove independence dispatch to free slots; engine commits
  /// still happen in log order (commit-order-preserving). 1 = serial.
  uint32_t applier_workers = 4;
  /// Modelled per-transaction apply cost charged to a worker slot. The
  /// sim is single-threaded; parallelism shows up as overlapping busy
  /// windows on the virtual slots. 0 keeps the applier synchronous
  /// (existing tests, and real wall-clock work stays off the hot path).
  uint64_t applier_txn_cost_micros = 0;
  /// Destination for this member's metrics ("server.*" plus the nested
  /// raft/log_cache/binlog families). Null means a private per-instance
  /// registry (unit-test isolation).
  metrics::MetricRegistry* metrics = nullptr;
  /// Optional causal trace journal, shared with the nested raft/binlog
  /// subsystems (commit-stage spans, apply spans, promotion timeline).
  trace::Tracer* tracer = nullptr;
  /// Slow-transaction log: when a commit's total latency (submit ->
  /// engine commit) exceeds this, emit a structured one-line summary with
  /// per-stage micros and the quorum-ack straggler. 0 disables.
  uint64_t slow_txn_threshold_micros = 0;
  /// Fired (when set) with that same summary line on every breach — how
  /// the flight recorder's slow-transaction trigger taps in (§14).
  std::function<void(const std::string&)> slow_txn_hook;
};

struct WriteResult {
  Status status;
  binlog::Gtid gtid;
  OpId opid;
};
using WriteCallback = std::function<void(const WriteResult&)>;

/// Outcome of a gated read (SubmitRead). `applied_index` is the apply
/// cursor at serve time — always >= the requested floor on success, so
/// clients can thread it into their next read for session monotonicity.
struct ReadResult {
  Status status;
  std::optional<std::string> value;
  uint64_t applied_index = 0;
};
using ReadCallback = std::function<void(const ReadResult&)>;

struct MasterStatus {
  std::string file;
  uint64_t position = 0;
  std::string executed_gtid_set;
};

struct ReplicaStatus {
  bool applier_running = false;
  OpId last_applied;
  OpId commit_marker;
  uint64_t lag_entries = 0;
  MemberId primary;
};

struct BinaryLogInfo {
  std::string name;
  uint64_t size = 0;
};

/// Point-in-time view of everything the chaos invariant checker asserts
/// over (src/chaos): consensus positions, the durable horizon, GTID sets
/// and engine state. Cheap to capture; taken after every quiescent window.
struct InvariantSnapshot {
  RaftRole role = RaftRole::kFollower;
  uint64_t term = 0;
  MemberId leader;
  OpId commit_marker;
  OpId last_logged;
  uint64_t first_log_index = 0;
  /// Highest log index covered by an fsync (what a power-loss keeps).
  uint64_t last_durable_index = 0;
  bool writes_enabled = false;
  std::string gtids_in_log;
  // Engine view (zero/empty for logtailers):
  std::string executed_gtids;
  OpId last_applied;
  uint64_t state_checksum = 0;
  uint64_t row_count = 0;
};

class MySqlServer final : public raft::StateMachineListener {
 public:
  /// Structured state dump (DESIGN.md §14): the consensus DebugStatus
  /// plus the server-side pipeline — the `SHOW RAFT STATUS` analogue a
  /// DBA would read. Serialised into flight-recorder bundles and
  /// `bench_chaos --raftstat`.
  struct DebugStatusSnapshot {
    raft::RaftConsensus::DebugStatusSnapshot raft;
    bool writes_enabled = false;
    DbRole db_role = DbRole::kReplica;
    uint64_t applied_index = 0;
    uint64_t next_apply_index = 0;
    size_t apply_window = 0;    // admitted, not yet retired
    size_t pending_commits = 0; // stage-2 consensus wait
    size_t parked_reads = 0;    // gated on the apply cursor
    uint64_t primary_applied_floor = 0;
    std::string executed_gtid_set;

    std::string ToJson() const;
  };

  /// Opens (or recovers) all storage and wires up consensus. Call
  /// Bootstrap() (first boot of the ring) or Start() (restart) next.
  static Result<std::unique_ptr<MySqlServer>> Create(
      Env* env, MySqlServerOptions options, const raft::QuorumEngine* quorum,
      Clock* clock, Random* rng, raft::RaftOutbox* outbox,
      ServiceDiscovery* discovery);

  MySqlServer(const MySqlServer&) = delete;
  MySqlServer& operator=(const MySqlServer&) = delete;

  Status Bootstrap(const MembershipConfig& config);
  Status Start();

  // --- Event entry points (driven by the host) -------------------------------

  void HandleMessage(const Message& message) {
    consensus_->HandleMessage(message);
  }
  void Tick();
  /// Earliest local time at which Tick() can act (0 = now, UINT64_MAX =
  /// never): the consensus value, or 0 while any server-side step of
  /// Tick() has work.
  uint64_t NextTickDueMicros() const;

  /// When the applier's low-water task is still charged to a busy virtual
  /// worker slot, the absolute time that slot frees up (0 when nothing is
  /// pending or it is already retirable). Hosts schedule a PumpApplier()
  /// at this deadline so modelled apply costs shorter than the periodic
  /// tick interval still translate into applier throughput.
  uint64_t NextApplierDeadlineMicros() const;
  /// Retire/dispatch pump outside the periodic tick (see above).
  void PumpApplier() {
    if (!apply_window_.empty()) RunApplier();
  }

  // --- Client surface ----------------------------------------------------------

  /// Submits a write transaction. `done` fires after engine commit
  /// (success) or on abort. Asynchronous: commit requires consensus.
  /// `trace_ctx` (optional) parents the commit-pipeline spans under the
  /// caller's client span; untraced submissions mint their own trace when
  /// a tracer is configured.
  void SubmitWrite(std::vector<binlog::RowOperation> ops, WriteCallback done,
                   trace::TraceContext trace_ctx = {});
  /// Committed read (any MySQL member; logtailers have no data).
  std::optional<std::string> Read(const std::string& table,
                                  const std::string& key) const;
  /// Read-your-writes gated read (§13): serves from the engine once the
  /// apply cursor covers `min_index` (the client's last-seen raft index /
  /// a leader's ReadIndex), parking until the applier catches up
  /// otherwise. `min_index` 0 reads whatever is applied now. Works on
  /// primaries (pipeline engine commits advance the cursor) and replicas
  /// (the parallel applier's low-water mark gates).
  void SubmitRead(const std::string& table, const std::string& key,
                  uint64_t min_index, ReadCallback done);
  /// Highest raft index whose effects are visible to reads on this
  /// member (the GTID-wait gate's cursor).
  uint64_t AppliedIndex() const;

  bool writes_enabled() const { return writes_enabled_; }
  DbRole db_role() const;

  // --- Admin commands (§3) ------------------------------------------------------

  MasterStatus ShowMasterStatus() const;
  std::vector<BinaryLogInfo> ShowBinaryLogs() const;
  /// SHOW BINLOG EVENTS IN '<file>'.
  Result<std::vector<binlog::BinlogManager::EventSummary>> ShowBinlogEvents(
      const std::string& file) const {
    return binlog_->DescribeFile(file);
  }
  ReplicaStatus ShowReplicaStatus() const;
  /// Replicated rotation (§A.1); primary only.
  Status FlushBinaryLogs();
  /// Purges files strictly before `file`, consulting Raft watermarks so
  /// logs are never purged before they are fully shipped (§A.1).
  Status PurgeLogsTo(const std::string& file);
  /// Replication is Raft-managed; these legacy commands are disallowed.
  Status ChangeMasterTo() { return Status::NotSupported("handled by Raft"); }
  Status ResetMaster() { return Status::NotSupported("handled by Raft"); }
  Status ResetReplica() { return Status::NotSupported("handled by Raft"); }

  // --- Control-plane passthrough -------------------------------------------------

  Status TransferLeadership(const MemberId& target) {
    return consensus_->TransferLeadership(target);
  }
  Status AddMember(const MemberInfo& member) {
    return consensus_->AddMember(member);
  }
  Status RemoveMember(const MemberId& member) {
    return consensus_->RemoveMember(member);
  }
  Status SetMemberType(const MemberId& member, RaftMemberType type) {
    return consensus_->SetMemberType(member, type);
  }
  Status SetQuorumSpec(const std::string& spec) {
    return consensus_->SetQuorumSpec(spec);
  }

  // --- Introspection -------------------------------------------------------------

  raft::RaftConsensus* consensus() { return consensus_.get(); }
  const raft::RaftConsensus* consensus() const { return consensus_.get(); }
  storage::MiniEngine* engine() { return engine_.get(); }
  const storage::MiniEngine* engine() const { return engine_.get(); }
  binlog::BinlogManager* binlog_manager() { return binlog_.get(); }
  const MySqlServerOptions& options() const { return options_; }
  metrics::MetricRegistry* metrics() const { return metrics_; }
  /// Checksum of committed database state (§5.1 consistency checks).
  uint64_t StateChecksum() const {
    return engine_ != nullptr ? engine_->StateChecksum() : 0;
  }
  /// Snapshot for the chaos invariant checker.
  InvariantSnapshot CaptureInvariantSnapshot() const;
  /// Full structured state dump (see DebugStatusSnapshot).
  DebugStatusSnapshot DebugStatus() const;
  /// Observer for role changes (instrumentation for downtime probes).
  void set_role_change_callback(std::function<void(DbRole)> cb) {
    role_change_cb_ = std::move(cb);
  }

  // --- StateMachineListener (Raft -> server, §3.1) ---------------------------

  /// Won an election; runs promotion steps 1-5 of §3.3.
  void OnLeadershipAcquired(uint64_t term, OpId noop_opid) override;
  /// Lost leadership; runs demotion steps 1-5 of §3.3.
  void OnLeadershipLost(uint64_t term) override;
  void OnCommitAdvanced(OpId marker) override;
  /// New entry in the local log (signals the applier on replicas, §3.5).
  void OnEntryAppended(const LogEntry& entry) override;
  void OnLeadershipTransferFailed(const MemberId& target,
                                  const Status& reason) override;

 private:
  struct PendingCommit {
    uint64_t xid = 0;
    OpId opid;
    binlog::Gtid gtid;
    /// When the client submitted (stage-1 entry), for the slow-txn log.
    uint64_t submitted_micros = 0;
    /// When stage 1 (flush via Raft) finished, for the stage-2
    /// consensus-wait latency histogram.
    uint64_t flushed_micros = 0;
    /// Trace context: the transaction's trace, the whole-commit span and
    /// the open stage-2 consensus-wait span (0 when untraced).
    uint64_t trace_id = 0;
    uint64_t total_span = 0;
    uint64_t wait_span = 0;
    WriteCallback done;
  };

  struct PromotionState {
    uint64_t term = 0;
    OpId noop;
    uint64_t started_micros = 0;
    /// Set once prerequisites hold; completion fires when the clock
    /// passes it (modelling the orchestration steps' latency).
    uint64_t ready_at_micros = 0;
    /// Open "server.promotion" span (0 when untraced).
    uint64_t trace_span = 0;
  };

  /// One committed entry admitted to the parallel-apply window. Engine
  /// work (Begin/Put/Prepare) happens at dispatch; CommitPrepared happens
  /// strictly in index order as the low-water mark reaches the task, so
  /// `engine_->LastAppliedOpId()` stays a correct recovery cursor.
  struct ApplyTask {
    OpId opid;
    bool is_txn = false;
    bool skip = false;  // GTID already executed (idempotent replay)
    uint64_t xid = 0;
    binlog::Gtid gtid;
    /// Virtual worker slot finishes the modelled apply work at this time.
    uint64_t ready_at_micros = 0;
    /// Open "applier.apply" span, parented under the originating commit
    /// via the GTID-body trace context (0 when untraced).
    uint64_t trace_span = 0;
    /// Qualified row keys locked by this task ("db.table/key").
    std::vector<std::string> writeset;
  };

  /// The committed entry at the dispatch cursor, read and parsed by a
  /// pass that then stalled on it (dependency or writeset gate). Later
  /// passes resume from it instead of reading and parsing it again; a
  /// committed entry never changes, so it stays valid until dispatched or
  /// the applier resets.
  struct DispatchHead {
    uint64_t index = 0;
    OpId opid;
    binlog::ParsedTransaction txn;
  };

  /// Resolved registry-backed metric handles.
  struct Metrics {
    metrics::Counter* writes_accepted;
    metrics::Counter* writes_rejected_read_only;
    metrics::Counter* writes_rejected_conflict;
    metrics::Counter* writes_committed;
    metrics::Counter* writes_aborted_on_demotion;
    metrics::Counter* applier_transactions_applied;
    metrics::Counter* applier_dependency_stalls;
    metrics::Counter* applier_conflict_stalls;
    metrics::Counter* promotions_completed;
    metrics::Counter* demotions;
    metrics::Counter* engine_checkpoints;
    /// Three-stage group-commit pipeline (§3.4) stage latencies.
    metrics::HistogramMetric* commit_stage_flush_us;
    metrics::HistogramMetric* commit_stage_consensus_wait_us;
    metrics::HistogramMetric* commit_stage_engine_commit_us;
    metrics::HistogramMetric* promotion_latency_us;
    /// Entries between the consensus commit marker and the applier cursor.
    metrics::Gauge* applier_lag_entries;
    /// Same lag, recorded as a distribution each applier pump.
    metrics::HistogramMetric* applier_lag_hist;
    /// Busy worker slots at each dispatch.
    metrics::HistogramMetric* applier_concurrency;
    /// Gated-read path (§13): reads served (immediately or after a
    /// wait), reads that had to park for the applier, and the wait time.
    metrics::Counter* reads_served;
    metrics::Counter* reads_gated;
    metrics::HistogramMetric* read_wait_us;
  };

  MySqlServer(Env* env, MySqlServerOptions options, Clock* clock)
      : env_(env),
        options_(std::move(options)),
        clock_(clock),
        meta_store_(env, options_.data_dir + "/cmeta") {}

  Random* rng_ = nullptr;

  Status Init(const raft::QuorumEngine* quorum, Random* rng,
              raft::RaftOutbox* outbox, ServiceDiscovery* discovery);

  /// Applies committed entries from the log to the engine (§3.5):
  /// dependency-tracked parallel dispatch, commit-order-preserving retire.
  void RunApplier();
  /// Rolls back window tasks and resets both cursors to the engine's
  /// recovered position (demotion, truncation through the window).
  void ResetApplier();
  /// The engine WAL is over engine_checkpoint_wal_bytes (Tick() also
  /// waits for prepared transactions to drain before checkpointing).
  bool CheckpointDue() const;
  /// Raft truncated a not-consensus-committed suffix; these GTIDs were
  /// removed from the log's GTID metadata (§3.3 demotion step 4).
  void OnGtidsTruncated(const binlog::GtidSet& removed);
  void MaybeCompletePromotion();
  /// A logtailer that won an election hands leadership to the most
  /// caught-up MySQL voter (§2.2).
  void MaybeWitnessHandoff();
  /// Serves parked reads whose floor the apply cursor now covers.
  void MaybeServeReads();
  void SetDbRole(DbRole role);

  Env* env_;
  MySqlServerOptions options_;
  Clock* clock_;
  std::unique_ptr<binlog::BinlogManager> binlog_;
  std::unique_ptr<storage::MiniEngine> engine_;  // null for logtailers
  /// Raft's log is the binlog (§3.1); the adapter and consensus are built
  /// in Init once the binlog is open.
  std::unique_ptr<BinlogLogAdapter> log_adapter_;
  raft::ConsensusMetadataStore meta_store_;
  std::unique_ptr<raft::RaftConsensus> consensus_;
  ServiceDiscovery* discovery_ = nullptr;

  bool writes_enabled_ = false;
  DbRole db_role_ = DbRole::kReplica;
  uint64_t next_txn_no_ = 1;
  /// Primary-side applied floor: highest commit marker whose whole prefix
  /// is reflected in local engine state (every pending write at or below
  /// it engine-committed; no-op/config entries are state-invisible).
  /// Needed because the engine cursor alone never advances past no-ops —
  /// a read fenced at a commit-barrier no-op (§13.2) would park forever.
  uint64_t primary_applied_floor_ = 0;
  /// Low-water mark: everything below is engine-committed in log order.
  uint64_t next_apply_index_ = 1;
  /// Next entry to admit to the apply window (>= next_apply_index_).
  uint64_t next_dispatch_index_ = 1;
  /// Dispatched-but-not-retired tasks, keyed by raft index.
  std::map<uint64_t, ApplyTask> apply_window_;
  std::optional<DispatchHead> dispatch_head_;
  /// Row keys locked by in-window tasks (writeset conflict safety net).
  std::set<std::string> applier_inflight_writes_;
  /// Busy-until timestamps of the virtual applier worker slots.
  std::vector<uint64_t> applier_free_at_;
  /// Highest engine-committed index when the last write was stamped —
  /// the MySQL-style `last_committed` for dependency intervals.
  uint64_t group_commit_last_committed_ = 0;
  std::map<uint64_t, PendingCommit> pending_;  // by raft index
  /// Reads parked behind the GTID-wait gate, keyed by the minimum raft
  /// index they need applied. Survive role changes: committed entries are
  /// never truncated, so the cursor eventually covers every parked floor
  /// (clients bound the wait with their own timeouts).
  struct ParkedRead {
    std::string table;
    std::string key;
    uint64_t parked_micros = 0;
    ReadCallback done;
  };
  std::multimap<uint64_t, ParkedRead> parked_reads_;
  std::optional<PromotionState> promotion_;
  bool witness_handoff_pending_ = false;
  std::function<void(DbRole)> role_change_cb_;

  std::unique_ptr<metrics::MetricRegistry> owned_metrics_;
  metrics::MetricRegistry* metrics_ = nullptr;
  Metrics m_;
};

}  // namespace myraft::server

#endif  // MYRAFT_SERVER_MYSQL_SERVER_H_

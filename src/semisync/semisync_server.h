// The "prior setup" baseline (§1, §6): MySQL semi-synchronous replication
// with roles managed by external automation. One SemiSyncServer models a
// member of the legacy replicaset:
//
//  * the primary appends client transactions to its binlog and ships them
//    to every receiver; the commit waits for `required_acks`
//    acknowledgements from the designated semi-sync ackers (the in-region
//    logtailers of Table 1), degrading to asynchronous commit after the
//    ack timeout exactly like rpl_semi_sync_master_timeout;
//  * replicas append into their relay log and apply immediately (no
//    consensus-commit marker — the well-known semi-sync caveat);
//  * there are no elections: MakePrimary / MakeReplica / SetReadOnly are
//    invoked by the external automation (src/semisync/automation.h), and a
//    monotonically increasing generation number stamped into entries
//    fences deposed primaries;
//  * on re-pointing, a diverged local tail is truncated ("log healing" by
//    automation), with the lost transactions counted.
//
// The wire format reuses AppendEntriesRequest/Response (term carries the
// generation); votes and elections are never used.

#ifndef MYRAFT_SEMISYNC_SEMISYNC_SERVER_H_
#define MYRAFT_SEMISYNC_SEMISYNC_SERVER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "binlog/binlog_manager.h"
#include "storage/engine.h"
#include "util/clock.h"
#include "wire/messages.h"

namespace myraft::semisync {

struct SemiSyncOptions {
  std::string replicaset = "rs0";
  MemberId id;
  RegionId region;
  MemberKind kind = MemberKind::kMySql;
  std::string data_dir;
  uint32_t numeric_server_id = 0;
  Uuid server_uuid;

  /// Semi-sync ack settings (rpl_semi_sync_master_*).
  int required_acks = 1;
  uint64_t ack_timeout_micros = 1'000'000;  // then degrade to async
};

struct SemiSyncWriteResult {
  Status status;
  binlog::Gtid gtid;
  bool degraded_to_async = false;
};
using SemiSyncWriteCallback = std::function<void(const SemiSyncWriteResult&)>;

class SemiSyncServer {
 public:
  struct Stats {
    uint64_t writes_committed = 0;
    uint64_t commits_degraded_to_async = 0;
    uint64_t applier_transactions_applied = 0;
    uint64_t healed_transactions = 0;  // diverged tail truncated
  };

  /// True once a truncated (healed) transaction was found already
  /// committed in the engine: the classic semi-sync acknowledged-but-lost
  /// write. Real automation schedules a host rebuild when this fires;
  /// MyRaft makes the situation impossible.
  bool engine_diverged() const { return engine_diverged_; }

  using SendFn = std::function<void(Message)>;

  static Result<std::unique_ptr<SemiSyncServer>> Create(
      Env* env, SemiSyncOptions options, Clock* clock, SendFn send);

  SemiSyncServer(const SemiSyncServer&) = delete;
  SemiSyncServer& operator=(const SemiSyncServer&) = delete;

  // --- Control plane (driven by external automation) --------------------------

  /// Configures this member as the primary at `generation`, shipping to
  /// `receivers` and requiring acks from `ackers`.
  Status MakePrimary(uint64_t generation, std::vector<MemberId> receivers,
                     std::set<MemberId> ackers);
  /// Configures this member as a replica of `primary`. A diverged tail
  /// (entries the new primary does not have) is truncated when the new
  /// stream arrives.
  Status MakeReplica(const MemberId& primary);
  void SetReadOnly(bool read_only);
  bool read_only() const { return read_only_; }
  bool is_primary() const { return is_primary_; }
  uint64_t generation() const { return generation_; }
  /// Who this replica replicates from ("" when unconfigured, e.g. right
  /// after a restart until automation re-points it).
  const MemberId& replication_source() const { return primary_; }

  // --- Data plane -----------------------------------------------------------------

  void SubmitWrite(std::vector<binlog::RowOperation> ops,
                   SemiSyncWriteCallback done);
  std::optional<std::string> Read(const std::string& table,
                                  const std::string& key) const;

  void HandleMessage(const Message& message);
  /// Drives shipping retries and ack timeouts (replicas: the applier).
  void Tick();

  // --- Introspection ----------------------------------------------------------------

  OpId LastLogged() const { return binlog_->LastOpId(); }
  const binlog::GtidSet& ExecutedGtids() const;
  storage::MiniEngine* engine() { return engine_.get(); }
  binlog::BinlogManager* binlog_manager() { return binlog_.get(); }
  const Stats& stats() const { return stats_; }
  uint64_t StateChecksum() const {
    return engine_ != nullptr ? engine_->StateChecksum() : 0;
  }
  const SemiSyncOptions& options() const { return options_; }
  /// Replication progress of `member` as seen by the primary.
  uint64_t ReceiverMatchIndex(const MemberId& member) const;

 private:
  /// Primary-side stream state of one receiver. The binlog streams: each
  /// flushed write ships at once, ahead of the acks for earlier batches.
  struct Receiver {
    uint64_t next_index = 1;
    uint64_t match_index = 0;
    /// Highest index shipped; entries past match_index are unacked.
    uint64_t shipped_index = 0;
    uint64_t last_rpc_sent_micros = 0;
  };

  struct PendingCommit {
    uint64_t xid = 0;
    OpId opid;
    binlog::Gtid gtid;
    SemiSyncWriteCallback done;
    int acks = 0;
    uint64_t deadline_micros = 0;
  };

  SemiSyncServer(Env* env, SemiSyncOptions options, Clock* clock, SendFn send)
      : env_(env),
        options_(std::move(options)),
        clock_(clock),
        send_(std::move(send)) {}

  Status Init();
  void HandleAppendEntries(const AppendEntriesRequest& request);
  void HandleAppendEntriesResponse(const AppendEntriesResponse& response);
  void ShipTo(const MemberId& receiver_id);
  void CompletePending(PendingCommit pending, bool degraded);
  void ApplyFromRelayLog();
  Status ApplyOneTransaction(const LogEntry& entry);

  Env* env_;
  SemiSyncOptions options_;
  Clock* clock_;
  SendFn send_;
  std::unique_ptr<binlog::BinlogManager> binlog_;
  std::unique_ptr<storage::MiniEngine> engine_;

  bool is_primary_ = false;
  bool read_only_ = true;
  uint64_t generation_ = 0;
  MemberId primary_;
  std::map<MemberId, Receiver> receivers_;
  std::set<MemberId> ackers_;
  std::map<uint64_t, PendingCommit> pending_;  // by index
  uint64_t next_txn_no_ = 1;
  uint64_t next_apply_index_ = 1;
  bool engine_diverged_ = false;
  Stats stats_;
};

}  // namespace myraft::semisync

#endif  // MYRAFT_SEMISYNC_SEMISYNC_SERVER_H_

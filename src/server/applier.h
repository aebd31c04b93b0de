// Applier: the §3.5 replica applier, one for both A/B arms (DESIGN.md
// §9.3). It applies relay-log entries up to a horizon its caller names (a
// MyRaft member's commit marker, a semi-sync replica's last logged index):
// dispatch in index order behind the dependency interval and the engine's
// row locks, retire (engine commit) strictly in index order.

#ifndef MYRAFT_SERVER_APPLIER_H_
#define MYRAFT_SERVER_APPLIER_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "binlog/binlog_manager.h"
#include "storage/engine.h"
#include "util/metrics.h"

namespace myraft::server {

/// Worker slots and per-transaction apply cost every member starts with:
/// MySqlServerOptions' defaults, and what the semi-sync arm applies with.
inline constexpr uint32_t kDefaultApplierWorkers = 4;
inline constexpr uint64_t kDefaultApplierTxnCostMicros = 0;

class Applier {
 public:
  /// Registers the "server.applier_*" metrics; `member` prefixes log
  /// lines. A null `engine` (a logtailer) applies nothing. The cursor
  /// starts right after the engine's last committed transaction (§A.2).
  Applier(std::string member, binlog::BinlogManager* log,
          storage::MiniEngine* engine, Clock* clock, uint32_t workers,
          uint64_t txn_cost_micros, metrics::MetricRegistry* metrics,
          trace::Tracer* tracer);

  /// Retires and dispatches (up to `horizon`) until neither progresses,
  /// then records the lag behind `horizon`.
  void Run(uint64_t horizon);
  /// Rolls back every window task and restarts both cursors at `next`.
  void Reset(uint64_t next);

  /// When the low-water task is still charged to a busy worker slot, the
  /// time that slot frees up; 0 when nothing is pending or it is already
  /// retirable. Hosts pump the applier at it.
  uint64_t NextDeadlineMicros() const;
  /// Low-water mark: everything below is engine-committed in log order.
  uint64_t next_apply_index() const { return next_apply_index_; }
  uint64_t next_dispatch_index() const { return next_dispatch_index_; }
  /// Admitted, not yet retired.
  size_t window_size() const { return window_.size(); }

 private:
  /// An admitted entry. Execute/Prepare happen at dispatch, CommitPrepared
  /// when the low-water mark reaches it.
  struct Task {
    OpId opid;
    bool is_txn = false;
    bool skip = false;  // GTID already executed (idempotent replay)
    uint64_t xid = 0;
    binlog::Gtid gtid{};
    uint64_t ready_at_micros = 0;  // its worker slot frees up
    uint64_t trace_span = 0;       // open "applier.apply" span, or 0
  };

  /// Engine-commits window tasks in index order.
  void Retire(uint64_t now);
  /// Admits entries up to `horizon`.
  void Dispatch(uint64_t horizon, uint64_t now);

  const std::string member_;
  binlog::BinlogManager* const log_;
  storage::MiniEngine* const engine_;
  Clock* const clock_;
  const uint64_t txn_cost_micros_;
  trace::Tracer* const tracer_;

  uint64_t next_apply_index_ = 1;
  uint64_t next_dispatch_index_ = 1;
  std::map<uint64_t, Task> window_;  // by raft index
  /// The transaction at the dispatch cursor, read and parsed by a pass
  /// that stalled on it; later passes resume from it. An entry below the
  /// horizon never changes, so it stays valid until dispatched or reset.
  std::optional<binlog::ParsedTransaction> dispatch_head_;
  std::vector<uint64_t> slot_free_at_;  // busy-until per worker slot

  metrics::Counter* const transactions_applied_;
  metrics::Counter* const dependency_stalls_;
  metrics::Counter* const conflict_stalls_;
  metrics::Gauge* const lag_entries_;  // horizon - low-water mark, each Run
  metrics::HistogramMetric* const lag_hist_;
  metrics::HistogramMetric* const concurrency_;  // busy slots per dispatch
};

}  // namespace myraft::server

#endif  // MYRAFT_SERVER_APPLIER_H_

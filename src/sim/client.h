// SimClient: the modelled client of the evaluation, extracted from
// ClusterHarness and bound to one Shard — routed writes with modelled
// client/server costs, leader/follower reads (§13), and the
// write/read-downtime probes behind the failover experiments (Table 2).
// The fleet instantiates one per shard; ClusterHarness keeps exactly one
// and forwards to it.

#ifndef MYRAFT_SIM_CLIENT_H_
#define MYRAFT_SIM_CLIENT_H_

#include <functional>
#include <optional>
#include <string>

#include "binlog/gtid.h"
#include "sim/downtime_probe.h"
#include "sim/shard.h"

namespace myraft::sim {

/// Modelled client-path constants (see EXPERIMENTS.md, "calibration").
struct ClientModelOptions {
  /// One-way client <-> primary latency.
  uint64_t one_way_micros = 150;
  /// Server-side execute+prepare+flush CPU/IO cost before Raft takes over
  /// (base + uniform jitter models statement mix and host load).
  uint64_t processing_micros = 200;
  uint64_t processing_jitter_micros = 0;
  /// Client-side timeout treated as a failed write (dead primary).
  uint64_t timeout_micros = 500'000;
};

struct ClientWriteResult {
  Status status;
  uint64_t latency_micros = 0;
  /// Identity of the committed transaction (zero/empty on failure or
  /// timeout). The chaos harness keys its acked-write durability ledger
  /// on these.
  binlog::Gtid gtid;
  OpId opid;
};

/// How a client read is routed (§13).
enum class ReadMode {
  /// To the leader: LinearizableRead (local under a valid lease, else
  /// a ReadIndex-style quorum round), then served at the read index.
  kLeader,
  /// To a follower picked by the proxy's staleness-budget steering,
  /// gated on the client's last-seen index (read-your-writes).
  kFollower,
};

struct ClientReadResult {
  Status status;
  uint64_t latency_micros = 0;
  std::optional<std::string> value;
  /// Leader reads: whether the lease fast path served it (false =
  /// quorum round). Always false for follower reads.
  bool served_by_lease = false;
  /// Apply cursor of the serving member — feed into the next read's
  /// `min_index` for session monotonicity.
  uint64_t applied_index = 0;
  /// The member that served (or refused) the read.
  MemberId served_by;
};

struct ClientReadOptions {
  ReadMode mode = ReadMode::kLeader;
  /// Follower mode: the client's last-seen raft index (0 = any applied
  /// state). Leader mode ignores it — ReadIndex supplies the floor.
  uint64_t min_index = 0;
  /// Region the client sits in (follower steering); empty = the shard's
  /// home region.
  RegionId client_region;
  /// Explicit destination override (skips routing).
  MemberId target;
};

struct DowntimeResult {
  bool recovered = false;
  uint64_t downtime_micros = 0;
};

class SimClient {
 public:
  struct Options {
    ClientModelOptions model;
    /// Tracer identity ("client" for the single-shard harness; the fleet
    /// uses "client.<rs>").
    std::string name = "client";
    /// Keeps client-minted trace ids disjoint from every node's.
    uint64_t trace_id_salt = 0xFFFF;
    size_t trace_capacity = 65'536;
  };

  using ClientCallback = std::function<void(const ClientWriteResult&)>;
  using ReadClientCallback = std::function<void(const ClientReadResult&)>;

  SimClient(Shard* shard, Options options);

  SimClient(const SimClient&) = delete;
  SimClient& operator=(const SimClient&) = delete;

  const ClientModelOptions& model() const { return options_.model; }

  /// Write routed to the published primary (or `target` if given), with
  /// modelled client latency + server processing cost.
  void ClientWrite(const std::string& key, const std::string& value,
                   ClientCallback done, const MemberId& target = "");
  /// Convenience: issue a write and run the loop until it completes.
  ClientWriteResult SyncWrite(const std::string& key,
                              const std::string& value,
                              uint64_t timeout_micros = 5'000'000);
  /// Read with modelled client latency + processing cost, routed per
  /// `read_options` (§13).
  void ClientRead(const std::string& key, ClientReadOptions read_options,
                  ReadClientCallback done);
  ClientReadResult SyncRead(const std::string& key,
                            ClientReadOptions read_options,
                            uint64_t timeout_micros = 5'000'000);
  ClientReadResult SyncRead(const std::string& key) {
    return SyncRead(key, ClientReadOptions());
  }

  /// Executes `disruption` and measures the client-observed write
  /// unavailability: the longest window during which probe writes
  /// (issued every `probe_interval`) fail.
  DowntimeResult MeasureWriteDowntime(std::function<void()> disruption,
                                      uint64_t probe_interval_micros = 10'000,
                                      uint64_t timeout_micros = 180'000'000,
                                      bool expect_outage = true);
  /// Same, for client-observed READ unavailability: probes leader reads
  /// (the lease path when enabled), so failover benches capture read
  /// downtime across the deferred lease handoff (§13).
  DowntimeResult MeasureReadDowntime(std::function<void()> disruption,
                                     uint64_t probe_interval_micros = 10'000,
                                     uint64_t timeout_micros = 180'000'000,
                                     bool expect_outage = true);

  /// Records the fault instant that anchors the failover timeline
  /// (TraceAnalyzer's t=0); it lives in the client journal since the
  /// crashed node's own journal dies with it.
  void NoteCrash(const MemberId& id, SimNode::CrashMode mode);

  /// Journal of the modelled client (root "client.write" spans and fault
  /// instants).
  trace::Tracer* tracer() { return &tracer_; }
  const trace::Tracer* tracer() const { return &tracer_; }

 private:
  Shard* shard_;
  Options options_;
  trace::Tracer tracer_;
};

}  // namespace myraft::sim

#endif  // MYRAFT_SIM_CLIENT_H_

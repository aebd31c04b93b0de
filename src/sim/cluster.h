// ClusterHarness: the single-shard view of the simulation. It owns the
// EventLoop/SimNetwork/ServiceDiscovery, instantiates exactly one Shard
// (the paper's §6.1 replicaset topology) plus its modelled SimClient, and
// layers the observability plane (DESIGN.md §14) on top. FleetHarness
// (src/fleet/) instantiates the same shard-core N times over one shared
// loop — this class is the N=1 case with the historical single-cluster
// API preserved.

#ifndef MYRAFT_SIM_CLUSTER_H_
#define MYRAFT_SIM_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/time_series.h"
#include "sim/client.h"
#include "sim/shard.h"

namespace myraft::sim {

/// Observability plane knobs (DESIGN.md §14). A nonzero sampling interval
/// enables the whole plane: a TimeSeriesSampler tick over every node
/// registry (plus "network"), a HealthMonitor fed from the same tick, and
/// a FlightRecorder wired to the trigger matrix (invariant violations and
/// crash injections fire from the chaos runner; slow-transaction breaches
/// and health transitions fire from the harness).
struct ObsOptions {
  uint64_t sample_interval_micros = 0;
  /// Sampler ring capacity, in windows.
  size_t window_capacity = 256;
  /// Merged-trace records embedded in a bundle's trace_tail section.
  size_t trace_tail_records = 256;
  /// Per-kind flight-recorder trigger cooldown.
  uint64_t trigger_cooldown_micros = 50'000;
  /// Health-monitor thresholds (sampler-cadence rolling windows).
  obs::HealthOptions health;
};

struct ClusterOptions {
  /// Ring shape (§6.1): regions, logtailers, learners, replicaset name.
  TopologyOptions topology;

  uint64_t seed = 1;
  NetworkOptions network;
  raft::RaftOptions raft;
  proxy::ProxyOptions proxy;
  bool proxy_enabled = true;
  /// Forwarded to every member's MySqlServerOptions.
  uint64_t engine_checkpoint_wal_bytes = 32ull << 20;
  /// Parallel applier knobs, forwarded to every member.
  uint32_t applier_workers = 4;
  uint64_t applier_txn_cost_micros = 0;
  /// Per-node (and client) trace journal ring size.
  size_t trace_capacity = 65'536;
  /// Forwarded to every member: slow-transaction log threshold (0 = off).
  uint64_t slow_txn_threshold_micros = 0;

  /// Observability plane (DESIGN.md §14).
  ObsOptions obs;

  /// Modelled client-path constants (see EXPERIMENTS.md, "calibration").
  ClientModelOptions client;
};

class ClusterHarness {
 public:
  ClusterHarness(ClusterOptions options, const raft::QuorumEngine* quorum);

  /// Creates all nodes and bootstraps the ring.
  Status Bootstrap();

  // --- Accessors ---------------------------------------------------------------

  EventLoop* loop() { return &loop_; }
  SimNetwork* network() { return &network_; }
  server::InMemoryServiceDiscovery* discovery() { return &discovery_; }

  /// The shard-core this harness wraps (FleetHarness hosts N of these).
  Shard* shard() { return shard_.get(); }
  /// The modelled client bound to the shard.
  SimClient* client() { return client_.get(); }
  /// Control-plane facade: membership/quorum changes and leadership
  /// transfers, each returning the resulting config identity.
  ShardAdmin* admin() { return admin_.get(); }

  SimNode* node(const MemberId& id) { return shard_->node(id); }
  std::vector<MemberId> ids() const { return shard_->ids(); }
  std::vector<MemberId> database_ids() const {
    return shard_->database_ids();
  }
  const MembershipConfig& config() const { return shard_->config(); }

  /// Database member currently published as primary with writes enabled
  /// ("" if none).
  MemberId CurrentPrimary() { return shard_->CurrentPrimary(); }
  /// Runs the loop until a primary is serving writes ("" on timeout).
  MemberId WaitForPrimary(uint64_t timeout_micros) {
    return shard_->WaitForPrimary(timeout_micros);
  }

  // --- Client operations ----------------------------------------------------------

  /// Write routed to the published primary (or `target` if given), with
  /// modelled client latency + server processing cost.
  void ClientWrite(const std::string& key, const std::string& value,
                   SimClient::ClientCallback done,
                   const MemberId& target = "") {
    client_->ClientWrite(key, value, std::move(done), target);
  }
  /// Convenience: issue a write and run the loop until it completes.
  ClientWriteResult SyncWrite(const std::string& key,
                              const std::string& value,
                              uint64_t timeout_micros = 5'000'000) {
    return client_->SyncWrite(key, value, timeout_micros);
  }
  /// Read with modelled client latency + processing cost, routed per
  /// `read_options` (§13): leader lease/quorum reads or steered
  /// follower reads behind the GTID-wait gate.
  void ClientRead(const std::string& key, ClientReadOptions read_options,
                  SimClient::ReadClientCallback done) {
    client_->ClientRead(key, read_options, std::move(done));
  }
  /// Convenience: issue a read and run the loop until it completes.
  ClientReadResult SyncRead(const std::string& key,
                            ClientReadOptions read_options,
                            uint64_t timeout_micros = 5'000'000) {
    return client_->SyncRead(key, read_options, timeout_micros);
  }
  ClientReadResult SyncRead(const std::string& key) {
    return SyncRead(key, ClientReadOptions());
  }

  // --- Fault injection -------------------------------------------------------------

  void Crash(const MemberId& id,
             SimNode::CrashMode mode = SimNode::CrashMode::kKeepDisk) {
    // The fault instant anchors the failover timeline (TraceAnalyzer's
    // t=0); it lives in the client journal since the node itself dies.
    client_->NoteCrash(id, mode);
    shard_->Crash(id, mode);
  }
  Status Restart(const MemberId& id) { return shard_->Restart(id); }

  /// Executes `disruption` and measures the client-observed write
  /// unavailability: the longest window during which probe writes
  /// (issued every `probe_interval`) fail.
  DowntimeResult MeasureWriteDowntime(std::function<void()> disruption,
                                      uint64_t probe_interval_micros = 10'000,
                                      uint64_t timeout_micros = 180'000'000,
                                      bool expect_outage = true) {
    return client_->MeasureWriteDowntime(std::move(disruption),
                                         probe_interval_micros,
                                         timeout_micros, expect_outage);
  }

  /// Same, for client-observed READ unavailability: probes leader reads
  /// (the lease path when enabled), so failover benches capture read
  /// downtime across the deferred lease handoff (§13).
  DowntimeResult MeasureReadDowntime(std::function<void()> disruption,
                                     uint64_t probe_interval_micros = 10'000,
                                     uint64_t timeout_micros = 180'000'000,
                                     bool expect_outage = true) {
    return client_->MeasureReadDowntime(std::move(disruption),
                                        probe_interval_micros,
                                        timeout_micros, expect_outage);
  }

  /// §5.1-style consistency check: all database engines that are caught up
  /// report the same state checksum. Returns false on divergence.
  bool CheckReplicaConsistency() { return shard_->CheckReplicaConsistency(); }

  // --- Metrics ---------------------------------------------------------------------

  /// JSON object keyed by member id, each value the node's full metric
  /// registry snapshot, plus the network registry under the reserved key
  /// "network". Bench drivers embed this as the "internals" section of
  /// their BENCH_*.json output.
  std::string MetricsSnapshotJson() const;
  /// Human-readable per-node dump (one "member.metric kind value" line
  /// per metric).
  std::string MetricsSnapshotText() const;

  // --- Tracing ---------------------------------------------------------------------

  /// Journal of the modelled client (root "client.write" spans and fault
  /// instants).
  trace::Tracer* client_tracer() { return client_->tracer(); }
  /// Drains every journal (client first, then members in id order) for
  /// the exporters and TraceAnalyzer.
  std::vector<trace::JournalView> TraceJournals() const;
  std::string TraceJsonl() const;
  std::string TraceChromeJson() const;

  /// Registry the network's net.* fault counters land in (snapshot key
  /// "network"); also reachable via NetworkOptions::metrics override.
  metrics::MetricRegistry* net_metrics() { return &net_metrics_; }

  // --- Observability plane (DESIGN.md §14) -------------------------------------

  /// Non-null only when `obs.sample_interval_micros` > 0 at Bootstrap.
  obs::TimeSeriesSampler* sampler() { return sampler_.get(); }
  obs::HealthMonitor* health() { return health_.get(); }
  obs::FlightRecorder* flight_recorder() { return flight_recorder_.get(); }
  bool observability_enabled() const { return sampler_ != nullptr; }

  /// Cluster-wide structured status — the `SHOW RAFT STATUS` analogue:
  /// {"ts_us":..,"nodes":{"<id>":{"up":true,"server":{..},"proxy":{..}}
  /// | {"up":false}, ...}}. Works with or without the obs plane.
  std::string RaftstatJson() { return shard_->RaftstatJson(); }
  /// Human-readable rendering of the same state, one block per node
  /// (`bench_chaos --raftstat`).
  std::string RaftstatText();

  /// Captures a flight-recorder bundle now (no-op returning false when
  /// the plane is off or the trigger is in cooldown). The chaos runner
  /// calls this on invariant violations and crash injections.
  bool TriggerFlightRecorder(obs::TriggerKind kind, const std::string& detail);

 private:
  void StartObservability();
  void ObservabilityTick();

  ClusterOptions options_;
  EventLoop loop_;
  metrics::MetricRegistry net_metrics_;  // must outlive network_
  SimNetwork network_;
  server::InMemoryServiceDiscovery discovery_;
  std::unique_ptr<Shard> shard_;
  std::unique_ptr<SimClient> client_;
  std::unique_ptr<ShardAdmin> admin_;

  // Observability plane; all null when disabled. obs_metrics_ hosts the
  // recorder's own obs.* counters and is sampled under source "obs".
  metrics::MetricRegistry obs_metrics_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::unique_ptr<obs::HealthMonitor> health_;
  std::unique_ptr<obs::FlightRecorder> flight_recorder_;
};

}  // namespace myraft::sim

#endif  // MYRAFT_SIM_CLUSTER_H_

// FleetHarness: N independent Raft rings (shards) hosted in ONE process
// over one shared discrete-event loop and simulated network — the paper's
// deployment shape (§5.2 runs MyRaft per shard across thousands of
// replica sets). Each shard is the same shard-core ClusterHarness wraps
// (src/sim/shard.h), given a disjoint member-id prefix, numeric-id range
// and metric namespace ("shard.<rs>."), plus its own modelled SimClient.
//
// The fleet adds the cross-ring control plane a single harness cannot
// express:
//   - a placement policy balancing Raft leaders across regions via
//     ShardAdmin::TransferLeadership (RebalanceTick);
//   - fleet-scope rollups (metrics, raftstat) with per-shard namespaces;
//   - region-outage storms touching every co-located ring at once.
// The §5.2 enable-raft rolling migration over this fleet lives in
// fleet/rollout.h, gated by fleet/lock.h.

#ifndef MYRAFT_FLEET_FLEET_H_
#define MYRAFT_FLEET_FLEET_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/client.h"
#include "sim/shard.h"

namespace myraft::fleet {

struct FleetOptions {
  /// Number of Raft rings hosted by the process.
  int shards = 8;
  /// Global region ring the shards are placed across.
  int regions = 3;
  /// Per-shard ring shape (replicaset/member_prefix/region placement are
  /// assigned per shard by the fleet; set the rest here).
  int db_regions_per_shard = 3;
  int logtailers_per_db = 2;
  int learners = 0;
  /// Rotate each shard's home region across the global ring (shard i
  /// starts at region i % regions) so ring slots spread across regions.
  /// false = every ring starts at region0 (each shard's db0 voter lives
  /// there). Initial leaders still land wherever the first election
  /// timeout fires; the rebalancer is what shapes leader placement.
  bool rotate_home_regions = true;

  uint64_t seed = 1;

  /// Fleet-wide applier worker budget, split evenly across shards with a
  /// floor of one worker per shard (0 = no budget: every shard keeps the
  /// single-harness default of 4).
  uint32_t worker_budget = 0;
  /// Per-node trace ring; deliberately small — at 256 shards the fleet
  /// hosts thousands of nodes.
  size_t trace_capacity = 256;

  /// Shards left dark at Bootstrap (the §5.2 pre-migration fleet tail);
  /// EnableRaftRollout brings them up under the distributed lock.
  int pending_shards = 0;
};

class FleetHarness {
 public:
  FleetHarness(FleetOptions options, const raft::QuorumEngine* quorum);

  FleetHarness(const FleetHarness&) = delete;
  FleetHarness& operator=(const FleetHarness&) = delete;

  /// Creates and bootstraps shards [0, shards - pending_shards); the tail
  /// stays provisioned-but-dark until BootstrapShard (rollout).
  Status Bootstrap();

  // --- Accessors ---------------------------------------------------------------

  sim::EventLoop* loop() { return &loop_; }
  sim::SimNetwork* network() { return &network_; }
  server::InMemoryServiceDiscovery* discovery() { return &discovery_; }
  const FleetOptions& options() const { return options_; }

  int shard_count() const { return static_cast<int>(shards_.size()); }
  sim::Shard* shard(int i) { return shards_[i].get(); }
  sim::SimClient* client(int i) { return clients_[i].get(); }
  sim::ShardAdmin* admin(int i) { return admins_[i].get(); }
  /// Shard index by replicaset name (-1 if unknown).
  int FindShard(const std::string& replicaset) const;

  /// Global region ring: region0..region<R-1>.
  std::vector<RegionId> Regions() const;

  /// Fleet-level registry (placement/rollout/lock counters).
  metrics::MetricRegistry* fleet_metrics() { return &fleet_metrics_; }
  /// Registry the shared network's net.* counters land in.
  metrics::MetricRegistry* net_metrics() { return &net_metrics_; }

  // --- Rollout hooks (§5.2) ------------------------------------------------------

  /// Indices not yet bootstrapped, ascending.
  std::vector<int> PendingShards() const;
  /// Brings one dark shard up (EnableRaftRollout calls this under the
  /// distributed lock).
  Status BootstrapShard(int i);

  // --- Fleet state -----------------------------------------------------------------

  /// Runs the loop until every bootstrapped shard publishes a primary
  /// with writes enabled; returns the number that did.
  int WaitForAllPrimaries(uint64_t timeout_micros);
  /// Count of bootstrapped shards currently exposing a primary.
  int ShardsWithPrimary();
  /// Raft leaders per region over bootstrapped shards (shards with no
  /// current primary are not counted).
  std::map<RegionId, int> LeadersByRegion();

  // --- Placement policy --------------------------------------------------------------

  /// One leader-balancing pass: while some region leads another by more
  /// than one leader, transfer a leader from the most- to the
  /// least-loaded region (via ShardAdmin::TransferLeadership toward a
  /// database voter the shard already has there), at most 8 per pass.
  /// Returns transfers initiated (transfers complete asynchronously as
  /// the loop runs).
  int RebalanceTick();
  /// Leader-count spread (max - min) across the global regions.
  int LeaderImbalance();

  // --- Rollups ----------------------------------------------------------------------

  /// Every shard's registries merged (unambiguous thanks to the
  /// "shard.<rs>." namespaces) plus the shared network's counters.
  metrics::MetricSnapshot MetricsRollup() const;
  /// {"ts_us":..,"shards":{"rs0":{..per-node raftstat..},..}} over
  /// bootstrapped shards.
  std::string RaftstatJson();

 private:
  /// Builds (but does not bootstrap) the shard-core + client + admin for
  /// slot `i`.
  void ProvisionShard(int i);

  FleetOptions options_;
  const raft::QuorumEngine* quorum_;
  sim::EventLoop loop_;
  metrics::MetricRegistry net_metrics_;  // must outlive network_
  sim::SimNetwork network_;
  server::InMemoryServiceDiscovery discovery_;
  metrics::MetricRegistry fleet_metrics_;
  std::vector<std::unique_ptr<sim::Shard>> shards_;
  std::vector<std::unique_ptr<sim::SimClient>> clients_;
  std::vector<std::unique_ptr<sim::ShardAdmin>> admins_;
};

}  // namespace myraft::fleet

#endif  // MYRAFT_FLEET_FLEET_H_

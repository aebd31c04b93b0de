// Shard: the shard-core of the simulation — one replicaset's Raft ring
// (the paper's §6.1 topology: a primary region with a database voter and
// two logtailers, N-1 follower regions, plus learners) built over an
// EXTERNALLY-owned EventLoop/SimNetwork/ServiceDiscovery. ClusterHarness
// wraps exactly one Shard (and owns the loop/network for it); FleetHarness
// instantiates N Shards over one shared loop and network, which is how one
// process hosts hundreds of independent rings (§5.2 runs MyRaft per shard
// across thousands of replica sets).
//
// ShardAdmin is the control-plane facade over a shard: membership changes,
// quorum-spec changes and leadership transfers routed through the current
// leader, each returning the config identity the ring converged to.

#ifndef MYRAFT_SIM_SHARD_H_
#define MYRAFT_SIM_SHARD_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "server/service_discovery.h"
#include "sim/node.h"

namespace myraft::sim {

/// Shape of one shard's ring. Region index `r` maps to the global region
/// ring as "region<(region_offset + r) % modulus>" where modulus defaults
/// to db_regions — so a standalone shard names its regions region0..N-1
/// exactly as before, while a fleet can rotate shards across a shared set
/// of regions (placement diversity) by varying region_offset.
struct TopologyOptions {
  std::string replicaset = "rs0";
  /// Regions hosting a database voter + its logtailers. Region index 0 is
  /// the bootstrap primary's.
  int db_regions = 3;
  int logtailers_per_db = 2;
  /// Non-voting replicas, placed round-robin in follower regions.
  int learners = 0;
  /// Prepended to every generated member id ("" = bare ids: db0, lt0a…).
  /// The fleet sets "<rs>." so member ids stay unique on the shared
  /// network and service-discovery plane.
  std::string member_prefix;
  /// Global region ring (see above). 0 = db_regions.
  int region_offset = 0;
  int region_modulus = 0;
};

/// Everything a shard borrows from its host. All pointers outlive the
/// shard; the fleet shares one of each across every ring.
struct ShardContext {
  EventLoop* loop = nullptr;
  SimNetwork* network = nullptr;
  server::InMemoryServiceDiscovery* discovery = nullptr;
  const raft::QuorumEngine* quorum = nullptr;
};

struct ShardOptions {
  TopologyOptions topology;
  raft::RaftOptions raft;
  proxy::ProxyOptions proxy;
  bool proxy_enabled = true;
  /// Forwarded to every member's MySqlServerOptions.
  uint64_t engine_checkpoint_wal_bytes = 32ull << 20;
  /// Parallel applier knobs, forwarded to every member.
  uint32_t applier_workers = 4;
  uint64_t applier_txn_cost_micros = 0;
  /// Per-node trace journal ring size.
  size_t trace_capacity = 65'536;
  /// Forwarded to every member: slow-transaction log threshold (0 = off).
  uint64_t slow_txn_threshold_micros = 0;
  /// Namespace for every node registry ("" = bare metric names). The
  /// fleet sets "shard.<rs>." so the same counter family from two rings
  /// never merges ambiguously at fleet scope.
  std::string metric_namespace;
  /// Base for numeric server ids (and their derived UUIDs / trace-id
  /// salts). The fleet hands each shard a disjoint range.
  uint32_t numeric_id_base = 1;
  /// Slow-transaction trigger routing (flight recorder); may be null.
  std::function<void(const std::string&)> slow_txn_hook;
};

class Shard {
 public:
  /// Runs against a brand-new member's empty disk before first boot
  /// (e.g. restoring a backup so the member can join a ring whose old
  /// log files were purged).
  using PrepareDiskFn =
      std::function<Status(Env* env, const std::string& data_dir)>;

  Shard(ShardContext context, ShardOptions options);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Creates all nodes and bootstraps the ring. Until this runs the shard
  /// is provisioned-but-dark (the §5.2 pre-enable-raft state the fleet
  /// rollout migrates out of).
  Status Bootstrap();
  bool bootstrapped() const { return !nodes_.empty(); }

  // --- Accessors -----------------------------------------------------------------

  const std::string& replicaset() const { return options_.topology.replicaset; }
  const ShardOptions& options() const { return options_; }
  EventLoop* loop() { return context_.loop; }
  SimNetwork* network() { return context_.network; }
  server::InMemoryServiceDiscovery* discovery() { return context_.discovery; }

  SimNode* node(const MemberId& id) { return nodes_.at(id).get(); }
  /// nullptr when the member does not exist (clients race with
  /// decommissions; at() would throw).
  SimNode* FindNode(const MemberId& id);
  std::vector<MemberId> ids() const;
  std::vector<MemberId> database_ids() const;
  const MembershipConfig& config() const { return config_; }

  /// Database member currently published as primary with writes enabled
  /// ("" if none).
  MemberId CurrentPrimary();
  /// Runs the loop until a primary is serving writes ("" on timeout).
  MemberId WaitForPrimary(uint64_t timeout_micros);
  /// Region of the current primary ("" if none) — the placement policy's
  /// balancing key.
  RegionId PrimaryRegion();
  /// The bootstrap primary's region (region index 0 on the global ring).
  RegionId home_region() const { return RegionName(0); }

  // --- Fault injection -----------------------------------------------------------

  void Crash(const MemberId& id,
             SimNode::CrashMode mode = SimNode::CrashMode::kKeepDisk) {
    nodes_.at(id)->Crash(mode);
  }
  Status Restart(const MemberId& id) { return nodes_.at(id)->Restart(); }

  /// §5.1-style consistency check: all database engines that are caught up
  /// report the same state checksum. Returns false on divergence.
  bool CheckReplicaConsistency();

  // --- Introspection -------------------------------------------------------------

  /// JSON object keyed by member id, each value the node's full metric
  /// registry snapshot (namespaced when metric_namespace is set).
  std::string MetricsSnapshotJson() const;
  std::string MetricsSnapshotText() const;
  /// Roll-up over every member registry. With a metric_namespace set the
  /// merged keys stay per-shard ("shard.<rs>.raft.*") — the collision fix
  /// that makes fleet-scope merges unambiguous.
  metrics::MetricSnapshot MetricsRollup() const;

  /// The `SHOW RAFT STATUS` analogue for this ring:
  /// {"ts_us":..,"nodes":{...}}.
  std::string RaftstatJson();
  /// Just the inner per-node object (the fleet embeds one per shard).
  std::string RaftstatNodesJson();
  std::string RaftstatText();

  /// Member journals in id order (the harness prepends its client's).
  std::vector<trace::JournalView> TraceJournals() const;

  // --- Used by ShardAdmin ----------------------------------------------------------

  /// Provisions a brand-new process seeded with `seed_config` (§2.2:
  /// "automation allocates and prepares a new member").
  Status ProvisionMember(const MemberInfo& member,
                         const MembershipConfig& seed_config,
                         const PrepareDiskFn& prepare_disk);

  /// All regions this shard's ring spans (deduplicated, in ring order).
  std::vector<RegionId> Regions() const;

 private:
  RegionId RegionName(int r) const;
  SimNode::Options MakeNodeOptions(const MemberInfo& member,
                                   uint32_t numeric_id, Uuid uuid) const;

  ShardContext context_;
  ShardOptions options_;
  MembershipConfig config_;
  std::map<MemberId, std::unique_ptr<SimNode>> nodes_;
};

/// Rich control-plane result: what happened, who executed it, and the
/// config identity (config_term, config_version) the change produced.
struct AdminResult {
  Status status;
  /// Leader that executed (or refused) the operation.
  MemberId leader;
  uint64_t config_term = 0;
  uint64_t config_version = 0;

  bool ok() const { return status.ok(); }
  std::string ToString() const;
};

/// Control-plane facade over one shard: every operation resolves the
/// current leader, executes through it, and reports the resulting config
/// identity.
class ShardAdmin {
 public:
  explicit ShardAdmin(Shard* shard) : shard_(shard) {}

  /// §2.2 membership change, end to end: provisions a brand-new process,
  /// seeds it with the current config plus itself, then invokes AddMember
  /// on the leader.
  AdminResult AddMember(const MemberInfo& member,
                        Shard::PrepareDiskFn prepare_disk = nullptr);
  /// The node keeps running but is no longer part of the ring
  /// (automation would decommission it).
  AdminResult RemoveMember(const MemberId& member);
  /// Voting-status change (voter ↔ witness/learner swaps).
  AdminResult SwapMemberType(const MemberId& member, RaftMemberType type);
  /// Quorum-rule override ("majority", "single-region", "multi:<K>";
  /// "" reverts to the engine default).
  AdminResult SetQuorumSpec(const std::string& spec);
  /// Graceful leadership handoff (§4.3 mock election + TimeoutNow). The
  /// transfer completes asynchronously; the result carries the config
  /// identity at initiation.
  AdminResult TransferLeadership(const MemberId& target);

 private:
  /// Resolves the leader, runs `op` through it, stamps the result with
  /// the leader's post-op config identity.
  AdminResult Execute(
      const std::function<Status(server::MySqlServer*)>& op);

  Shard* shard_;
};

}  // namespace myraft::sim

#endif  // MYRAFT_SIM_SHARD_H_

// Simulation harness for the prior setup, mirroring sim::ClusterHarness:
// the same topology, network and client model (sim/client_model.h, the
// one request path both arms run), but with semi-sync replication and
// external automation instead of Raft. The A/B experiments (Figure 5,
// Table 2) run one harness of each kind with identical parameters.

#ifndef MYRAFT_SEMISYNC_CLUSTER_H_
#define MYRAFT_SEMISYNC_CLUSTER_H_

#include <map>
#include <memory>

#include "semisync/automation.h"
#include "semisync/semisync_server.h"
#include "server/service_discovery.h"
#include "sim/client_model.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "util/metrics.h"

namespace myraft::semisync {

struct SemiSyncClusterOptions {
  /// The ring's shape, the same struct the MyRaft arm takes
  /// (ClusterOptions::topology). Learners are plain async replicas.
  sim::TopologyOptions topology;

  uint64_t seed = 1;
  sim::NetworkOptions network;

  /// The modelled client, the same one ClusterOptions::client sets for
  /// the MyRaft arm.
  sim::ClientModelOptions client;
};

class SemiSyncCluster {
 public:
  /// The one replicaset a semi-sync cluster serves.
  static constexpr char kReplicaset[] = "rs0";

  explicit SemiSyncCluster(SemiSyncClusterOptions options);

  /// Creates all members and installs db0 as the initial primary.
  Status Bootstrap();

  sim::EventLoop* loop() { return &loop_; }
  sim::SimNetwork* network() { return &network_; }
  SemiSyncAutomation* automation() { return automation_.get(); }
  server::InMemoryServiceDiscovery* discovery() { return &discovery_; }
  SemiSyncServer* server(const MemberId& id);
  bool node_up(const MemberId& id) const { return nodes_.at(id)->up; }
  std::vector<MemberId> ids() const;
  std::vector<MemberId> database_ids() const;
  /// The members Bootstrap created, in bootstrap order (sim::RingMembers).
  const std::vector<MemberInfo>& members() const { return members_; }

  MemberId CurrentPrimary();

  /// Write to the published primary through sim::RunClientRequest.
  void ClientWrite(const std::string& key, const std::string& value,
                   sim::ClientWriteCallback done);
  sim::ClientWriteResult SyncWrite(const std::string& key,
                                   const std::string& value,
                                   uint64_t timeout_micros = 5'000'000);

  void Crash(const MemberId& id);
  Status Restart(const MemberId& id);

  /// Shuts the member's process down and releases its disk to the caller
  /// (used by enable-raft to restart the member as a MyRaft node, §5.2).
  std::unique_ptr<Env> ShutdownAndTakeDisk(const MemberId& id);
  MemberKind kind(const MemberId& id) const { return nodes_.at(id)->kind; }
  RegionId region(const MemberId& id) const { return nodes_.at(id)->region; }

  /// Member `id`'s counters; the registry survives crashes, like the disk.
  metrics::MetricRegistry* node_metrics(const MemberId& id) {
    return &nodes_.at(id)->metrics;
  }
  /// The automation's "semisync.*" counters.
  metrics::MetricRegistry* metrics() { return &metrics_; }

  sim::DowntimeResult MeasureWriteDowntime(
      std::function<void()> disruption, uint64_t probe_interval_micros = 10'000,
      uint64_t timeout_micros = 600'000'000);

 private:
  struct Node {
    std::unique_ptr<Env> env;  // disk, survives crashes
    metrics::MetricRegistry metrics;  // survives crashes too
    std::unique_ptr<SemiSyncServer> server;
    MemberKind kind = MemberKind::kMySql;
    RegionId region;
    bool up = false;
    uint64_t incarnation = 0;
  };

  Status StartNode(const MemberId& id);
  /// Member `id` if it exists and is up, else nullptr.
  Node* LiveNode(const MemberId& id);
  void ScheduleTick(const MemberId& id);

  SemiSyncClusterOptions options_;
  sim::EventLoop loop_;
  metrics::MetricRegistry metrics_;
  sim::SimNetwork network_;
  server::InMemoryServiceDiscovery discovery_;
  std::vector<MemberInfo> members_;
  std::map<MemberId, std::unique_ptr<Node>> nodes_;
  std::unique_ptr<SemiSyncAutomation> automation_;
};

}  // namespace myraft::semisync

#endif  // MYRAFT_SEMISYNC_CLUSTER_H_

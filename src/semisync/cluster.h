// Simulation harness for the prior setup, mirroring sim::ClusterHarness:
// the same topology, network and client model, but with semi-sync
// replication and external automation instead of Raft. The A/B
// experiments (Figure 5, Table 2) run one harness of each kind with
// identical parameters.

#ifndef MYRAFT_SEMISYNC_CLUSTER_H_
#define MYRAFT_SEMISYNC_CLUSTER_H_

#include <map>
#include <memory>

#include "semisync/automation.h"
#include "semisync/semisync_server.h"
#include "server/service_discovery.h"
#include "sim/downtime_probe.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace myraft::semisync {

struct SemiSyncClusterOptions {
  std::string replicaset = "rs0";
  int db_regions = 3;
  int logtailers_per_db = 2;
  int learners = 0;  // modelled as plain async replicas

  uint64_t seed = 1;
  sim::NetworkOptions network;
  SemiSyncOptions server_defaults;

  uint64_t client_one_way_micros = 150;
  uint64_t server_processing_micros = 200;
  uint64_t server_processing_jitter_micros = 0;
  uint64_t client_timeout_micros = 500'000;
};

class SemiSyncCluster {
 public:
  struct ClientWriteResult {
    Status status;
    uint64_t latency_micros = 0;
  };
  using ClientCallback = std::function<void(const ClientWriteResult&)>;

  struct DowntimeResult {
    bool recovered = false;
    uint64_t downtime_micros = 0;
  };

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

  MemberId CurrentPrimary();

  void ClientWrite(const std::string& key, const std::string& value,
                   ClientCallback done);
  ClientWriteResult SyncWrite(const std::string& key,
                              const std::string& value,
                              uint64_t timeout_micros = 5'000'000);

  void Crash(const MemberId& id);
  Status Restart(const MemberId& id);

  /// Shuts the member's process down and releases its disk to the caller
  /// (used by enable-raft to restart the member as a MyRaft node, §5.2).
  std::unique_ptr<Env> ShutdownAndTakeDisk(const MemberId& id);
  MemberKind kind(const MemberId& id) const { return nodes_.at(id)->kind; }
  RegionId region(const MemberId& id) const { return nodes_.at(id)->region; }

  DowntimeResult MeasureWriteDowntime(std::function<void()> disruption,
                                      uint64_t probe_interval_micros = 10'000,
                                      uint64_t timeout_micros = 600'000'000);

 private:
  struct Node {
    std::unique_ptr<Env> env;  // disk, survives crashes
    std::unique_ptr<SemiSyncServer> server;
    MemberKind kind = MemberKind::kMySql;
    RegionId region;
    bool up = false;
    uint64_t incarnation = 0;
  };

  Status StartNode(const MemberId& id);
  void ScheduleTick(const MemberId& id);

  SemiSyncClusterOptions options_;
  sim::EventLoop loop_;
  sim::SimNetwork network_;
  server::InMemoryServiceDiscovery discovery_;
  std::map<MemberId, std::unique_ptr<Node>> nodes_;
  std::unique_ptr<SemiSyncAutomation> automation_;
};

}  // namespace myraft::semisync

#endif  // MYRAFT_SEMISYNC_CLUSTER_H_

#include "tools/enable_raft.h"

#include "util/logging.h"

namespace myraft::tools {

namespace {

constexpr uint64_t kLockAcquisitionMicros = 500'000;
constexpr uint64_t kSafetyCheckMicros = 300'000;
/// Per-member plugin load + configuration cost.
constexpr uint64_t kPluginLoadMicros = 200'000;
constexpr uint64_t kCatchupPollMicros = 50'000;
constexpr uint64_t kCatchupTimeoutMicros = 30'000'000;

}  // namespace

EnableRaftResult EnableRaft(semisync::SemiSyncCluster* cluster,
                            const raft::QuorumEngine* quorum) {
  EnableRaftResult result;
  sim::EventLoop* loop = cluster->loop();

  // Step 1: distributed lock.
  loop->RunFor(kLockAcquisitionMicros);

  // Step 2: safety checks — every member reachable, no failover running.
  loop->RunFor(kSafetyCheckMicros);
  if (cluster->automation()->failover_in_progress()) {
    result.status =
        Status::IllegalState("replicaset is undergoing a failover");
    return result;
  }
  for (const MemberId& id : cluster->ids()) {
    if (!cluster->node_up(id)) {
      result.status =
          Status::IllegalState("member down, not a suitable target: " + id);
      return result;
    }
  }
  const MemberId primary = cluster->CurrentPrimary();
  if (primary.empty()) {
    result.status = Status::IllegalState("no healthy primary");
    return result;
  }

  // Step 3: load the plugin and Raft configuration on every member.
  loop->RunFor(kPluginLoadMicros * cluster->ids().size());

  // Step 4: stop client writes; wait for full catch-up + consistency.
  const uint64_t writes_stopped_at = loop->now();
  cluster->server(primary)->SetReadOnly(true);
  const uint64_t catchup_deadline = loop->now() + kCatchupTimeoutMicros;
  const uint64_t primary_last =
      cluster->server(primary)->LastLogged().index;
  while (loop->now() < catchup_deadline) {
    bool caught_up = true;
    for (const MemberId& id : cluster->ids()) {
      if (id == primary) continue;
      if (cluster->server(id)->LastLogged().index < primary_last) {
        caught_up = false;
        break;
      }
    }
    if (caught_up) break;
    loop->RunFor(kCatchupPollMicros);
  }
  uint64_t reference_checksum = 0;
  bool have_reference = false;
  for (const MemberId& id : cluster->database_ids()) {
    semisync::SemiSyncServer* server = cluster->server(id);
    if (server->LastLogged().index < primary_last) {
      cluster->server(primary)->SetReadOnly(false);
      result.status = Status::TimedOut("replica catch-up: " + id);
      return result;
    }
    // Drain appliers before comparing engines.
    server->Tick();
    const uint64_t checksum = server->StateChecksum();
    if (!have_reference) {
      reference_checksum = checksum;
      have_reference = true;
    } else if (checksum != reference_checksum) {
      cluster->server(primary)->SetReadOnly(false);
      result.status =
          Status::Corruption("replicas inconsistent before migration: " + id);
      return result;
    }
  }

  // Step 5: restart members as MyRaft nodes over the same disks and
  // bootstrap the ring (region 0 convention does not apply here — the
  // config mirrors the semisync layout, all databases as voters).
  MembershipConfig config;
  for (const MemberId& id : cluster->ids()) {
    MemberInfo member;
    member.id = id;
    member.region = cluster->region(id);
    member.kind = cluster->kind(id);
    member.type = RaftMemberType::kVoter;
    config.members.push_back(std::move(member));
  }

  uint32_t numeric_id = 1;
  for (const MemberId& id : cluster->ids()) {
    std::unique_ptr<Env> disk = cluster->ShutdownAndTakeDisk(id);
    sim::SimNode::Options node_options;
    node_options.server.replicaset = semisync::SemiSyncCluster::kReplicaset;
    node_options.server.id = id;
    node_options.server.region = cluster->region(id);
    node_options.server.kind = cluster->kind(id);
    node_options.server.data_dir = "/" + id;
    node_options.server.numeric_server_id = numeric_id;
    node_options.server.server_uuid = Uuid::FromIndex(1000 + numeric_id);
    ++numeric_id;
    auto node = std::make_unique<sim::SimNode>(
        loop, cluster->network(), cluster->discovery(), quorum,
        std::move(node_options), std::move(disk));
    Status s = node->Bootstrap(config);
    if (!s.ok()) {
      result.status = s.WithPrefix("bootstrapping raft on " + id);
      return result;
    }
    result.raft_nodes[id] = std::move(node);
  }

  // Wait for the Raft ring to elect and promote a primary; that publish
  // re-enables writes (the orchestration of §3.3 step 5).
  const uint64_t election_deadline = loop->now() + 60'000'000;
  MemberId raft_primary;
  while (loop->now() < election_deadline) {
    loop->RunFor(50'000);
    auto published = cluster->discovery()->GetPrimary(
        semisync::SemiSyncCluster::kReplicaset);
    if (published.has_value()) {
      auto it = result.raft_nodes.find(*published);
      if (it != result.raft_nodes.end() &&
          it->second->server()->writes_enabled()) {
        raft_primary = *published;
        break;
      }
    }
  }
  if (raft_primary.empty()) {
    result.status = Status::TimedOut("no raft primary after migration");
    return result;
  }
  result.write_unavailability_micros = loop->now() - writes_stopped_at;
  result.status = Status::OK();
  MYRAFT_LOG(Info) << "enable-raft: migrated; primary " << raft_primary
                   << " after "
                   << result.write_unavailability_micros / 1000 << " ms";
  return result;
}

}  // namespace myraft::tools

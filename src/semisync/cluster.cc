#include "semisync/cluster.h"

#include "util/logging.h"

namespace myraft::semisync {

namespace {

/// Period of every member's Tick() (same 20 ms grid as the MyRaft nodes).
constexpr uint64_t kTickIntervalMicros = 20'000;

}  // namespace

SemiSyncCluster::SemiSyncCluster(SemiSyncClusterOptions options)
    : options_(std::move(options)),
      loop_(options_.seed),
      network_(&loop_, options_.network) {}

Status SemiSyncCluster::Bootstrap() {
  members_ = sim::RingMembers(options_.topology);
  for (const MemberInfo& member : members_) {
    auto node = std::make_unique<Node>();
    node->env = NewMemEnv();
    node->kind = member.kind;
    node->region = member.region;
    nodes_[member.id] = std::move(node);
  }
  for (const MemberInfo& member : members_) {
    MYRAFT_RETURN_NOT_OK_PREPEND(StartNode(member.id),
                                 "starting " + member.id);
  }

  automation_ = std::make_unique<SemiSyncAutomation>(
      &loop_, kReplicaset, members_,
      [this](const MemberId& id) -> SemiSyncServer* {
        Node* node = LiveNode(id);
        return node != nullptr ? node->server.get() : nullptr;
      },
      &discovery_, &metrics_);
  return automation_->InstallPrimary("db0");
}

Status SemiSyncCluster::StartNode(const MemberId& id) {
  Node* node = nodes_.at(id).get();
  SemiSyncOptions server_options;
  server_options.replicaset = kReplicaset;
  server_options.id = id;
  server_options.region = node->region;
  server_options.kind = node->kind;
  server_options.data_dir = "/" + id;
  // Stable per-member identity derived from the name.
  uint32_t numeric = 0;
  for (char c : id) numeric = numeric * 31 + static_cast<uint32_t>(c);
  server_options.numeric_server_id = numeric;
  server_options.server_uuid = Uuid::FromIndex(numeric);

  // Delivery waits for node->up, set below.
  const uint32_t slot = network_.RegisterNode(
      id, node->region, [node](const MemberId&, const Message& m) {
        if (node->up) node->server->HandleMessage(m);
      });
  auto server = SemiSyncServer::Create(
      node->env.get(), std::move(server_options), loop_.clock(),
      &node->metrics,
      [this, slot](Message m) { network_.Send(slot, std::move(m)); });
  if (!server.ok()) {
    network_.UnregisterNode(id);
    return server.status();
  }
  node->server = std::move(*server);
  network_.SetNodeUp(id, true);
  node->up = true;
  ++node->incarnation;
  ScheduleTick(id);
  return Status::OK();
}

void SemiSyncCluster::ScheduleTick(const MemberId& id) {
  Node* node = nodes_.at(id).get();
  const uint64_t incarnation = node->incarnation;
  loop_.Schedule(kTickIntervalMicros, [this, id, node, incarnation]() {
    if (!node->up || node->incarnation != incarnation) return;
    node->server->Tick();
    ScheduleTick(id);
  });
}

SemiSyncCluster::Node* SemiSyncCluster::LiveNode(const MemberId& id) {
  auto it = nodes_.find(id);
  return it != nodes_.end() && it->second->up ? it->second.get() : nullptr;
}

SemiSyncServer* SemiSyncCluster::server(const MemberId& id) {
  return nodes_.at(id)->server.get();
}

std::vector<MemberId> SemiSyncCluster::ids() const {
  std::vector<MemberId> out;
  for (const auto& [id, node] : nodes_) out.push_back(id);
  return out;
}

std::vector<MemberId> SemiSyncCluster::database_ids() const {
  std::vector<MemberId> out;
  for (const auto& [id, node] : nodes_) {
    if (node->kind == MemberKind::kMySql) out.push_back(id);
  }
  return out;
}

MemberId SemiSyncCluster::CurrentPrimary() {
  auto primary = discovery_.GetPrimary(kReplicaset);
  if (!primary.has_value()) return "";
  auto it = nodes_.find(*primary);
  if (it == nodes_.end() || !it->second->up) return "";
  if (!it->second->server->is_primary() || it->second->server->read_only()) {
    return "";
  }
  return *primary;
}

void SemiSyncCluster::Crash(const MemberId& id) {
  Node* node = nodes_.at(id).get();
  if (!node->up) return;
  node->up = false;
  network_.SetNodeUp(id, false);
  network_.UnregisterNode(id);
  node->server.reset();
}

Status SemiSyncCluster::Restart(const MemberId& id) {
  Node* node = nodes_.at(id).get();
  if (node->up) return Status::IllegalState("already up");
  return StartNode(id);
}

std::unique_ptr<Env> SemiSyncCluster::ShutdownAndTakeDisk(
    const MemberId& id) {
  Crash(id);
  return std::move(nodes_.at(id)->env);
}

void SemiSyncCluster::ClientWrite(const std::string& key,
                                  const std::string& value,
                                  sim::ClientWriteCallback done) {
  auto primary = discovery_.GetPrimary(kReplicaset);
  if (!primary.has_value()) {
    done(sim::ClientWriteResult{Status::ServiceUnavailable("no primary"), 0,
                                {}, {}});
    return;
  }
  const MemberId dest = *primary;
  sim::RunClientRequest<sim::ClientWriteResult>(
      &loop_, options_.client,
      {"client write timed out", "primary unreachable", "primary died",
       [this, dest]() { return LiveNode(dest) != nullptr; },
       [this, dest, row = sim::ClientRow(key, value)](
           std::function<void(sim::ClientWriteResult)> reply) mutable {
         std::vector<binlog::RowOperation> ops;
         ops.push_back(std::move(row));
         nodes_.at(dest)->server->SubmitWrite(
             std::move(ops),
             [reply = std::move(reply)](const SemiSyncWriteResult& result) {
               reply(sim::ClientWriteResult{result.status, 0, result.gtid,
                                            OpId{}});
             });
       },
       std::move(done)});
}

sim::ClientWriteResult SemiSyncCluster::SyncWrite(const std::string& key,
                                                  const std::string& value,
                                                  uint64_t timeout_micros) {
  return sim::AwaitClientResult<sim::ClientWriteResult>(
      &loop_, timeout_micros, "SyncWrite: no completion",
      [&](sim::ClientWriteCallback done) {
        ClientWrite(key, value, std::move(done));
      });
}

sim::DowntimeResult SemiSyncCluster::MeasureWriteDowntime(
    std::function<void()> disruption, uint64_t probe_interval_micros,
    uint64_t timeout_micros) {
  return sim::MeasureDowntime(
      &loop_,
      [this](const std::string& key, std::function<void(bool)> report) {
        ClientWrite(key, "v", [report](const sim::ClientWriteResult& r) {
          report(r.status.ok());
        });
      },
      std::move(disruption), probe_interval_micros, timeout_micros,
      /*expect_outage=*/true);
}

}  // namespace myraft::semisync

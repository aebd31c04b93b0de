#include "semisync/cluster.h"

#include "util/logging.h"
#include "util/string_util.h"

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
  std::vector<MemberId> members;
  std::map<MemberId, MemberKind> kinds;
  std::map<MemberId, RegionId> regions;

  auto add = [&](const MemberId& id, const RegionId& region,
                 MemberKind kind) {
    auto node = std::make_unique<Node>();
    node->env = NewMemEnv();
    node->kind = kind;
    node->region = region;
    nodes_[id] = std::move(node);
    members.push_back(id);
    kinds[id] = kind;
    regions[id] = region;
  };

  for (int r = 0; r < options_.db_regions; ++r) {
    const RegionId region = "region" + std::to_string(r);
    add("db" + std::to_string(r), region, MemberKind::kMySql);
    for (int l = 0; l < options_.logtailers_per_db; ++l) {
      add(StringPrintf("lt%d%c", r, static_cast<char>('a' + l)), region,
          MemberKind::kLogtailer);
    }
  }
  for (int i = 0; i < options_.learners; ++i) {
    const int r =
        options_.db_regions > 1 ? 1 + i % (options_.db_regions - 1) : 0;
    add("learner" + std::to_string(i), "region" + std::to_string(r),
        MemberKind::kMySql);
  }

  for (const MemberId& id : members) {
    MYRAFT_RETURN_NOT_OK_PREPEND(StartNode(id), "starting " + id);
  }

  automation_ = std::make_unique<SemiSyncAutomation>(
      &loop_, options_.replicaset, members, kinds, regions,
      [this](const MemberId& id) -> SemiSyncServer* {
        auto it = nodes_.find(id);
        if (it == nodes_.end() || !it->second->up) return nullptr;
        return it->second->server.get();
      },
      &discovery_);
  return automation_->InstallPrimary("db0");
}

Status SemiSyncCluster::StartNode(const MemberId& id) {
  Node* node = nodes_.at(id).get();
  SemiSyncOptions server_options = options_.server_defaults;
  server_options.replicaset = options_.replicaset;
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
  auto primary = discovery_.GetPrimary(options_.replicaset);
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
                                  ClientCallback done) {
  const uint64_t issued_at = loop_.now();
  auto primary = discovery_.GetPrimary(options_.replicaset);
  if (!primary.has_value()) {
    done(ClientWriteResult{Status::ServiceUnavailable("no primary"), 0});
    return;
  }
  const MemberId dest = *primary;

  auto responded = std::make_shared<bool>(false);
  auto finish = [this, done, issued_at, responded](Status status) {
    if (*responded) return;
    *responded = true;
    done(ClientWriteResult{std::move(status), loop_.now() - issued_at});
  };
  loop_.Schedule(options_.client_timeout_micros, [finish]() {
    finish(Status::TimedOut("client write timed out"));
  });

  loop_.Schedule(options_.client_one_way_micros, [this, dest, key, value,
                                                  finish]() {
    auto it = nodes_.find(dest);
    if (it == nodes_.end() || !it->second->up) {
      loop_.Schedule(options_.client_one_way_micros, [finish]() {
        finish(Status::NetworkError("primary unreachable"));
      });
      return;
    }
    Node* node = it->second.get();
    uint64_t processing = options_.server_processing_micros;
    if (options_.server_processing_jitter_micros > 0) {
      processing +=
          loop_.rng()->Uniform(options_.server_processing_jitter_micros);
    }
    loop_.Schedule(processing,
                   [this, node, key, value, finish]() {
                     if (!node->up) {
                       finish(Status::NetworkError("primary died"));
                       return;
                     }
                     binlog::RowOperation op;
                     op.kind = binlog::RowOperation::Kind::kInsert;
                     op.database = "bench";
                     op.table = "kv";
                     op.column_count = 2;
                     op.after_image = key + "=" + value;
                     node->server->SubmitWrite(
                         {std::move(op)},
                         [this, finish](const SemiSyncWriteResult& result) {
                           loop_.Schedule(options_.client_one_way_micros,
                                          [finish, status = result.status]() {
                                            finish(status);
                                          });
                         });
                   });
  });
}

SemiSyncCluster::ClientWriteResult SemiSyncCluster::SyncWrite(
    const std::string& key, const std::string& value,
    uint64_t timeout_micros) {
  ClientWriteResult result;
  bool completed = false;
  ClientWrite(key, value, [&](const ClientWriteResult& r) {
    result = r;
    completed = true;
  });
  const uint64_t deadline = loop_.now() + timeout_micros;
  while (!completed && loop_.now() < deadline) {
    loop_.RunFor(1'000);
  }
  if (!completed) result.status = Status::TimedOut("SyncWrite");
  return result;
}

SemiSyncCluster::DowntimeResult SemiSyncCluster::MeasureWriteDowntime(
    std::function<void()> disruption, uint64_t probe_interval_micros,
    uint64_t timeout_micros) {
  sim::DowntimeProbe::Options probe_options;
  probe_options.probe_interval_micros = probe_interval_micros;
  probe_options.timeout_micros = timeout_micros;
  auto probe_result = sim::DowntimeProbe::Measure(
      &loop_,
      [this](const std::string& key, std::function<void(bool)> report) {
        ClientWrite(key, "v", [report](const ClientWriteResult& r) {
          report(r.status.ok());
        });
      },
      std::move(disruption), []() { return true; }, probe_options);
  DowntimeResult result;
  result.recovered = probe_result.completed;
  result.downtime_micros =
      probe_result.completed ? probe_result.downtime_micros : timeout_micros;
  return result;
}

}  // namespace myraft::semisync

#include "sim/shard.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace myraft::sim {

Shard::Shard(ShardContext context, ShardOptions options)
    : context_(std::move(context)), options_(std::move(options)) {}

SimNode::Options Shard::MakeNodeOptions(const MemberInfo& member,
                                        uint32_t numeric_id,
                                        Uuid uuid) const {
  SimNode::Options node_options;
  node_options.server.replicaset = context_.replicaset;
  node_options.server.id = member.id;
  node_options.server.region = member.region;
  node_options.server.kind = member.kind;
  node_options.server.data_dir = "/" + member.id;
  node_options.server.numeric_server_id = numeric_id;
  node_options.server.server_uuid = uuid;
  node_options.server.raft = options_.raft;
  node_options.server.engine_checkpoint_wal_bytes =
      options_.engine_checkpoint_wal_bytes;
  node_options.server.applier_workers = options_.applier_workers;
  node_options.server.applier_txn_cost_micros =
      options_.applier_txn_cost_micros;
  node_options.server.slow_txn_threshold_micros =
      options_.slow_txn_threshold_micros;
  node_options.server.slow_txn_hook = context_.slow_txn_hook;
  node_options.proxy = options_.proxy;
  node_options.trace_capacity = options_.trace_capacity;
  return node_options;
}

Status Shard::Bootstrap() {
  if (bootstrapped()) {
    return Status::IllegalState("shard already bootstrapped: " +
                                replicaset());
  }
  config_.members = RingMembers(options_.topology, context_.placement);
  uint32_t numeric_id = context_.numeric_id_base;
  for (const MemberInfo& member : config_.members) {
    auto node = std::make_unique<SimNode>(
        context_.loop, context_.network, context_.discovery, context_.quorum,
        MakeNodeOptions(member, numeric_id, Uuid::FromIndex(numeric_id)));
    node->metrics()->SetPrefix(context_.metric_namespace);
    nodes_[member.id] = std::move(node);
    ++numeric_id;
  }

  for (auto& [id, node] : nodes_) {
    MYRAFT_RETURN_NOT_OK_PREPEND(node->Bootstrap(config_),
                                 "bootstrapping " + id);
  }
  return Status::OK();
}

std::vector<RegionId> Shard::Regions() const {
  std::vector<RegionId> out;
  for (int r = 0; r < options_.topology.db_regions; ++r) {
    const RegionId region = RegionName(r);
    if (std::find(out.begin(), out.end(), region) == out.end()) {
      out.push_back(region);
    }
  }
  return out;
}

SimNode* Shard::FindNode(const MemberId& id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<MemberId> Shard::ids() const {
  std::vector<MemberId> out;
  for (const auto& [id, node] : nodes_) out.push_back(id);
  return out;
}

std::vector<MemberId> Shard::database_ids() const {
  std::vector<MemberId> out;
  for (const auto& member : config_.members) {
    if (member.kind == MemberKind::kMySql && member.is_voter()) {
      out.push_back(member.id);
    }
  }
  return out;
}

SimNode* Shard::PrimaryNode() {
  auto primary = context_.discovery->GetPrimary(context_.replicaset);
  if (!primary.has_value()) return nullptr;
  auto it = nodes_.find(*primary);
  if (it == nodes_.end() || !it->second->up()) return nullptr;
  if (!it->second->server_view()->writes_enabled()) return nullptr;
  return it->second.get();
}

MemberId Shard::CurrentPrimary() {
  const SimNode* primary = PrimaryNode();
  return primary == nullptr ? MemberId() : primary->id();
}

MemberId Shard::WaitForPrimary(uint64_t timeout_micros) {
  EventLoop* loop = context_.loop;
  const uint64_t deadline = loop->now() + timeout_micros;
  while (loop->now() < deadline) {
    const MemberId primary = CurrentPrimary();
    if (!primary.empty()) return primary;
    loop->RunFor(10'000);
  }
  return CurrentPrimary();
}

RegionId Shard::PrimaryRegion() {
  const SimNode* primary = PrimaryNode();
  return primary == nullptr ? RegionId() : primary->region();
}

bool Shard::CheckReplicaConsistency() {
  // Compare engines that have applied up to the same OpId.
  std::map<uint64_t, uint64_t> checksum_by_applied;  // applied index -> sum
  bool consistent = true;
  for (auto& [id, node] : nodes_) {
    if (!node->up()) continue;
    const server::MySqlServer* server = node->server_view();
    if (server->engine() == nullptr) continue;
    const uint64_t applied = server->engine()->LastAppliedOpId().index;
    const uint64_t checksum = server->StateChecksum();
    auto [it, inserted] = checksum_by_applied.emplace(applied, checksum);
    if (!inserted && it->second != checksum) {
      MYRAFT_LOG(Error) << "replica divergence at applied index " << applied
                        << ": " << id;
      consistent = false;
    }
  }
  return consistent;
}

std::string Shard::MetricsSnapshotJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [id, node] : nodes_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += id;
    out += "\":";
    out += node->metrics()->ToJson();
  }
  out += '}';
  return out;
}

std::string Shard::MetricsSnapshotText() const {
  std::string out;
  for (const auto& [id, node] : nodes_) {
    for (const std::string& line :
         SplitString(node->metrics()->ToText(), '\n')) {
      if (line.empty()) continue;
      out += id;
      out += '.';
      out += line;
      out += '\n';
    }
  }
  return out;
}

metrics::MetricSnapshot Shard::MetricsRollup() const {
  metrics::MetricSnapshot rollup;
  for (const auto& [id, node] : nodes_) {
    rollup.MergeFrom(node->metrics()->Snapshot());
  }
  return rollup;
}

std::string Shard::RaftstatJson() {
  return StringPrintf("{\"ts_us\":%llu,\"nodes\":%s}",
                      (unsigned long long)context_.loop->now(),
                      RaftstatNodesJson().c_str());
}

std::string Shard::RaftstatNodesJson() {
  std::string out = "{";
  bool first = true;
  for (const auto& [id, node] : nodes_) {
    if (!first) out.push_back(',');
    first = false;
    out.append(StringPrintf("\"%s\":", id.c_str()));
    if (!node->up()) {
      out.append("{\"up\":false}");
      continue;
    }
    out.append("{\"up\":true,\"server\":");
    out.append(node->server_view()->DebugStatus().ToJson());
    out.append(",\"proxy\":");
    const proxy::ProxyRouter* router = node->router();
    out.append(router != nullptr ? router->DebugStatusJson() : "null");
    out.push_back('}');
  }
  out.push_back('}');
  return out;
}

std::string Shard::RaftstatText() {
  std::string out;
  for (const auto& [id, node] : nodes_) {
    if (!node->up()) {
      out.append(StringPrintf("%s: down\n", id.c_str()));
      continue;
    }
    const auto s = node->server_view()->DebugStatus();
    out.append(StringPrintf(
        "%s: term=%llu role=%s leader=%s commit=%llu.%llu synced=%llu "
        "applied=%llu writes=%s lease=%s pending=%llu parked_reads=%llu\n",
        id.c_str(), (unsigned long long)s.raft.term,
        std::string(RaftRoleToString(s.raft.role)).c_str(),
        s.raft.leader.empty() ? "?" : s.raft.leader.c_str(),
        (unsigned long long)s.raft.commit_marker.term,
        (unsigned long long)s.raft.commit_marker.index,
        (unsigned long long)s.raft.last_synced_index,
        (unsigned long long)s.applied_index, s.writes_enabled ? "on" : "off",
        !s.raft.lease_enabled ? "off" : (s.raft.lease_valid ? "valid"
                                                            : "invalid"),
        (unsigned long long)s.pending_commits,
        (unsigned long long)s.parked_reads));
    for (const auto& p : s.raft.peers) {
      out.append(StringPrintf(
          "  peer %s: match=%llu next=%llu inflight=%llu/%lluB%s\n",
          p.id.c_str(), (unsigned long long)p.match_index,
          (unsigned long long)p.next_index,
          (unsigned long long)p.inflight_batches,
          (unsigned long long)p.inflight_bytes, p.stalled ? " STALLED" : ""));
    }
  }
  return out;
}

std::vector<trace::JournalView> Shard::TraceJournals() const {
  std::vector<trace::JournalView> out;
  for (const auto& [id, node] : nodes_) {
    out.push_back(trace::JournalView{id, node->tracer()->Snapshot()});
  }
  return out;
}

Status Shard::ProvisionMember(const MemberInfo& member,
                              const MembershipConfig& seed_config,
                              const PrepareDiskFn& prepare_disk) {
  if (nodes_.count(member.id) > 0) {
    return Status::AlreadyPresent("member already provisioned: " + member.id);
  }
  // Real automation also clones data; new rings here retain their full log
  // so catch-up from index 1 works.
  const uint32_t numeric_id =
      context_.numeric_id_base + static_cast<uint32_t>(nodes_.size());
  const Uuid uuid = Uuid::FromIndex(context_.numeric_id_base + 499 +
                                    static_cast<uint32_t>(nodes_.size()));
  auto node = std::make_unique<SimNode>(
      context_.loop, context_.network, context_.discovery, context_.quorum,
      MakeNodeOptions(member, numeric_id, uuid));
  node->metrics()->SetPrefix(context_.metric_namespace);
  if (prepare_disk != nullptr) {
    MYRAFT_RETURN_NOT_OK_PREPEND(prepare_disk(node->env(), "/" + member.id),
                                 "preparing disk for " + member.id);
  }
  MYRAFT_RETURN_NOT_OK(node->Bootstrap(seed_config));
  nodes_[member.id] = std::move(node);
  config_.members.push_back(member);
  return Status::OK();
}

// --- ShardAdmin --------------------------------------------------------------------

std::string AdminResult::ToString() const {
  return StringPrintf("%s leader=%s config=(%llu,%llu)",
                      status.ToString().c_str(),
                      leader.empty() ? "?" : leader.c_str(),
                      (unsigned long long)config_term,
                      (unsigned long long)config_version);
}

AdminResult ShardAdmin::Execute(
    const std::function<Status(server::MySqlServer*)>& op) {
  AdminResult result;
  const MemberId primary = shard_->CurrentPrimary();
  if (primary.empty()) {
    result.status = Status::ServiceUnavailable("no primary");
    return result;
  }
  result.leader = primary;
  server::MySqlServer* leader = shard_->node(primary)->server();
  result.status = op(leader);
  // Config identity applied (or current, when the op failed or did not
  // change membership): what the caller gates follow-up changes on.
  const MembershipConfig& config = leader->consensus()->config();
  result.config_term = config.config_term;
  result.config_version = config.config_version;
  return result;
}

AdminResult ShardAdmin::AddMember(const MemberInfo& member,
                                  Shard::PrepareDiskFn prepare_disk) {
  AdminResult result;
  const MemberId primary = shard_->CurrentPrimary();
  if (primary.empty()) {
    result.status = Status::ServiceUnavailable("no primary");
    return result;
  }
  server::MySqlServer* leader = shard_->node(primary)->server();

  // Seed the new member with the post-change config (current committed
  // config + itself).
  MembershipConfig seed_config = leader->consensus()->config();
  seed_config.members.push_back(member);
  result.status = shard_->ProvisionMember(member, seed_config, prepare_disk);
  if (!result.status.ok()) return result;

  return Execute([&member](server::MySqlServer* server) {
    return server->AddMember(member);
  });
}

AdminResult ShardAdmin::RemoveMember(const MemberId& member) {
  return Execute([&member](server::MySqlServer* server) {
    return server->RemoveMember(member);
  });
}

AdminResult ShardAdmin::SwapMemberType(const MemberId& member,
                                       RaftMemberType type) {
  return Execute([&member, type](server::MySqlServer* server) {
    return server->SetMemberType(member, type);
  });
}

AdminResult ShardAdmin::SetQuorumSpec(const std::string& spec) {
  return Execute([&spec](server::MySqlServer* server) {
    return server->SetQuorumSpec(spec);
  });
}

AdminResult ShardAdmin::TransferLeadership(const MemberId& target) {
  return Execute([&target](server::MySqlServer* server) {
    return server->TransferLeadership(target);
  });
}

}  // namespace myraft::sim

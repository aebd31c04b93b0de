#include "fleet/fleet.h"

#include <algorithm>
#include <cstdint>

#include "util/logging.h"
#include "util/string_util.h"

namespace myraft::fleet {

FleetHarness::FleetHarness(FleetOptions options,
                           const raft::QuorumEngine* quorum)
    : options_(std::move(options)),
      quorum_(quorum),
      loop_(options_.seed),
      network_(&loop_, sim::NetworkOptions{.metrics = &net_metrics_}) {
  shards_.resize(options_.shards);
  clients_.resize(options_.shards);
  admins_.resize(options_.shards);
}

void FleetHarness::ProvisionShard(int i) {
  const std::string rs = "rs" + std::to_string(i);

  sim::ShardOptions shard_options;
  shard_options.topology.db_regions = options_.db_regions_per_shard;
  shard_options.topology.logtailers_per_db = options_.logtailers_per_db;
  shard_options.topology.learners = options_.learners;
  if (options_.worker_budget > 0) {
    shard_options.applier_workers = std::max<uint32_t>(
        1, options_.worker_budget / static_cast<uint32_t>(options_.shards));
  }
  shard_options.trace_capacity = options_.trace_capacity;

  sim::ShardContext context{
      .loop = &loop_,
      .network = &network_,
      .discovery = &discovery_,
      .quorum = quorum_,
      // The collision fix: the same counter family from two rings rolls
      // up under distinct keys.
      .metric_namespace = "shard." + rs + ".",
      // Disjoint numeric-id/uuid/trace-salt range per shard.
      .numeric_id_base = 1 + static_cast<uint32_t>(i) * 1000,
      .slow_txn_hook = nullptr,
      .replicaset = rs,
      // Member ids must be unique on the shared network/discovery plane;
      // rotating the home region over the global region ring spreads
      // bootstrap leaders.
      .placement = {.member_prefix = rs + ".",
                    .region_offset =
                        options_.regions > 0 ? i % options_.regions : 0,
                    .region_modulus = options_.regions}};
  shards_[i] = std::make_unique<sim::Shard>(std::move(context),
                                            std::move(shard_options));

  sim::SimClient::Options client_options;
  client_options.name = "client." + rs;
  client_options.trace_id_salt = 0xFFFF + static_cast<uint64_t>(i);
  client_options.trace_capacity = options_.trace_capacity;
  clients_[i] = std::make_unique<sim::SimClient>(shards_[i].get(),
                                                 client_options);
  admins_[i] = std::make_unique<sim::ShardAdmin>(shards_[i].get());
}

Status FleetHarness::Bootstrap() {
  if (options_.shards <= 0) {
    return Status::InvalidArgument("fleet needs at least one shard");
  }
  if (options_.pending_shards < 0 ||
      options_.pending_shards > options_.shards) {
    return Status::InvalidArgument("pending_shards out of range");
  }
  for (int i = 0; i < options_.shards; ++i) ProvisionShard(i);
  const int enabled = options_.shards - options_.pending_shards;
  for (int i = 0; i < enabled; ++i) {
    MYRAFT_RETURN_NOT_OK(shards_[i]->Bootstrap());
  }
  fleet_metrics_.GetGauge("fleet.shards")->Set(options_.shards);
  fleet_metrics_.GetGauge("fleet.shards_pending")
      ->Set(options_.pending_shards);
  return Status::OK();
}

std::vector<RegionId> FleetHarness::Regions() const {
  std::vector<RegionId> out;
  out.reserve(options_.regions);
  for (int r = 0; r < options_.regions; ++r) {
    out.push_back("region" + std::to_string(r));
  }
  return out;
}

std::vector<int> FleetHarness::PendingShards() const {
  std::vector<int> out;
  for (int i = 0; i < shard_count(); ++i) {
    if (!shards_[i]->bootstrapped()) out.push_back(i);
  }
  return out;
}

Status FleetHarness::BootstrapShard(int i) {
  if (i < 0 || i >= shard_count()) {
    return Status::InvalidArgument("no such shard");
  }
  MYRAFT_RETURN_NOT_OK(shards_[i]->Bootstrap());
  fleet_metrics_.GetGauge("fleet.shards_pending")
      ->Set(static_cast<int64_t>(PendingShards().size()));
  fleet_metrics_.GetCounter("fleet.shards_enabled")->Increment();
  return Status::OK();
}

int FleetHarness::ShardsWithPrimary() {
  int count = 0;
  for (auto& shard : shards_) {
    if (shard->bootstrapped() && !shard->CurrentPrimary().empty()) ++count;
  }
  return count;
}

int FleetHarness::WaitForAllPrimaries(uint64_t timeout_micros) {
  const uint64_t deadline = loop_.now() + timeout_micros;
  int want = 0;
  for (auto& shard : shards_) {
    if (shard->bootstrapped()) ++want;
  }
  while (loop_.now() < deadline) {
    if (ShardsWithPrimary() == want) return want;
    loop_.RunFor(10'000);
  }
  return ShardsWithPrimary();
}

std::map<RegionId, int> FleetHarness::LeadersByRegion() {
  std::map<RegionId, int> counts;
  for (const RegionId& region : Regions()) counts[region] = 0;
  for (auto& shard : shards_) {
    if (!shard->bootstrapped()) continue;
    const RegionId region = shard->PrimaryRegion();
    if (!region.empty()) counts[region]++;
  }
  return counts;
}

metrics::MetricSnapshot FleetHarness::MetricsRollup() const {
  metrics::MetricSnapshot rollup;
  for (const auto& shard : shards_) {
    if (shard == nullptr || !shard->bootstrapped()) continue;
    rollup.MergeFrom(shard->MetricsRollup());
  }
  rollup.MergeFrom(net_metrics_.Snapshot());
  rollup.MergeFrom(fleet_metrics_.Snapshot());
  return rollup;
}

std::string FleetHarness::RaftstatJson() {
  std::string out = StringPrintf("{\"ts_us\":%llu,\"shards\":{",
                                 (unsigned long long)loop_.now());
  bool first = true;
  for (const auto& shard : shards_) {
    if (shard == nullptr || !shard->bootstrapped()) continue;
    if (!first) out.push_back(',');
    first = false;
    out.append(StringPrintf("\"%s\":", shard->replicaset().c_str()));
    out.append(shard->RaftstatNodesJson());
  }
  out.append("}}");
  return out;
}

}  // namespace myraft::fleet

// Reproduces the §4.2 Proxying analysis: cross-region replication
// bandwidth with and without proxying, and the per-connection resource
// burden of PROXY_OPs.
//
// Paper (§4.2.2): "proxying to a remote logtailer with the above simple
// implementation of PROXY_OPS is 2-5% of the resource burden of 'vanilla'
// Raft on a per-connection basis, assuming an average of 500 bytes of
// data per log entry."

#include "bench_util.h"
#include "flexiraft/flexiraft.h"
#include "sim/cluster.h"
#include "util/logging.h"

namespace {

using namespace myraft;
using namespace myraft::bench;
constexpr uint64_t kSecond = 1'000'000;

struct ArmStats {
  uint64_t cross_region_bytes = 0;
  uint64_t total_bytes = 0;
  /// Bytes the leader sent directly to remote logtailers (the
  /// per-connection burden of §4.2.2).
  uint64_t leader_to_remote_logtailer_bytes = 0;
  uint64_t entries = 0;
};

ArmStats RunArm(bool proxy_enabled, uint64_t seed, int writes) {
  static flexiraft::FlexiRaftQuorumEngine engine(
      {flexiraft::QuorumMode::kSingleRegionDynamic});
  sim::ClusterOptions options;
  options.seed = seed;
  options.topology.db_regions = 6;
  options.topology.logtailers_per_db = 2;
  options.topology.learners = 2;
  options.proxy.enabled = proxy_enabled;
  sim::ClusterHarness cluster(options, &engine);
  MYRAFT_CHECK(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(60 * kSecond);
  MYRAFT_CHECK(!primary.empty());
  cluster.loop()->RunFor(3 * kSecond);
  cluster.network()->ResetStats();

  // ~500-byte transactions (paper's assumption), paced so replication
  // batches stay small and per-entry accounting is clean.
  for (int i = 0; i < writes; ++i) {
    std::string value(440, 'x');
    value[i % value.size()] = 'y';
    (void)cluster.SyncWrite("k" + std::to_string(i), value);
    cluster.loop()->RunFor(5'000);
  }
  cluster.loop()->RunFor(3 * kSecond);

  ArmStats stats;
  stats.cross_region_bytes = cluster.network()->CrossRegionBytes();
  stats.total_bytes = cluster.network()->TotalBytes();
  stats.entries = static_cast<uint64_t>(writes);
  const RegionId home = cluster.node(primary)->region();
  for (const auto& [pair, link] : cluster.network()->member_link_stats()) {
    if (pair.first != primary) continue;
    const MemberId& dest = pair.second;
    sim::SimNode* dest_node = cluster.node(dest);
    if (dest_node->region() == home) continue;
    if (dest_node->server()->options().kind != MemberKind::kLogtailer) {
      continue;
    }
    stats.leader_to_remote_logtailer_bytes += link.bytes;
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace myraft;
  using namespace myraft::bench;
  SetMinLogLevel(LogLevel::kError);
  BenchArgs args = ParseArgs(argc, argv);
  const int writes = args.quick ? 100 : 600;

  PrintHeader("§4.2 reproduction: Raft Proxying bandwidth",
              "§4.2.2: PROXY_OPs to a remote logtailer cost 2-5% of "
              "vanilla Raft per connection at ~500 B/entry; cross-region "
              "bytes shrink by the remote fan-out factor");

  ArmStats with_proxy = RunArm(/*proxy=*/true, args.seed, writes);
  ArmStats without = RunArm(/*proxy=*/false, args.seed, writes);

  printf("\n%-34s %16s %16s\n", "", "proxying ON", "proxying OFF");
  printf("%-34s %16s %16s\n", "cross-region bytes",
         HumanReadableBytes(with_proxy.cross_region_bytes).c_str(),
         HumanReadableBytes(without.cross_region_bytes).c_str());
  printf("%-34s %16s %16s\n", "total bytes",
         HumanReadableBytes(with_proxy.total_bytes).c_str(),
         HumanReadableBytes(without.total_bytes).c_str());
  printf("%-34s %16s %16s\n", "leader->remote logtailer bytes",
         HumanReadableBytes(with_proxy.leader_to_remote_logtailer_bytes)
             .c_str(),
         HumanReadableBytes(without.leader_to_remote_logtailer_bytes)
             .c_str());

  const double cross_ratio =
      100.0 * static_cast<double>(with_proxy.cross_region_bytes) /
      static_cast<double>(without.cross_region_bytes);
  printf("\ncross-region bytes with proxying: %.1f%% of vanilla\n",
         cross_ratio);

  // §4.2.2 back-of-envelope, reproduced on the actual wire format: the
  // per-connection resource burden of a PROXY_OP stream vs a full data
  // stream, at ~500 bytes of data per log entry, amortised over a normal
  // replication batch.
  auto message_bytes = [](size_t batch, bool proxy_op) {
    AppendEntriesRequest request;
    request.leader = "db0";
    request.dest = "lt3a";
    request.term = 7;
    request.prev = {7, 1000};
    request.commit_marker = {7, 999};
    request.proxy_payload_omitted = proxy_op;
    if (proxy_op) request.route = {"db3"};
    for (size_t i = 0; i < batch; ++i) {
      LogEntry entry = LogEntry::Make({7, 1001 + i},
                                      EntryType::kTransaction,
                                      std::string(500, 'd'));
      if (proxy_op) entry.payload.clear();
      request.entries.push_back(std::move(entry));
    }
    return MessageWireBytes(Message(std::move(request)));
  };
  for (size_t batch : {size_t{1}, size_t{8}, size_t{32}}) {
    const double burden = 100.0 *
                          static_cast<double>(message_bytes(batch, true)) /
                          static_cast<double>(message_bytes(batch, false));
    printf("per-connection PROXY_OP burden, batch of %2zu x 500 B entries: "
           "%.1f%% of vanilla (paper: 2-5%%)\n",
           batch, burden);
  }
  printf("\nShape check: each remote region has 3 members (1 db + 2 "
         "logtailers); with proxying one full copy + 2 PROXY_OPs cross "
         "the WAN, so cross-region bytes should approach ~1/3 plus "
         "control-plane overhead.\n");
  return 0;
}

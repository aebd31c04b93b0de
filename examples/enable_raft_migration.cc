// Migration example (§5.2): start a legacy semi-synchronous replicaset
// with external failover automation, take live writes, then run the
// enable-raft tool to convert it in place to MyRaft with only a few
// seconds of write unavailability — the rollout the paper performed on
// thousands of replicasets per day.
//
//   ./build/examples/enable_raft_migration

#include <cstdio>

#include "flexiraft/flexiraft.h"
#include "tools/enable_raft.h"
#include "util/logging.h"

int main() {
  using namespace myraft;
  SetMinLogLevel(LogLevel::kError);

  // Legacy world: semi-sync replication, roles owned by automation.
  semisync::SemiSyncClusterOptions legacy;
  legacy.db_regions = 3;
  legacy.logtailers_per_db = 2;
  legacy.seed = 99;
  semisync::SemiSyncCluster cluster(legacy);
  if (!cluster.Bootstrap().ok()) return 1;
  printf("legacy primary: %s (semi-sync, external automation)\n",
         cluster.CurrentPrimary().c_str());

  for (int i = 0; i < 25; ++i) {
    auto result = cluster.SyncWrite("account:" + std::to_string(i),
                                    "balance=" + std::to_string(100 * i));
    if (!result.status.ok()) {
      fprintf(stderr, "write failed: %s\n",
              result.status.ToString().c_str());
      return 1;
    }
  }
  cluster.loop()->RunFor(2'000'000);
  printf("25 transactions committed under semi-sync\n");

  // Migrate: lock, safety checks, plugin load, stop writes + catch-up +
  // checksum comparison, restart every member as a MyRaft node over the
  // same disks, Raft bootstrap + first election.
  flexiraft::FlexiRaftQuorumEngine quorum(
      {flexiraft::QuorumMode::kSingleRegionDynamic});
  printf("\nrunning enable-raft...\n");
  auto result = tools::EnableRaft(&cluster, &quorum);
  if (!result.status.ok()) {
    fprintf(stderr, "migration failed: %s\n",
            result.status.ToString().c_str());
    return 1;
  }
  printf("migrated with %.1f ms of write unavailability "
         "(paper: \"usually a few seconds\")\n",
         result.write_unavailability_micros / 1000.0);

  auto primary = cluster.discovery()->GetPrimary("rs0");
  sim::SimNode* node = result.raft_nodes.at(*primary).get();
  printf("MyRaft primary: %s (term %llu, %s quorums)\n", primary->c_str(),
         (unsigned long long)node->server()->consensus()->term(),
         quorum.Describe().c_str());

  // Pre-migration data survived; new writes commit through Raft.
  auto old_row = node->server()->Read("bench.kv", "account:24");
  printf("account:24 after migration -> %s\n",
         old_row.has_value() ? old_row->c_str() : "(missing)");

  bool committed = false;
  binlog::RowOperation op;
  op.kind = binlog::RowOperation::Kind::kInsert;
  op.database = "bench";
  op.table = "kv";
  op.after_image = "account:new=raft";
  node->server()->SubmitWrite({op}, [&](const server::WriteResult& r) {
    committed = r.status.ok();
    printf("first raft write: %s (gtid %s, opid %s)\n",
           r.status.ToString().c_str(), r.gtid.ToString().c_str(),
           r.opid.ToString().c_str());
  });
  cluster.loop()->RunFor(2'000'000);
  return committed ? 0 : 1;
}

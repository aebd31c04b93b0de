// Quickstart: bring up a MyRaft replicaset on the simulator, write
// through the client path, read it back from every database, then crash
// the primary and watch the ring fail over by itself in ~2 seconds.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "flexiraft/flexiraft.h"
#include "sim/cluster.h"
#include "util/logging.h"

int main() {
  using namespace myraft;
  SetMinLogLevel(LogLevel::kError);

  // Paper-style topology: three regions, each with one MySQL database and
  // two logtailers; one learner.
  sim::ClusterOptions options;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  options.topology.learners = 1;
  options.seed = 2024;

  // FlexiRaft in single-region-dynamic mode: commits need only the
  // leader + one of its in-region logtailers (§4.1).
  sim::ClusterHarness cluster(options, flexiraft::SingleRegionDynamic());
  Status status = cluster.Bootstrap();
  if (!status.ok()) {
    fprintf(stderr, "bootstrap failed: %s\n", status.ToString().c_str());
    return 1;
  }

  const MemberId primary = cluster.WaitForPrimary(30'000'000);
  printf("elected primary: %s\n", primary.c_str());

  // A client write: routed via service discovery, prepared in the storage
  // engine, flushed to the binlog through Raft, consensus-committed by
  // the in-region quorum, then engine-committed (§3.4).
  auto write = cluster.SyncWrite("user:42", "alice");
  printf("write committed in %llu us: %s\n",
         (unsigned long long)write.latency_micros,
         write.status.ToString().c_str());

  // Replication: every database (followers and learners) applies it.
  cluster.loop()->RunFor(2'000'000);
  for (const MemberId& id : cluster.database_ids()) {
    auto value = cluster.node(id)->server()->Read("bench.kv", "user:42");
    printf("  %s reads user:42 -> %s\n", id.c_str(),
           value.has_value() ? value->c_str() : "(missing)");
  }

  // Admin commands keep working (§3): SHOW MASTER STATUS / BINARY LOGS.
  auto master = cluster.node(primary)->server()->ShowMasterStatus();
  printf("SHOW MASTER STATUS: file=%s position=%llu gtids=%s\n",
         master.file.c_str(), (unsigned long long)master.position,
         master.executed_gtid_set.c_str());

  // Kill the primary: detection (3 missed 500 ms heartbeats) + election +
  // promotion happen with no external automation.
  printf("\ncrashing %s...\n", primary.c_str());
  auto downtime =
      cluster.MeasureWriteDowntime([&]() { cluster.Crash(primary); });
  printf("write downtime: %.1f ms (recovered=%s)\n",
         downtime.downtime_micros / 1000.0,
         downtime.recovered ? "yes" : "no");
  printf("new primary: %s\n", cluster.CurrentPrimary().c_str());

  // Committed data survived the failover.
  auto survived = cluster.node(cluster.CurrentPrimary())
                      ->server()
                      ->Read("bench.kv", "user:42");
  printf("user:42 after failover -> %s\n",
         survived.has_value() ? survived->c_str() : "(missing)");
  return downtime.recovered && survived.has_value() ? 0 : 1;
}

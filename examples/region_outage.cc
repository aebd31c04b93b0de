// Region-outage runbook (§5.3): with FlexiRaft's small in-region commit
// quorums, losing a whole region that hosts the leader's data quorum
// "shatters" it — no leader can be elected because the election quorum
// must cover the dead region. This example walks the operator runbook:
// observe the stuck ring, run Quorum Fixer to force-promote the longest
// log, and verify committed data survived.
//
//   ./build/examples/region_outage

#include <cstdio>

#include "flexiraft/flexiraft.h"
#include "tools/quorum_fixer.h"
#include "util/logging.h"

int main() {
  using namespace myraft;
  SetMinLogLevel(LogLevel::kError);

  flexiraft::FlexiRaftQuorumEngine quorum(
      {flexiraft::QuorumMode::kSingleRegionDynamic});
  sim::ClusterOptions options;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  options.seed = 404;
  sim::ClusterHarness cluster(options, &quorum);
  if (!cluster.Bootstrap().ok()) return 1;
  const MemberId primary = cluster.WaitForPrimary(30'000'000);
  printf("primary: %s in %s\n", primary.c_str(),
         cluster.node(primary)->region().c_str());

  auto write = cluster.SyncWrite("critical", "payload");
  printf("committed a critical write: %s\n",
         write.status.ToString().c_str());
  cluster.loop()->RunFor(2'000'000);

  // Disaster: the primary's whole region goes down (power event).
  const RegionId home = cluster.node(primary)->region();
  printf("\nregion %s loses power...\n", home.c_str());
  for (const MemberId& id : cluster.ids()) {
    if (cluster.node(id)->region() == home) cluster.Crash(id);
  }

  // The surviving regions cannot elect: the election quorum must include
  // a majority of the dead region (that is where the committed tail's
  // data quorum lived).
  cluster.loop()->RunFor(20'000'000);
  printf("20 s later, primary: '%s' (ring is write-unavailable)\n",
         cluster.CurrentPrimary().c_str());

  // Operator runbook: Quorum Fixer (deliberately manual, §5.3).
  printf("\nrunning quorum fixer...\n");
  auto report = tools::RunQuorumFixer(&cluster);
  printf("quorum fixer: %s (chose %s at %s)\n",
         report.status.ToString().c_str(), report.chosen.c_str(),
         report.chosen_last_log.ToString().c_str());
  if (!report.status.ok()) return 1;

  cluster.loop()->RunFor(10'000'000);
  const MemberId new_primary = cluster.WaitForPrimary(30'000'000);
  printf("availability restored; primary: %s in %s\n", new_primary.c_str(),
         cluster.node(new_primary)->region().c_str());

  auto survived = cluster.node(new_primary)->server()->Read("bench.kv",
                                                            "critical");
  printf("critical -> %s\n",
         survived.has_value() ? survived->c_str() : "(missing)");
  auto resumed = cluster.SyncWrite("after-outage", "ok");
  printf("new write: %s\n", resumed.status.ToString().c_str());
  return resumed.status.ok() ? 0 : 1;
}

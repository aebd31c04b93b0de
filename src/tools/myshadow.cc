#include "tools/myshadow.h"

#include <map>

#include "util/logging.h"
#include "util/string_util.h"

namespace myraft::tools {

namespace {

/// Tracks committed writes so durability can be audited after the run.
struct CommitLedger {
  std::map<std::string, std::string> committed;  // key -> value
  uint64_t committed_count = 0;
  uint64_t failed_count = 0;
};

void BackgroundWrite(sim::ClusterHarness* cluster, CommitLedger* ledger,
                     Random* rng, uint64_t round) {
  const std::string key =
      StringPrintf("shadow-%llu-%llu", (unsigned long long)round,
                   (unsigned long long)rng->Next() % 1000000);
  const std::string value = StringPrintf("v%llu",
                                         (unsigned long long)rng->Next());
  cluster->ClientWrite(key, value,
                       [ledger, key, value](
                           const sim::ClientWriteResult& r) {
                         if (r.status.ok()) {
                           ledger->committed[key] = value;
                           ++ledger->committed_count;
                         } else {
                           ++ledger->failed_count;
                         }
                       });
}

/// Audits every committed write against the current primary.
int AuditDurability(sim::ClusterHarness* cluster, const CommitLedger& ledger) {
  const MemberId primary = cluster->CurrentPrimary();
  if (primary.empty()) return 0;  // audited next time
  server::MySqlServer* server = cluster->node(primary)->server();
  int violations = 0;
  for (const auto& [key, value] : ledger.committed) {
    const auto stored = server->Read("bench.kv", key);
    if (!stored.has_value() || *stored != key + "=" + value) {
      ++violations;
      MYRAFT_LOG(Error) << "myshadow: committed write lost: " << key;
    }
  }
  return violations;
}

}  // namespace

MyShadowReport RunMyShadow(sim::ClusterHarness* cluster,
                           MyShadowOptions options) {
  MyShadowReport report;
  Random rng(options.seed);
  CommitLedger ledger;
  sim::EventLoop* loop = cluster->loop();

  // Continuous background workload for the whole test.
  const double gap_micros = 1e6 / options.workload_rate_per_sec;
  uint64_t round_counter = 0;
  std::function<void()> pump = [&]() { /* replaced below */ };
  bool pumping = true;
  std::function<void()> schedule_pump = [&]() {
    if (!pumping) return;
    loop->Schedule(static_cast<uint64_t>(rng.Exponential(gap_micros)) + 1,
                   [&]() {
                     BackgroundWrite(cluster, &ledger, &rng, round_counter);
                     schedule_pump();
                   });
  };
  schedule_pump();

  if (cluster->WaitForPrimary(30'000'000).empty()) {
    report.status = Status::ServiceUnavailable("no primary to test");
    return report;
  }

  // --- Failure-injection testing: crash the leader, measure, restart. ---
  for (int round = 0; round < options.failure_injection_rounds; ++round) {
    round_counter = static_cast<uint64_t>(round);
    const MemberId primary = cluster->WaitForPrimary(60'000'000);
    if (primary.empty()) {
      report.status = Status::ServiceUnavailable("lost the ring mid-test");
      return report;
    }
    auto downtime = cluster->MeasureWriteDowntime(
        [cluster, primary]() { cluster->Crash(primary); });
    if (!downtime.recovered) {
      report.status = Status::TimedOut("failover did not recover");
      return report;
    }
    report.failover_downtime_micros.Add(downtime.downtime_micros);

    loop->Schedule(options.restart_delay_micros, [cluster, primary]() {
      Status s = cluster->Restart(primary);
      if (!s.ok()) MYRAFT_LOG(Error) << "myshadow restart: " << s;
    });
    loop->RunFor(options.settle_micros + options.restart_delay_micros);

    if (!cluster->CheckReplicaConsistency()) ++report.consistency_violations;
    report.durability_violations += AuditDurability(cluster, ledger);
    ++report.rounds_run;
  }

  // --- Functional testing: graceful transfers (+ membership changes). ---
  for (int round = 0; round < options.functional_rounds; ++round) {
    round_counter = static_cast<uint64_t>(1000 + round);
    const MemberId primary = cluster->WaitForPrimary(60'000'000);
    if (primary.empty()) {
      report.status = Status::ServiceUnavailable("lost the ring mid-test");
      return report;
    }
    // Pick the next database voter as the transfer target.
    MemberId target;
    for (const MemberId& id : cluster->database_ids()) {
      if (id != primary && cluster->node(id)->up()) {
        target = id;
        break;
      }
    }
    if (target.empty()) break;
    loop->RunFor(2'000'000);  // let the ring fully catch up first
    auto downtime = cluster->MeasureWriteDowntime([cluster, primary,
                                                   target]() {
      Status s =
          cluster->node(primary)->server()->TransferLeadership(target);
      if (!s.ok()) MYRAFT_LOG(Warning) << "myshadow transfer: " << s;
    });
    if (downtime.recovered) {
      report.promotion_downtime_micros.Add(downtime.downtime_micros);
    }
    loop->RunFor(options.settle_micros);
    if (!cluster->CheckReplicaConsistency()) ++report.consistency_violations;
    report.durability_violations += AuditDurability(cluster, ledger);
    ++report.rounds_run;
  }

  pumping = false;
  loop->RunFor(options.settle_micros);
  report.writes_committed = ledger.committed_count;
  report.writes_failed = ledger.failed_count;
  report.durability_violations += AuditDurability(cluster, ledger);
  report.status = Status::OK();
  return report;
}

}  // namespace myraft::tools

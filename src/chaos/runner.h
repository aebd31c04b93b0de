// ChaosRunner: executes one fault Schedule against a fresh simulated
// cluster under a concurrent client workload, auditing invariants at
// every quiescent window. Fully deterministic: a (schedule, options)
// pair always produces the byte-identical ChaosReport.
//
// Run structure (the Jepsen nemesis pattern):
//
//   bootstrap -> [ inject faults + workload ... quiesce + audit ]* -> report
//
// where each quiescent window heals every network fault, restarts every
// crashed node, waits for the cluster to converge (a timeout here is
// itself a liveness violation) and then runs the full invariant audit of
// invariants.h against the ledger of client-acknowledged writes.

#ifndef MYRAFT_CHAOS_RUNNER_H_
#define MYRAFT_CHAOS_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/schedule.h"
#include "sim/cluster.h"

namespace myraft::chaos {

struct ChaosOptions {
  /// Base cluster topology/config. The runner overrides the seed (from
  /// the schedule) and failure detection, made fast so failovers resolve
  /// within a window. Replication runs the shipped regime: followers hold
  /// each ack until the fsync covering it completes.
  sim::ClusterOptions cluster;

  /// Concurrent workload: one unique-key write every this-many micros.
  uint64_t write_interval_micros = 25'000;
  /// Concurrent read workload (§13): one leader read of a previously
  /// acked key every this-many micros, audited against the ledger (the
  /// "no stale read under lease" invariant). 0 disables.
  uint64_t read_interval_micros = 50'000;
};

struct ChaosReport {
  uint64_t seed = 0;
  bool passed = false;
  int windows = 0;
  uint64_t writes_issued = 0;
  uint64_t writes_acked = 0;
  uint64_t reads_issued = 0;
  uint64_t reads_ok = 0;
  /// Successful reads served by the lease fast path (vs quorum rounds).
  uint64_t reads_lease = 0;
  uint64_t steps_applied = 0;
  /// Steps that resolved to nothing (e.g. "@leader" with no primary, or
  /// crashing an already-down node); skipping keeps minimized schedules
  /// executable out of their original context.
  uint64_t steps_skipped = 0;
  std::vector<Violation> violations;

  /// Deterministic text form: identical runs serialize byte-identically.
  std::string ToText() const;
};

class ChaosRunner {
 public:
  ChaosRunner(ChaosOptions options, const raft::QuorumEngine* quorum);

  /// Runs the schedule on a fresh cluster. Reusable; each call builds a
  /// new cluster and checker.
  ChaosReport Run(const Schedule& schedule);

  /// Causal-trace journal of the last Run (attach to failure artifacts).
  std::string TraceJsonl() const;

  /// Most recent flight-recorder bundle of the last Run ("" when the obs
  /// plane never triggered). Same-seed runs produce byte-identical
  /// bundles — kept out of ChaosReport::ToText, whose byte-identity
  /// contract predates the recorder, and exposed like TraceJsonl for
  /// failure artifacts.
  std::string LastBundleJson() const;
  /// Cluster-wide `SHOW RAFT STATUS` text as of the end of the last Run
  /// (`bench_chaos --raftstat`).
  std::string RaftstatText() const;

 private:
  void IssueWrite(ChaosReport* report);
  void IssueRead(InvariantChecker* checker, ChaosReport* report);
  void ApplyStep(const FaultStep& step, InvariantChecker* checker,
                 ChaosReport* report);
  void Quiesce(InvariantChecker* checker, ChaosReport* report);
  bool Converged();
  std::string DescribeConvergence();
  /// Flight-recorder trigger: captures a bundle for the newest violation
  /// when the checker has grown since the last capture.
  void CaptureOnNewViolations(InvariantChecker* checker);

  ChaosOptions options_;
  const raft::QuorumEngine* quorum_;
  std::unique_ptr<sim::ClusterHarness> cluster_;  // last run's cluster
  std::vector<AckedWrite> acked_;
  size_t violations_captured_ = 0;
};

}  // namespace myraft::chaos

#endif  // MYRAFT_CHAOS_RUNNER_H_

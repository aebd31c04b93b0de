// MyShadow-style shadow testing (§5.1): drives a production-representative
// workload against an isolated cluster while repeatedly injecting the two
// classes of disruptions the paper used —
//   * failure injection: crash the current leader (failover) and restart
//     it later; also crash followers, learners and witnesses;
//   * functional testing: graceful leadership transfers and membership
//     changes —
// while continuously checking correctness (engine state checksums across
// caught-up replicas, committed-write durability) and recording
// client-observed downtime per round.

#ifndef MYRAFT_TOOLS_MYSHADOW_H_
#define MYRAFT_TOOLS_MYSHADOW_H_

#include "sim/cluster.h"
#include "util/histogram.h"

namespace myraft::tools {

struct MyShadowOptions {
  int failure_injection_rounds = 10;
  int functional_rounds = 10;
  /// Background write arrival rate during testing.
  double workload_rate_per_sec = 200.0;
};

struct MyShadowReport {
  Status status;
  int rounds_run = 0;
  int consistency_violations = 0;
  int durability_violations = 0;  // committed write later missing
  uint64_t writes_committed = 0;
  uint64_t writes_failed = 0;
  Histogram failover_downtime_micros;
  Histogram promotion_downtime_micros;
};

MyShadowReport RunMyShadow(sim::ClusterHarness* cluster,
                           MyShadowOptions options);

}  // namespace myraft::tools

#endif  // MYRAFT_TOOLS_MYSHADOW_H_

// Delta-debugging minimizer for failing chaos schedules. Given a
// schedule whose run produced invariant violations, ddmin searches for a
// 1-minimal subset of the fault steps that still reproduces a violation
// with the same failure signature (the set of violated invariant names).
// The result is the smallest replayable repro the harness can emit.

#ifndef MYRAFT_CHAOS_MINIMIZER_H_
#define MYRAFT_CHAOS_MINIMIZER_H_

#include <set>
#include <string>

#include "chaos/runner.h"
#include "chaos/schedule.h"

namespace myraft::chaos {

struct MinimizeResult {
  /// 1-minimal failing schedule (equals the input if nothing could be
  /// removed within budget).
  Schedule schedule;
  /// Report from the minimized schedule's run.
  ChaosReport report;
  int runs = 0;
};

/// Failure signature of a report: the sorted set of violated invariants.
std::set<std::string> FailureSignature(const ChaosReport& report);

/// `failing` must reproduce violations under `runner_options`; the
/// candidate acceptance test is a non-empty intersection between its
/// signature and `FailureSignature` of the original run.
MinimizeResult MinimizeSchedule(const ChaosOptions& runner_options,
                                const raft::QuorumEngine* quorum,
                                const Schedule& failing);

}  // namespace myraft::chaos

#endif  // MYRAFT_CHAOS_MINIMIZER_H_

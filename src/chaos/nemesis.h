// Nemesis: the seeded fault-schedule generator. Given a seed and the
// cluster's member list, it composes the fault primitives in schedule.h
// into a randomized-but-deterministic Schedule: the same (seed, members,
// options) always produces the byte-identical schedule, so any corpus
// failure is immediately replayable with --seed alone.

#ifndef MYRAFT_CHAOS_NEMESIS_H_
#define MYRAFT_CHAOS_NEMESIS_H_

#include <cstdint>
#include <vector>

#include "chaos/schedule.h"
#include "sim/cluster.h"
#include "wire/types.h"

namespace myraft::chaos {

/// Member ids ClusterHarness::Bootstrap will create for `options`, in
/// sorted order — lets a schedule be generated before the cluster exists.
/// (chaos_test pins this against ClusterHarness::ids() to catch drift.)
std::vector<MemberId> TopologyMemberIds(const sim::ClusterOptions& options);

struct NemesisOptions {
  uint64_t duration_micros = 20'000'000;
  uint64_t quiesce_interval_micros = 5'000'000;
  /// Number of injected faults (heals/restarts paired with a fault do not
  /// count against this).
  int min_faults = 3;
  int max_faults = 9;
  /// How long an injected fault is held before its paired heal/restart.
  uint64_t min_hold_micros = 300'000;
  uint64_t max_hold_micros = 2'500'000;
  /// Probability that a crash/cut is left unhealed, to be cleaned up by
  /// the next quiescent window instead of a paired step.
  double leave_unhealed_probability = 0.25;
  /// Probability that a crash-family fault targets "@leader".
  double target_leader_probability = 0.4;
  bool allow_torn_crashes = true;
  /// Include bounded-clock-drift faults (§13: clock-skew / clock-rate on
  /// single nodes, leader included). Off by default so schedules
  /// generated from historical seeds stay byte-identical (checked-in
  /// repros regenerate exactly).
  bool clock_faults = false;
  /// Include membership-churn faults (§15: remove/re-add a member,
  /// demote/promote voter ↔ learner, driven through the live leader while
  /// other faults are in flight). Off by default for the same historical
  /// byte-identity reason as clock_faults.
  bool reconfig_faults = false;
};

/// `members` must be the full sorted member-id list (ClusterHarness::ids()
/// returns it sorted); determinism depends on a stable order.
Schedule GenerateSchedule(uint64_t seed, const std::vector<MemberId>& members,
                          const NemesisOptions& options = {});

}  // namespace myraft::chaos

#endif  // MYRAFT_CHAOS_NEMESIS_H_

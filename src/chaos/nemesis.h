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

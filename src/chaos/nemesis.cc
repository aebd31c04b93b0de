#include "chaos/nemesis.h"

#include <algorithm>
#include <string>

#include "util/random.h"
#include "util/string_util.h"

namespace myraft::chaos {
namespace {

/// Number of injected faults (heals/restarts paired with a fault do not
/// count against this).
constexpr int kMinFaults = 3;
constexpr int kMaxFaults = 9;
/// How long an injected fault is held before its paired heal/restart.
constexpr uint64_t kMinHoldMicros = 300'000;
constexpr uint64_t kMaxHoldMicros = 2'500'000;
/// Probability that a crash/cut is left unhealed, to be cleaned up by
/// the next quiescent window instead of a paired step.
constexpr double kLeaveUnhealedProbability = 0.25;
/// Probability that a crash-family fault targets "@leader".
constexpr double kTargetLeaderProbability = 0.4;

// Weighted fault families the generator draws from. Crash faults dominate
// (they exercise recovery, the richest bug surface), with torn crashes as
// likely as clean ones.
enum class Family {
  kCrash,
  kCrashTorn,
  kOneWayCut,
  kLinkCut,
  kPartition,
  kLoss,
  kDuplicate,
  kJitter,
  kClockSkew,
  kClockRate,
  kReconfig,
};

struct WeightedFamily {
  Family family;
  uint32_t weight;
};

bool FamilyEnabled(Family family, const NemesisOptions& options) {
  if (family == Family::kClockSkew || family == Family::kClockRate) {
    return options.clock_faults;
  }
  if (family == Family::kReconfig) return options.reconfig_faults;
  return true;
}

Family PickFamily(Random* rng, const NemesisOptions& options) {
  // Clock families sit at the END of the table: with clock_faults off,
  // the weight prefix (and so every historical seed's draw sequence) is
  // unchanged.
  static constexpr WeightedFamily kFamilies[] = {
      {Family::kCrash, 3},   {Family::kCrashTorn, 3}, {Family::kOneWayCut, 2},
      {Family::kLinkCut, 2}, {Family::kPartition, 2}, {Family::kLoss, 1},
      {Family::kDuplicate, 1}, {Family::kJitter, 1},
      {Family::kClockSkew, 2}, {Family::kClockRate, 2},
      {Family::kReconfig, 3},
  };
  uint32_t total = 0;
  for (const WeightedFamily& f : kFamilies) {
    if (!FamilyEnabled(f.family, options)) continue;
    total += f.weight;
  }
  uint32_t pick = static_cast<uint32_t>(rng->Uniform(total));
  for (const WeightedFamily& f : kFamilies) {
    if (!FamilyEnabled(f.family, options)) continue;
    if (pick < f.weight) return f.family;
    pick -= f.weight;
  }
  return Family::kCrash;  // unreachable
}

}  // namespace

std::vector<MemberId> TopologyMemberIds(const sim::ClusterOptions& options) {
  std::vector<MemberId> ids;
  for (int r = 0; r < options.topology.db_regions; ++r) {
    ids.push_back("db" + std::to_string(r));
    for (int l = 0; l < options.topology.logtailers_per_db; ++l) {
      ids.push_back(StringPrintf("lt%d%c", r, static_cast<char>('a' + l)));
    }
  }
  for (int i = 0; i < options.topology.learners; ++i) {
    ids.push_back("learner" + std::to_string(i));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Schedule GenerateSchedule(uint64_t seed, const std::vector<MemberId>& members,
                          const NemesisOptions& options) {
  Schedule schedule;
  schedule.seed = seed;
  schedule.duration_micros = options.duration_micros;
  schedule.quiesce_interval_micros = options.quiesce_interval_micros;
  if (members.empty()) return schedule;

  // Decorrelate from the cluster's own RNG streams (which use the seed
  // directly) and keep seed 0 usable.
  Random rng(seed * 6364136223846793005ull + 1442695040888963407ull);

  const int faults =
      kMinFaults + static_cast<int>(rng.Uniform(
                       static_cast<uint64_t>(kMaxFaults - kMinFaults + 1)));

  auto pick_member = [&]() -> std::string {
    return members[rng.Uniform(members.size())];
  };
  auto pick_crash_target = [&]() -> std::string {
    if (rng.NextDouble() < kTargetLeaderProbability) return "@leader";
    return pick_member();
  };
  auto hold = [&]() -> uint64_t {
    return rng.UniformRange(kMinHoldMicros, kMaxHoldMicros);
  };

  for (int i = 0; i < faults; ++i) {
    // Leave room before the end so held faults usually resolve in-window.
    const uint64_t at = rng.Uniform(options.duration_micros);
    const bool heal = rng.NextDouble() >= kLeaveUnhealedProbability;
    const Family family = PickFamily(&rng, options);
    FaultStep step;
    step.at_micros = at;
    switch (family) {
      case Family::kCrash:
      case Family::kCrashTorn: {
        step.action = family == Family::kCrash ? FaultAction::kCrash
                                               : FaultAction::kCrashTorn;
        step.targets = {pick_crash_target()};
        if (heal) {
          // "*" restarts whatever is down: stays meaningful when the
          // minimizer deletes the crash, and needs no leader resolution.
          FaultStep restart;
          restart.at_micros = at + hold();
          restart.action = FaultAction::kRestart;
          restart.targets = {"*"};
          schedule.steps.push_back(std::move(restart));
        }
        break;
      }
      case Family::kOneWayCut: {
        std::string from = pick_crash_target();
        std::string to = pick_member();
        step.action = FaultAction::kOneWayCut;
        step.targets = {from, to};
        if (heal) {
          FaultStep h;
          h.at_micros = at + hold();
          h.action = FaultAction::kOneWayHeal;
          h.targets = {from, to};
          schedule.steps.push_back(std::move(h));
        }
        break;
      }
      case Family::kLinkCut: {
        std::string a = pick_member();
        std::string b = pick_member();
        step.action = FaultAction::kLinkCut;
        step.targets = {a, b};
        if (heal) {
          FaultStep h;
          h.at_micros = at + hold();
          h.action = FaultAction::kLinkHeal;
          h.targets = {a, b};
          schedule.steps.push_back(std::move(h));
        }
        break;
      }
      case Family::kPartition: {
        // A minority-leaning group: 1 .. ceil(n/2) members, possibly
        // including the leader's slot via "@leader".
        const size_t max_group = std::max<size_t>(1, members.size() / 2);
        const size_t size = 1 + rng.Uniform(max_group);
        std::vector<std::string> group;
        if (rng.NextDouble() < kTargetLeaderProbability) {
          group.push_back("@leader");
        }
        while (group.size() < size) {
          std::string candidate = pick_member();
          if (std::find(group.begin(), group.end(), candidate) ==
              group.end()) {
            group.push_back(candidate);
          }
        }
        step.action = FaultAction::kPartition;
        step.targets = group;
        if (heal) {
          FaultStep h;
          h.at_micros = at + hold();
          h.action = FaultAction::kPartitionHeal;
          h.targets = group;
          schedule.steps.push_back(std::move(h));
        }
        break;
      }
      case Family::kLoss:
      case Family::kDuplicate:
      case Family::kJitter: {
        if (family == Family::kLoss) {
          step.action = FaultAction::kLossRate;
          step.param = rng.UniformRange(10'000, 150'000);  // 1% .. 15%
        } else if (family == Family::kDuplicate) {
          step.action = FaultAction::kDuplicateRate;
          step.param = rng.UniformRange(10'000, 200'000);  // 1% .. 20%
        } else {
          step.action = FaultAction::kJitter;
          step.param = rng.UniformRange(1'000, 50'000);
        }
        if (heal) {
          FaultStep h;
          h.at_micros = at + hold();
          h.action = step.action;
          h.param = 0;
          schedule.steps.push_back(std::move(h));
        }
        break;
      }
      case Family::kClockSkew:
      case Family::kClockRate: {
        // Per-node clock faults (§13), leader included: skew jumps up to
        // ~2x a lease duration; rates 0.5x .. 2x nominal, far beyond any
        // realistic oscillator so the drift margin is genuinely stressed.
        const std::string target = pick_crash_target();
        if (family == Family::kClockSkew) {
          step.action = FaultAction::kClockSkew;
          step.param = rng.UniformRange(50'000, 2'000'000);
        } else {
          step.action = FaultAction::kClockRate;
          step.param = rng.UniformRange(500'000, 2'000'000);
        }
        step.targets = {target};
        if (heal) {
          FaultStep h;
          h.at_micros = at + hold();
          h.action = FaultAction::kClockHeal;
          h.targets = {target};
          schedule.steps.push_back(std::move(h));
        }
        break;
      }
      case Family::kReconfig: {
        // Membership churn (§15): remove a member mid-faults and re-add
        // it later, or bounce its voting status. Concrete targets only —
        // the runner resolves leader-collisions at fire time.
        const std::string target = pick_member();
        step.action = FaultAction::kReconfig;
        if (rng.NextDouble() < 0.5) {
          step.targets = {"remove", target};
          // Always pair the re-add: an unhealed remove would shrink the
          // ring for the rest of the run (quiesce heals faults, not
          // membership).
          FaultStep h;
          h.at_micros = at + hold();
          h.action = FaultAction::kReconfig;
          h.targets = {"add", target};
          schedule.steps.push_back(std::move(h));
        } else {
          step.targets = {"demote", target};
          if (heal) {
            FaultStep h;
            h.at_micros = at + hold();
            h.action = FaultAction::kReconfig;
            h.targets = {"promote", target};
            schedule.steps.push_back(std::move(h));
          }
        }
        break;
      }
    }
    schedule.steps.push_back(std::move(step));
  }

  std::stable_sort(schedule.steps.begin(), schedule.steps.end(),
                   [](const FaultStep& a, const FaultStep& b) {
                     return a.at_micros < b.at_micros;
                   });
  return schedule;
}

}  // namespace myraft::chaos

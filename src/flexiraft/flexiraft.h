// FlexiRaft (§4.1): flexible commit quorums for Raft. Quorums are defined
// in terms of majorities within disjoint member groups built from
// physical proximity (geographic regions).
//
// Modes:
//  * kSingleRegionDynamic — the production default. The data-commit
//    quorum is a majority of the voters in the *leader's own region*
//    (e.g. the MySQL primary plus one of its two in-region logtailers),
//    giving commit latencies in the hundreds of microseconds. The quorum
//    shifts to the new leader's region on every leader change; quorum
//    intersection is preserved by requiring the leader-election quorum to
//    cover BOTH a majority of the last known leader's region (where the
//    committed tail might live) AND a majority of the candidate's own
//    region (which becomes the new data quorum).
//  * kMultiRegion — the data-commit quorum requires an in-region majority
//    in at least K distinct regions (consistency over latency); the
//    election quorum must intersect every possible data quorum, i.e.
//    achieve an in-region majority in all but K-1 regions.
//  * kVanillaMajority — falls back to standard Raft counting (used for
//    ablations).

#ifndef MYRAFT_FLEXIRAFT_FLEXIRAFT_H_
#define MYRAFT_FLEXIRAFT_FLEXIRAFT_H_

#include <string>
#include <utility>

#include "raft/quorum.h"

namespace myraft::flexiraft {

enum class QuorumMode {
  kVanillaMajority = 0,
  kSingleRegionDynamic = 1,
  kMultiRegion = 2,
};

std::string_view QuorumModeToString(QuorumMode mode);

struct FlexiRaftOptions {
  QuorumMode mode = QuorumMode::kSingleRegionDynamic;
  /// kMultiRegion: number of distinct regions that must each contribute an
  /// in-region majority to commit.
  int multi_region_commit_regions = 2;
};

class FlexiRaftQuorumEngine final : public raft::QuorumEngine {
 public:
  explicit FlexiRaftQuorumEngine(FlexiRaftOptions options)
      : options_(options) {}

  bool IsCommitQuorumSatisfied(
      const raft::QuorumContext& context,
      const std::set<MemberId>& ackers) const override;

  bool IsElectionQuorumSatisfied(
      const raft::QuorumContext& context,
      const std::set<MemberId>& granted) const override;

  std::string Describe() const override;

  const FlexiRaftOptions& options() const { return options_; }

 private:
  /// Resolve the mode this evaluation runs under: the config's
  /// quorum_spec override when present ("majority", "single-region",
  /// "multi:<K>"), else the engine's configured mode. Making the rule
  /// part of the config turns data-quorum changes into ordinary
  /// config-version bumps, so every member switches rules at the same
  /// config identity instead of via out-of-band engine reconfiguration.
  /// Unparsable specs resolve to vanilla majority — the one quorum that
  /// is always safe. Returns {mode, multi-region K}.
  std::pair<QuorumMode, int> EffectiveMode(
      const MembershipConfig& config) const;
  /// True if `members` contains a strict majority of the voters whose
  /// region is `region`. Regions without voters never have majorities.
  static bool HasRegionMajority(const MembershipConfig& config,
                                const RegionId& region,
                                const std::set<MemberId>& members);
  /// Number of distinct regions in which `members` holds an in-region
  /// voter majority.
  static int CountRegionMajorities(const MembershipConfig& config,
                                   const std::set<MemberId>& members);

  FlexiRaftOptions options_;
};

/// The production default engine (kSingleRegionDynamic), built once and
/// kept for the life of the process. The engine is stateless, so every
/// ring may share it.
const FlexiRaftQuorumEngine* SingleRegionDynamic();

}  // namespace myraft::flexiraft

#endif  // MYRAFT_FLEXIRAFT_FLEXIRAFT_H_

#include "flexiraft/flexiraft.h"

#include <algorithm>
#include <cstdlib>

#include "util/string_util.h"

namespace myraft::flexiraft {

namespace {

// Calls `fn` once per region that has voters, in first-appearance order,
// without building per-region groups: the quorum checks run on every
// leader ack and every vote.
template <typename Fn>
void ForEachVoterRegion(const MembershipConfig& config, Fn fn) {
  const std::vector<MemberInfo>& members = config.members;
  for (auto it = members.begin(); it != members.end(); ++it) {
    if (!it->is_voter()) continue;
    const bool seen =
        std::any_of(members.begin(), it, [&](const MemberInfo& m) {
          return m.is_voter() && m.region == it->region;
        });
    if (!seen) fn(it->region);
  }
}

int NumVoterRegions(const MembershipConfig& config) {
  int count = 0;
  ForEachVoterRegion(config, [&count](const RegionId&) { ++count; });
  return count;
}

}  // namespace

std::string_view QuorumModeToString(QuorumMode mode) {
  switch (mode) {
    case QuorumMode::kVanillaMajority:
      return "vanilla-majority";
    case QuorumMode::kSingleRegionDynamic:
      return "single-region-dynamic";
    case QuorumMode::kMultiRegion:
      return "multi-region";
  }
  return "?";
}

std::pair<QuorumMode, int> FlexiRaftQuorumEngine::EffectiveMode(
    const MembershipConfig& config) const {
  const std::string& spec = config.quorum_spec;
  if (spec.empty()) {
    return {options_.mode, options_.multi_region_commit_regions};
  }
  if (spec == "majority") return {QuorumMode::kVanillaMajority, 0};
  if (spec == "single-region") return {QuorumMode::kSingleRegionDynamic, 0};
  if (spec.rfind("multi:", 0) == 0) {
    const int k = std::atoi(spec.c_str() + 6);
    if (k >= 1) return {QuorumMode::kMultiRegion, k};
  }
  return {QuorumMode::kVanillaMajority, 0};
}

bool FlexiRaftQuorumEngine::HasRegionMajority(
    const MembershipConfig& config, const RegionId& region,
    const std::set<MemberId>& members) {
  if (region.empty()) return false;
  int voters = 0;
  int present = 0;
  for (const auto& m : config.members) {
    if (!m.is_voter() || m.region != region) continue;
    ++voters;
    if (members.count(m.id) > 0) ++present;
  }
  return voters > 0 && present > voters / 2;
}

int FlexiRaftQuorumEngine::CountRegionMajorities(
    const MembershipConfig& config, const std::set<MemberId>& members) {
  int count = 0;
  ForEachVoterRegion(config, [&](const RegionId& region) {
    if (HasRegionMajority(config, region, members)) ++count;
  });
  return count;
}

bool FlexiRaftQuorumEngine::IsCommitQuorumSatisfied(
    const raft::QuorumContext& context,
    const std::set<MemberId>& ackers) const {
  const MembershipConfig& config = *context.config;
  const auto [mode, multi_k] = EffectiveMode(config);
  switch (mode) {
    case QuorumMode::kVanillaMajority: {
      raft::MajorityQuorumEngine vanilla;
      return vanilla.IsCommitQuorumSatisfied(context, ackers);
    }
    case QuorumMode::kSingleRegionDynamic: {
      // §4.1: "the leader [reaches] consensus commit on a log entry as
      // soon as acknowledgements have been received from its in-region
      // data quorum (a self-vote from the leader and an acknowledgement
      // from one of the two in-region logtailers)".
      if (context.subject_region.empty()) {
        raft::MajorityQuorumEngine vanilla;
        return vanilla.IsCommitQuorumSatisfied(context, ackers);
      }
      return HasRegionMajority(config, context.subject_region, ackers);
    }
    case QuorumMode::kMultiRegion:
      return CountRegionMajorities(config, ackers) >= multi_k;
  }
  return false;
}

bool FlexiRaftQuorumEngine::IsElectionQuorumSatisfied(
    const raft::QuorumContext& context,
    const std::set<MemberId>& granted) const {
  const MembershipConfig& config = *context.config;
  const auto [mode, multi_k] = EffectiveMode(config);
  switch (mode) {
    case QuorumMode::kVanillaMajority: {
      raft::MajorityQuorumEngine vanilla;
      return vanilla.IsElectionQuorumSatisfied(context, granted);
    }
    case QuorumMode::kSingleRegionDynamic: {
      // The committed tail can only live in a potential leader's region's
      // majority, so the election quorum must cover those; the candidate's
      // own region majority is additionally required since it becomes the
      // next data quorum (§4.3).
      const bool own_region_ok =
          HasRegionMajority(config, context.subject_region, granted);
      if (!own_region_ok) return false;
      if (context.responded != nullptr) {
        // Live election: the last-leader view was aggregated from vote
        // responses, so it is only trustworthy once a majority of EVERY
        // voter region has responded (grants or denials both carry the
        // voter's evidence). Any responding majority of a region
        // intersects every vote and ack quorum that region ever formed,
        // so the freshest potential leader cannot hide from the sample.
        // Without this, a candidate starved of one region's traffic can
        // judge itself against a stale view and elect with a quorum
        // disjoint from a rival's (two leaders in one term).
        const int regions = NumVoterRegions(config);
        if (CountRegionMajorities(config, *context.responded) < regions) {
          return false;
        }
        const std::set<RegionId>* evidence = context.evidence_regions;
        if (evidence == nullptr || evidence->empty()) {
          // No leader and no binding vote anywhere in the covered
          // majorities: the cluster is pristine. Majorities of every
          // region keep two pristine same-term candidates intersecting.
          return CountRegionMajorities(config, granted) == regions;
        }
        // Pessimistic rule (§4.1): a binding vote for X at term T means a
        // term-T leader may exist in X's region, so intersect the data
        // quorum of every evidence region — not just the max-term one,
        // which two candidates can disagree on.
        for (const RegionId& region : *evidence) {
          if (region == context.subject_region) continue;
          bool has_voters = false;
          for (const auto& m : config.members) {
            if (m.is_voter() && m.region == region) {
              has_voters = true;
              break;
            }
          }
          // A region with no voters left (drained by config change)
          // cannot form a data quorum anyone could have committed into.
          if (has_voters && !HasRegionMajority(config, region, granted)) {
            return false;
          }
        }
        return true;
      }
      // Caller-vouched view (unit-style callers, optimistic doom checks).
      if (context.last_leader_region.empty()) {
        // No commits can exist before the first leader; a majority of all
        // voters is the safe bootstrap quorum.
        raft::MajorityQuorumEngine vanilla;
        return vanilla.IsElectionQuorumSatisfied(context, granted);
      }
      if (context.last_leader_region == context.subject_region) return true;
      return HasRegionMajority(config, context.last_leader_region, granted);
    }
    case QuorumMode::kMultiRegion: {
      // Must intersect every possible K-region data quorum: majorities in
      // at least R - K + 1 regions (pigeonhole).
      const int needed = NumVoterRegions(config) - multi_k + 1;
      return CountRegionMajorities(config, granted) >= std::max(1, needed);
    }
  }
  return false;
}

std::string FlexiRaftQuorumEngine::Describe() const {
  if (options_.mode == QuorumMode::kMultiRegion) {
    return StringPrintf("flexiraft(multi-region, k=%d)",
                        options_.multi_region_commit_regions);
  }
  return std::string("flexiraft(") +
         std::string(QuorumModeToString(options_.mode)) + ")";
}

const FlexiRaftQuorumEngine* SingleRegionDynamic() {
  static const auto* engine = new FlexiRaftQuorumEngine(
      FlexiRaftOptions{.mode = QuorumMode::kSingleRegionDynamic});
  return engine;
}

}  // namespace myraft::flexiraft

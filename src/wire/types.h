// Core domain types shared by every layer: OpIds, member identity,
// replicaset membership. Kept below binlog/raft in the dependency order so
// both can use them.

#ifndef MYRAFT_WIRE_TYPES_H_
#define MYRAFT_WIRE_TYPES_H_

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/string_util.h"

namespace myraft {

/// Raft (term, index) pair stamped on every replicated log entry.
/// §3: "every transaction is assigned an OpID (Raft term and log index)".
struct OpId {
  uint64_t term = 0;
  uint64_t index = 0;

  auto operator<=>(const OpId&) const = default;

  /// Raft log ordering: an entry at a higher term is "later" regardless of
  /// index; within a term, higher index is later. This is exactly the
  /// "longest log wins" comparison used by elections.
  bool IsLaterThan(const OpId& other) const {
    if (term != other.term) return term > other.term;
    return index > other.index;
  }

  bool IsZero() const { return term == 0 && index == 0; }

  std::string ToString() const {
    return StringPrintf("%llu.%llu", (unsigned long long)term,
                        (unsigned long long)index);
  }
};

/// Minimum/zero OpId: precedes every real entry.
inline constexpr OpId kZeroOpId{0, 0};

/// Member identity within a replicaset. Stable across restarts.
using MemberId = std::string;

/// Geographical region name (e.g. "region-a"). FlexiRaft groups quorums by
/// region (§4.1: "groups are constructed based on physical proximity").
using RegionId = std::string;

/// What process backs the member (Table 1): a full MySQL server or a
/// logtailer (stores the log but has no storage engine).
enum class MemberKind : uint8_t {
  kMySql = 0,
  kLogtailer = 1,
};

/// Raft participation level. Witnesses in the paper are logtailer voters;
/// learners are passive non-voters.
enum class RaftMemberType : uint8_t {
  kVoter = 0,
  kNonVoter = 1,  // learner
};

std::string_view MemberKindToString(MemberKind kind);
std::string_view RaftMemberTypeToString(RaftMemberType type);

/// One member of a replicaset's Raft ring.
struct MemberInfo {
  MemberId id;
  RegionId region;
  MemberKind kind = MemberKind::kMySql;
  RaftMemberType type = RaftMemberType::kVoter;

  bool operator==(const MemberInfo&) const = default;

  /// Table 1 terminology: Leader / Follower / Learner / Witness. Witness =
  /// logtailer voter.
  bool is_witness() const {
    return kind == MemberKind::kLogtailer && type == RaftMemberType::kVoter;
  }
  bool is_learner() const { return type == RaftMemberType::kNonVoter; }
  bool is_voter() const { return type == RaftMemberType::kVoter; }
  bool has_engine() const { return kind == MemberKind::kMySql; }
};

/// Replicaset membership. Changed one member at a time (§2.2: "Quorum
/// intersection is implicitly achieved by allowing only one membership
/// change at a time").
///
/// The config is versioned consensus STATE, not a log entry (Schultz et
/// al.): it is identified by (config_term, config_version), ordered
/// lexicographically with the term dominating — a new leader rewrites
/// config_term to its own term, superseding any uncommitted config a
/// deposed leader may still be propagating.
struct MembershipConfig {
  std::vector<MemberInfo> members;
  /// Config identity: bumped by one on every config change.
  uint64_t config_version = 0;
  /// Term of the leader that (re)issued this config.
  uint64_t config_term = 0;
  /// Data-quorum override consulted by the quorum engine: "" (engine
  /// default), "majority", "single-region", or "multi:<K>". Making the
  /// quorum rule part of the config turns FlexiRaft data-quorum changes
  /// into ordinary config-version bumps.
  std::string quorum_spec;

  bool operator==(const MembershipConfig&) const = default;

  /// Lexicographic (config_term, config_version) comparison — the "which
  /// config supersedes which" rule.
  bool IdIsNewerThan(const MembershipConfig& other) const {
    if (config_term != other.config_term) {
      return config_term > other.config_term;
    }
    return config_version > other.config_version;
  }
  bool SameIdAs(const MembershipConfig& other) const {
    return config_term == other.config_term &&
           config_version == other.config_version;
  }

  const MemberInfo* Find(const MemberId& id) const;
  bool Contains(const MemberId& id) const { return Find(id) != nullptr; }
  std::vector<MemberId> VoterIds() const;
  std::vector<MemberId> MemberIds() const;
  int NumVoters() const;
  /// Voters grouped by region, insertion-ordered by first appearance.
  std::vector<std::pair<RegionId, std::vector<MemberId>>> VotersByRegion()
      const;
  std::string ToString() const;
};

/// Raft role of a member (§2.1).
enum class RaftRole : uint8_t {
  kFollower = 0,
  kCandidate = 1,
  kLeader = 2,
  kLearner = 3,
};

std::string_view RaftRoleToString(RaftRole role);

/// MySQL-side role orchestrated by the plugin callbacks (§3.3).
enum class DbRole : uint8_t {
  kReplica = 0,
  kPrimary = 1,
  kNone = 2,  // logtailers have no database role
};

std::string_view DbRoleToString(DbRole role);

}  // namespace myraft

#endif  // MYRAFT_WIRE_TYPES_H_

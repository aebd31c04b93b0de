// Durable per-member consensus metadata: current term, vote, the last
// known leader (FlexiRaft's dynamic quorums key off it, §4.1: "quorum
// intersection is achieved by keeping track of the last known leader and
// voting history on each server"), and the active membership config.

#ifndef MYRAFT_RAFT_CONSENSUS_METADATA_H_
#define MYRAFT_RAFT_CONSENSUS_METADATA_H_

#include <string>

#include "util/env.h"
#include "wire/types.h"

namespace myraft::raft {

struct ConsensusMetadata {
  uint64_t current_term = 0;
  MemberId voted_for;           // empty = none this term
  MemberId last_known_leader;   // empty = never saw one
  RegionId last_leader_region;
  /// Term at which last_known_leader led; lets candidates rank competing
  /// last-leader reports by recency during elections.
  uint64_t last_leader_term = 0;
  /// Voting history (§4.1): the most recent binding vote this member cast
  /// (NOT cleared on term bumps). A vote for candidate X at term T is
  /// evidence that a term-T leader may exist in X's region, so election
  /// quorums must cover that region until fresher knowledge arrives.
  uint64_t last_vote_term = 0;
  MemberId last_voted_for;
  RegionId last_voted_region;
  MembershipConfig config;
  /// The last config known to be committed (installed on an install
  /// quorum of that config). `config` runs ahead of this while a change is
  /// pending. Persisted only when it differs from `config`.
  MembershipConfig committed_config;

  bool operator==(const ConsensusMetadata&) const = default;
};

/// Atomic (write-temp-then-rename) file persistence for the metadata.
class ConsensusMetadataStore {
 public:
  ConsensusMetadataStore(Env* env, std::string path)
      : env_(env), path_(std::move(path)) {}

  /// Loads the stored metadata, or default-initialised metadata when the
  /// file does not exist yet (first boot).
  Result<ConsensusMetadata> Load() const;
  Status Save(const ConsensusMetadata& metadata) const;

 private:
  Env* env_;
  std::string path_;
};

}  // namespace myraft::raft

#endif  // MYRAFT_RAFT_CONSENSUS_METADATA_H_

#include "wire/types.h"

namespace myraft {

std::string_view MemberKindToString(MemberKind kind) {
  switch (kind) {
    case MemberKind::kMySql:
      return "mysql";
    case MemberKind::kLogtailer:
      return "logtailer";
  }
  return "?";
}

std::string_view RaftMemberTypeToString(RaftMemberType type) {
  switch (type) {
    case RaftMemberType::kVoter:
      return "voter";
    case RaftMemberType::kNonVoter:
      return "non-voter";
  }
  return "?";
}

std::string_view RaftRoleToString(RaftRole role) {
  switch (role) {
    case RaftRole::kFollower:
      return "follower";
    case RaftRole::kCandidate:
      return "candidate";
    case RaftRole::kLeader:
      return "leader";
    case RaftRole::kLearner:
      return "learner";
  }
  return "?";
}

std::string_view DbRoleToString(DbRole role) {
  switch (role) {
    case DbRole::kReplica:
      return "replica";
    case DbRole::kPrimary:
      return "primary";
    case DbRole::kNone:
      return "none";
  }
  return "?";
}

const MemberInfo* MembershipConfig::Find(const MemberId& id) const {
  for (const auto& m : members) {
    if (m.id == id) return &m;
  }
  return nullptr;
}

std::vector<MemberId> MembershipConfig::VoterIds() const {
  std::vector<MemberId> out;
  for (const auto& m : members) {
    if (m.is_voter()) out.push_back(m.id);
  }
  return out;
}

std::vector<MemberId> MembershipConfig::MemberIds() const {
  std::vector<MemberId> out;
  for (const auto& m : members) out.push_back(m.id);
  return out;
}

int MembershipConfig::NumVoters() const {
  int n = 0;
  for (const auto& m : members) n += m.is_voter() ? 1 : 0;
  return n;
}

std::string MembershipConfig::ToString() const {
  std::string out =
      StringPrintf("config@%llu.%llu{", (unsigned long long)config_term,
                   (unsigned long long)config_version);
  for (size_t i = 0; i < members.size(); ++i) {
    const auto& m = members[i];
    if (i) out += ", ";
    out += StringPrintf("%s(%s/%s/%s)", m.id.c_str(), m.region.c_str(),
                        std::string(MemberKindToString(m.kind)).c_str(),
                        std::string(RaftMemberTypeToString(m.type)).c_str());
  }
  out += "}";
  if (!quorum_spec.empty()) out += "[" + quorum_spec + "]";
  return out;
}

}  // namespace myraft

#include "sim/topology.h"

#include <algorithm>

#include "util/string_util.h"

namespace myraft::sim {

TopologyOptions PaperRingTopology() {
  return TopologyOptions{.db_regions = 6, .logtailers_per_db = 2,
                         .learners = 2};
}

RegionId RingRegion(const TopologyOptions& topology,
                    const RingPlacement& placement, int r) {
  const int modulus = placement.region_modulus > 0 ? placement.region_modulus
                                                   : topology.db_regions;
  return "region" +
         std::to_string((placement.region_offset + r) % std::max(modulus, 1));
}

std::vector<MemberInfo> RingMembers(const TopologyOptions& topology,
                                    const RingPlacement& placement) {
  std::vector<MemberInfo> members;
  auto add = [&](const std::string& name, int r, MemberKind kind,
                 RaftMemberType type) {
    members.push_back(MemberInfo{placement.member_prefix + name,
                                 RingRegion(topology, placement, r), kind,
                                 type});
  };
  for (int r = 0; r < topology.db_regions; ++r) {
    add("db" + std::to_string(r), r, MemberKind::kMySql,
        RaftMemberType::kVoter);
    for (int l = 0; l < topology.logtailers_per_db; ++l) {
      add(StringPrintf("lt%d%c", r, static_cast<char>('a' + l)), r,
          MemberKind::kLogtailer, RaftMemberType::kVoter);
    }
  }
  for (int i = 0; i < topology.learners; ++i) {
    add("learner" + std::to_string(i),
        topology.db_regions > 1 ? 1 + i % (topology.db_regions - 1) : 0,
        MemberKind::kMySql, RaftMemberType::kNonVoter);
  }
  return members;
}

std::vector<MemberId> SortedIds(const std::vector<MemberInfo>& members) {
  std::vector<MemberId> ids;
  for (const MemberInfo& member : members) ids.push_back(member.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace myraft::sim

// Topology: the one home of a ring's member layout (§6.1). A ring has
// `db_regions` regions, each with one database voter and its logtailers,
// plus learners placed round-robin over the follower regions. The MyRaft
// Shard, the semi-sync cluster and the chaos nemesis all take their
// members from RingMembers(), so the two A/B arms differ in protocol
// alone.

#ifndef MYRAFT_SIM_TOPOLOGY_H_
#define MYRAFT_SIM_TOPOLOGY_H_

#include <string>
#include <vector>

#include "wire/types.h"

namespace myraft::sim {

/// Shape of one ring: what a caller sets.
struct TopologyOptions {
  /// Regions hosting a database voter + its logtailers. Region index 0 is
  /// the bootstrap primary's.
  int db_regions = 3;
  int logtailers_per_db = 2;
  /// Non-voting databases, placed round-robin in follower regions.
  int learners = 0;
};

/// Where a host puts a ring. Region index `r` maps to the global region
/// ring as "region<(region_offset + r) % modulus>", where modulus 0 means
/// db_regions: a standalone ring names its regions region0..N-1, while a
/// fleet rotates its shards across a shared set of regions.
struct RingPlacement {
  /// Prepended to every member id ("" = bare ids: db0, lt0a, ...). The
  /// fleet sets "<rs>." so ids stay unique on its shared network.
  std::string member_prefix;
  int region_offset = 0;
  int region_modulus = 0;
};

/// The §6.1 ring both A/B arms run: 6 regions x (database + 2
/// logtailers) + 2 learners.
TopologyOptions PaperRingTopology();

/// Global name of ring region index `r`.
RegionId RingRegion(const TopologyOptions& topology,
                    const RingPlacement& placement, int r);

/// The ring's members in bootstrap order: per region its database voter
/// (db<r>) then its logtailers (lt<r>a, lt<r>b, ...), then the learners.
std::vector<MemberInfo> RingMembers(const TopologyOptions& topology,
                                    const RingPlacement& placement = {});

/// The members' ids, sorted: the order Shard::ids() reports and nemesis
/// schedules draw from.
std::vector<MemberId> SortedIds(const std::vector<MemberInfo>& members);

}  // namespace myraft::sim

#endif  // MYRAFT_SIM_TOPOLOGY_H_

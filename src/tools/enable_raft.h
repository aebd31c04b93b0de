// enable-raft (§5.2): orchestrates the migration of a live semi-sync
// replicaset to MyRaft with a small, bounded write-unavailability window:
//
//   1. hold the replicaset's distributed lock (no concurrent control-plane
//      operations);
//   2. safety checks (no maintenance in flight, all members reachable);
//   3. load the plugin + Raft configuration on every member (modelled);
//   4. stop client writes, wait until every replica has caught up and the
//      databases agree on state checksums;
//   5. restart each member as a MyRaft node over the same disk and
//      bootstrap the ring; the Raft election + promotion re-enables
//      writes and publishes to service discovery.

#ifndef MYRAFT_TOOLS_ENABLE_RAFT_H_
#define MYRAFT_TOOLS_ENABLE_RAFT_H_

#include <map>
#include <memory>

#include "semisync/cluster.h"
#include "sim/node.h"

namespace myraft::tools {

/// Outcome of a migration, including the nodes now running MyRaft. The
/// caller keeps driving the same event loop/network.
struct EnableRaftResult {
  Status status;
  /// Virtual time spent holding writes (step 4 through first Raft
  /// primary); the paper reports "a small amount of write unavailability
  /// ... usually a few seconds".
  uint64_t write_unavailability_micros = 0;
  std::map<MemberId, std::unique_ptr<sim::SimNode>> raft_nodes;
};

/// Runs the full migration synchronously on the cluster's event loop.
EnableRaftResult EnableRaft(semisync::SemiSyncCluster* cluster,
                            const raft::QuorumEngine* quorum);

}  // namespace myraft::tools

#endif  // MYRAFT_TOOLS_ENABLE_RAFT_H_

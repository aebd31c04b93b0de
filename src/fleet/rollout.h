// EnableRaftRollout: the paper's §5.2 fleet migration as an orchestration
// over FleetHarness — N rollout workers drain the queue of dark
// (pre-Raft) shards concurrently, but every individual shard migration
// runs under the fleet's DistributedLock, so exactly one shard is
// mid-migration at any instant no matter how many workers race. Each
// migration bootstraps the shard's ring and holds the lock until the ring
// elects a primary and serves writes (the §5.2 "enable and verify"
// step).

#ifndef MYRAFT_FLEET_ROLLOUT_H_
#define MYRAFT_FLEET_ROLLOUT_H_

#include <deque>
#include <string>

#include "fleet/fleet.h"
#include "fleet/lock.h"

namespace myraft::fleet {

struct RolloutOptions {
  /// Concurrent rollout workers contending for the lock (modelling
  /// independent automation jobs; the lock is what serialises them).
  int workers = 4;
};

class EnableRaftRollout {
 public:
  EnableRaftRollout(FleetHarness* fleet, DistributedLock* lock,
                    RolloutOptions options);

  /// Queues every pending shard and releases the workers. Progress is
  /// driven by the fleet's event loop.
  void Start();
  /// Start() + run the fleet loop until the rollout drains (or the
  /// timeout elapses).
  Status RunToCompletion(uint64_t timeout_micros);

  bool done() const { return started_ && active_workers_ == 0; }
  int migrated() const { return migrated_; }
  int failed() const { return failed_; }
  /// High-watermark of concurrently-migrating shards. The §5.2 invariant
  /// under test: with the lock in place this is exactly 1 regardless of
  /// worker count.
  int max_concurrent_migrations() const { return max_in_flight_; }

 private:
  void WorkerNext(int worker);
  void Migrate(int worker, int shard_index);
  void PollPrimary(int worker, int shard_index, uint64_t deadline);
  void FinishMigration(int worker, int shard_index, bool ok);

  FleetHarness* fleet_;
  DistributedLock* lock_;
  RolloutOptions options_;
  std::deque<int> queue_;
  bool started_ = false;
  int active_workers_ = 0;
  int migrated_ = 0;
  int failed_ = 0;
  int in_flight_ = 0;
  int max_in_flight_ = 0;
};

}  // namespace myraft::fleet

#endif  // MYRAFT_FLEET_ROLLOUT_H_

// DistributedLock: the modelled lock service gating fleet-wide rollouts
// (paper §5.2: "enable-raft ... serialized behind a distributed lock so
// only one shard migrates at a time"). Acquisition has a modelled
// round-trip cost, waiters queue FIFO, and an optional TTL fences a
// holder that never releases (the operator tooling crashing mid-rollout).

#ifndef MYRAFT_FLEET_LOCK_H_
#define MYRAFT_FLEET_LOCK_H_

#include <deque>
#include <functional>
#include <string>

#include "sim/event_loop.h"
#include "util/metrics.h"

namespace myraft::fleet {

class DistributedLock {
 public:
  struct Options {
    /// Holder lease: past this the lock service fences the holder and
    /// grants the next waiter (0 = never expires).
    uint64_t ttl_micros = 0;
    /// Optional registry for lock.* counters/gauges.
    metrics::MetricRegistry* metrics = nullptr;
  };

  DistributedLock(sim::EventLoop* loop, std::string name, Options options);

  DistributedLock(const DistributedLock&) = delete;
  DistributedLock& operator=(const DistributedLock&) = delete;

  /// Queues `owner` for the lock; `granted` fires (via the loop, after
  /// the modelled RPC) once it is the holder.
  void Acquire(const std::string& owner, std::function<void()> granted);
  /// Releases if `owner` still holds (a fenced owner's late release is
  /// ignored — the TTL already moved the lock on).
  void Release(const std::string& owner);

  const std::string& holder() const { return holder_; }
  bool held() const { return !holder_.empty(); }
  size_t waiters() const { return queue_.size(); }
  uint64_t grants() const { return grants_; }
  uint64_t expirations() const { return expirations_; }

 private:
  struct Waiter {
    std::string owner;
    std::function<void()> granted;
  };

  void GrantNext();

  sim::EventLoop* loop_;
  std::string name_;
  Options options_;
  std::string holder_;
  /// Incremented per grant so a TTL armed for an old holder can't fence
  /// a newer one with the same owner string.
  uint64_t generation_ = 0;
  std::deque<Waiter> queue_;
  uint64_t grants_ = 0;
  uint64_t expirations_ = 0;
};

}  // namespace myraft::fleet

#endif  // MYRAFT_FLEET_LOCK_H_

#include "fleet/rollout.h"

#include <algorithm>

namespace myraft::fleet {

namespace {

/// Per-shard budget for the ring to elect a primary post-bootstrap;
/// overrunning marks the shard failed and moves on.
constexpr uint64_t kPrimaryWaitMicros = 60'000'000;
/// Cadence of the post-bootstrap primary poll.
constexpr uint64_t kPollIntervalMicros = 10'000;

}  // namespace

EnableRaftRollout::EnableRaftRollout(FleetHarness* fleet,
                                     DistributedLock* lock,
                                     RolloutOptions options)
    : fleet_(fleet), lock_(lock), options_(options) {}

void EnableRaftRollout::Start() {
  if (started_) return;
  started_ = true;
  for (int index : fleet_->PendingShards()) queue_.push_back(index);
  const int workers = std::max(1, options_.workers);
  active_workers_ = workers;
  for (int w = 0; w < workers; ++w) WorkerNext(w);
}

void EnableRaftRollout::WorkerNext(int worker) {
  if (queue_.empty()) {
    --active_workers_;
    return;
  }
  const int shard_index = queue_.front();
  queue_.pop_front();
  const std::string owner = "rollout-worker-" + std::to_string(worker);
  lock_->Acquire(owner, [this, worker, shard_index]() {
    Migrate(worker, shard_index);
  });
}

void EnableRaftRollout::Migrate(int worker, int shard_index) {
  ++in_flight_;
  max_in_flight_ = std::max(max_in_flight_, in_flight_);
  fleet_->fleet_metrics()
      ->GetGauge("fleet.rollout_in_flight")
      ->Set(in_flight_);

  const Status status = fleet_->BootstrapShard(shard_index);
  if (!status.ok()) {
    FinishMigration(worker, shard_index, false);
    return;
  }
  // §5.2 "verify": hold the lock until the ring actually serves writes.
  PollPrimary(worker, shard_index, fleet_->loop()->now() + kPrimaryWaitMicros);
}

void EnableRaftRollout::PollPrimary(int worker, int shard_index,
                                    uint64_t deadline) {
  sim::Shard* shard = fleet_->shard(shard_index);
  if (!shard->CurrentPrimary().empty()) {
    FinishMigration(worker, shard_index, true);
    return;
  }
  if (fleet_->loop()->now() >= deadline) {
    FinishMigration(worker, shard_index, false);
    return;
  }
  fleet_->loop()->Schedule(kPollIntervalMicros,
                           [this, worker, shard_index, deadline]() {
                             PollPrimary(worker, shard_index, deadline);
                           });
}

void EnableRaftRollout::FinishMigration(int worker, int shard_index,
                                        bool ok) {
  --in_flight_;
  fleet_->fleet_metrics()
      ->GetGauge("fleet.rollout_in_flight")
      ->Set(in_flight_);
  if (ok) {
    ++migrated_;
    fleet_->fleet_metrics()->GetCounter("fleet.rollout_migrated")
        ->Increment();
  } else {
    ++failed_;
    fleet_->fleet_metrics()->GetCounter("fleet.rollout_failed")->Increment();
  }
  lock_->Release("rollout-worker-" + std::to_string(worker));
  WorkerNext(worker);
}

Status EnableRaftRollout::RunToCompletion(uint64_t timeout_micros) {
  Start();
  sim::EventLoop* loop = fleet_->loop();
  const uint64_t deadline = loop->now() + timeout_micros;
  while (!done() && loop->now() < deadline) {
    loop->RunFor(10'000);
  }
  if (!done()) return Status::TimedOut("rollout did not drain");
  if (failed_ > 0) {
    return Status::IllegalState(std::to_string(failed_) +
                                " shard migration(s) failed");
  }
  return Status::OK();
}

}  // namespace myraft::fleet

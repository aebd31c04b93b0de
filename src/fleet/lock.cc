#include "fleet/lock.h"

namespace myraft::fleet {

namespace {

/// Modelled acquire/release round trip to the lock service.
constexpr uint64_t kRpcMicros = 2'000;

}  // namespace

DistributedLock::DistributedLock(sim::EventLoop* loop, std::string name,
                                 Options options)
    : loop_(loop), name_(std::move(name)), options_(options) {}

void DistributedLock::Acquire(const std::string& owner,
                              std::function<void()> granted) {
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("lock." + name_ + ".acquire_requests")
        ->Increment();
    if (held()) {
      options_.metrics->GetCounter("lock." + name_ + ".contended")
          ->Increment();
    }
  }
  queue_.push_back(Waiter{owner, std::move(granted)});
  if (!held()) GrantNext();
}

void DistributedLock::Release(const std::string& owner) {
  if (holder_ != owner) return;  // fenced (TTL) or double release
  holder_.clear();
  ++generation_;
  if (!queue_.empty()) GrantNext();
}

void DistributedLock::GrantNext() {
  if (queue_.empty() || held()) return;
  Waiter next = std::move(queue_.front());
  queue_.pop_front();
  holder_ = next.owner;
  ++generation_;
  ++grants_;
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("lock." + name_ + ".grants")->Increment();
    options_.metrics->GetGauge("lock." + name_ + ".waiters")
        ->Set(static_cast<int64_t>(queue_.size()));
  }
  if (options_.ttl_micros > 0) {
    const uint64_t armed_generation = generation_;
    loop_->Schedule(options_.ttl_micros, [this, armed_generation]() {
      if (generation_ != armed_generation || !held()) return;
      // Fence the expired holder and move on.
      ++expirations_;
      if (options_.metrics != nullptr) {
        options_.metrics->GetCounter("lock." + name_ + ".expirations")
            ->Increment();
      }
      holder_.clear();
      ++generation_;
      if (!queue_.empty()) GrantNext();
    });
  }
  // The grant itself travels back over the modelled RPC.
  loop_->Schedule(kRpcMicros, [cb = std::move(next.granted)]() { cb(); });
}

}  // namespace myraft::fleet

// RaftOptions::defer for hand-driven unit fixtures: deferred callbacks
// (the group-commit sync stage) queue up and run only when the fixture
// drains the queue after delivering an input, never inside the consensus
// call that scheduled them — the same order an event loop gives.

#ifndef MYRAFT_TESTS_QUEUED_DEFER_H_
#define MYRAFT_TESTS_QUEUED_DEFER_H_

#include <deque>
#include <functional>
#include <utility>

namespace myraft::raft_test {

class QueuedDefer {
 public:
  using Fn = std::function<void()>;

  /// The hook to install as RaftOptions::defer. The delay is ignored:
  /// everything runs at the next Drain().
  std::function<void(uint64_t, Fn)> Hook() {
    return [this](uint64_t, Fn fn) { queue_.push_back(std::move(fn)); };
  }

  /// Runs queued callbacks, including any they schedule, until none are
  /// left.
  void Drain() {
    while (!queue_.empty()) {
      Fn fn = std::move(queue_.front());
      queue_.pop_front();
      fn();
    }
  }

  /// Forgets queued callbacks, e.g. before the consensus that scheduled
  /// them is destroyed.
  void Clear() { queue_.clear(); }

 private:
  std::deque<Fn> queue_;
};

}  // namespace myraft::raft_test

#endif  // MYRAFT_TESTS_QUEUED_DEFER_H_

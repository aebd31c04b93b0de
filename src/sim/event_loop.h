// Discrete-event simulation core: a virtual clock plus an ordered event
// queue. All distributed experiments in this repo (failover timing,
// commit-latency histograms, proxy bandwidth) run on this loop, so a
// 30-day production aggregation replays in seconds and every run is
// deterministic for a given seed.

#ifndef MYRAFT_SIM_EVENT_LOOP_H_
#define MYRAFT_SIM_EVENT_LOOP_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "util/clock.h"
#include "util/random.h"

namespace myraft::sim {

/// Virtual clock owned by the event loop.
class SimClock final : public Clock {
 public:
  uint64_t NowMicros() const override { return now_micros_; }

 private:
  friend class EventLoop;
  uint64_t now_micros_ = 0;
};

/// Position of an event in the loop's order: by time, then by the loop
/// time at which it was scheduled, then by sequence number. A plain
/// Schedule() issued at loop time `a` with sequence `s` gets
/// (a + delay, a, s), so plain events at equal times run in scheduling
/// order; a keyed event (ScheduleAt) takes the exact place a plain one
/// with the same key would.
struct EventKey {
  uint64_t time = 0;
  uint64_t scheduled_at = 0;
  uint64_t seq = 0;

  auto operator<=>(const EventKey&) const = default;
};

class EventLoop {
 public:
  using Callback = std::function<void()>;

  explicit EventLoop(uint64_t seed) : rng_(seed) {}

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimClock* clock() { return &clock_; }
  Random* rng() { return &rng_; }
  uint64_t now() const { return clock_.NowMicros(); }

  /// Schedules `callback` to run `delay_micros` from now, keyed
  /// (now + delay, now, next sequence number): events at equal times run
  /// in scheduling order (stable). Returns a cancellation id.
  uint64_t Schedule(uint64_t delay_micros, Callback callback);

  /// Takes the next sequence number without scheduling anything, for a
  /// caller that will key later events with it (ScheduleAt).
  uint64_t ReserveSeq() { return next_seq_++; }

  /// Schedules `callback` at an explicit key, which must not have run yet
  /// (HasRun). Several pending events may share a key's sequence number,
  /// so keyed events cannot be cancelled; the caller stamps them instead.
  void ScheduleAt(const EventKey& key, Callback callback);

  /// Whether the loop has moved past `key`: an event at that key would
  /// already have run. After RunUntil(t) every key at time t has run.
  bool HasRun(const EventKey& key) const { return key <= passed_; }

  /// Cancels a scheduled event; no-op if it already ran, was cancelled
  /// or was never issued.
  void Cancel(uint64_t event_id);

  /// Runs events until the queue is empty or virtual time would pass
  /// `deadline_micros`; the clock ends at min(deadline, last event time).
  void RunUntil(uint64_t deadline_micros);
  void RunFor(uint64_t duration_micros) { RunUntil(now() + duration_micros); }

  /// Runs the single next event; returns false if none are pending.
  bool RunOne();

  size_t pending_events() const { return queue_.size() - cancelled_.size(); }
  /// Events ever scheduled (cancelled ones included, and every
  /// ScheduleAt and ReserveSeq): the loop's sequence counter, which moves
  /// iff some code scheduled an event.
  uint64_t events_scheduled() const { return next_seq_ - 1; }
  /// Events the loop has popped and run (cancelled ones not included).
  uint64_t events_run() const { return events_run_; }

 private:
  struct Event {
    EventKey key;
    Callback callback;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return b.key < a.key;
    }
  };

  void Push(const EventKey& key, Callback callback);
  /// Removes and returns the earliest event.
  Event PopNext();

  SimClock clock_;
  Random rng_;
  std::vector<Event> queue_;  // binary heap ordered by Later
  std::set<uint64_t> cancelled_;
  uint64_t next_seq_ = 1;
  EventKey passed_;  // every key at or before this one has run
  uint64_t events_run_ = 0;
};

}  // namespace myraft::sim

#endif  // MYRAFT_SIM_EVENT_LOOP_H_

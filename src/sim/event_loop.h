// Discrete-event simulation core: a virtual clock plus an ordered event
// queue. All distributed experiments in this repo (failover timing,
// commit-latency histograms, proxy bandwidth) run on this loop, so a
// 30-day production aggregation replays in seconds and every run is
// deterministic for a given seed.

#ifndef MYRAFT_SIM_EVENT_LOOP_H_
#define MYRAFT_SIM_EVENT_LOOP_H_

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

class EventLoop {
 public:
  using Callback = std::function<void()>;

  explicit EventLoop(uint64_t seed) : rng_(seed) {}

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimClock* clock() { return &clock_; }
  Random* rng() { return &rng_; }
  uint64_t now() const { return clock_.NowMicros(); }

  /// Schedules `callback` to run `delay_micros` from now. Events at equal
  /// times run in scheduling order (stable). Returns a cancellation id.
  uint64_t Schedule(uint64_t delay_micros, Callback callback);

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
  /// Events ever scheduled (cancelled ones included): the loop's sequence
  /// counter, which moves iff some code scheduled an event.
  uint64_t events_scheduled() const { return next_seq_ - 1; }

 private:
  struct Event {
    uint64_t time;
    uint64_t seq;
    Callback callback;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Removes and returns the earliest (time, seq) event.
  Event PopNext();

  SimClock clock_;
  Random rng_;
  std::vector<Event> queue_;  // binary heap ordered by Later
  std::set<uint64_t> cancelled_;
  uint64_t next_seq_ = 1;
};

}  // namespace myraft::sim

#endif  // MYRAFT_SIM_EVENT_LOOP_H_

#include "sim/event_loop.h"

#include <algorithm>

#include "util/logging.h"

namespace myraft::sim {

void EventLoop::Push(const EventKey& key, Callback callback) {
  queue_.push_back(Event{key, std::move(callback)});
  std::push_heap(queue_.begin(), queue_.end(), Later());
}

uint64_t EventLoop::Schedule(uint64_t delay_micros, Callback callback) {
  const uint64_t seq = next_seq_++;
  Push(EventKey{now() + delay_micros, now(), seq}, std::move(callback));
  return seq;
}

void EventLoop::ScheduleAt(const EventKey& key, Callback callback) {
  MYRAFT_CHECK(key.time >= now() && !HasRun(key))
      << "event keyed at or before the loop's position";
  ++next_seq_;  // every scheduled event counts in events_scheduled()
  Push(key, std::move(callback));
}

void EventLoop::Cancel(uint64_t event_id) {
  // Only a still-queued event can be cancelled: remembering an id that
  // already ran (or was never issued) would leak it in cancelled_ and
  // skew pending_events(). Cancels are rare, so a scan is fine.
  if (cancelled_.count(event_id) > 0) return;
  const bool queued = std::any_of(
      queue_.begin(), queue_.end(),
      [event_id](const Event& e) { return e.key.seq == event_id; });
  if (queued) cancelled_.insert(event_id);
}

EventLoop::Event EventLoop::PopNext() {
  std::pop_heap(queue_.begin(), queue_.end(), Later());
  Event event = std::move(queue_.back());
  queue_.pop_back();
  return event;
}

bool EventLoop::RunOne() {
  while (!queue_.empty()) {
    // Moved, not copied: the callback owns captured messages and payloads.
    Event event = PopNext();
    if (!cancelled_.empty() && cancelled_.erase(event.key.seq) > 0) continue;
    MYRAFT_CHECK(event.key.time >= clock_.now_micros_)
        << "event scheduled in the past";
    clock_.now_micros_ = event.key.time;
    if (passed_ < event.key) passed_ = event.key;
    ++events_run_;
    event.callback();
    return true;
  }
  return false;
}

void EventLoop::RunUntil(uint64_t deadline_micros) {
  while (!queue_.empty()) {
    const Event& next = queue_.front();
    if (!cancelled_.empty() && cancelled_.count(next.key.seq) > 0) {
      cancelled_.erase(next.key.seq);
      PopNext();
      continue;
    }
    if (next.key.time > deadline_micros) break;
    RunOne();
  }
  if (clock_.now_micros_ < deadline_micros) {
    clock_.now_micros_ = deadline_micros;
  }
  // Every key at the deadline has now run, including those of events
  // nobody scheduled (a node's idle tick slots).
  const EventKey end{deadline_micros, UINT64_MAX, UINT64_MAX};
  if (passed_ < end) passed_ = end;
}

}  // namespace myraft::sim

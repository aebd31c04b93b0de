#include "sim/event_loop.h"

#include <algorithm>

#include "util/logging.h"

namespace myraft::sim {

uint64_t EventLoop::Schedule(uint64_t delay_micros, Callback callback) {
  const uint64_t seq = next_seq_++;
  queue_.push_back(Event{now() + delay_micros, seq, std::move(callback)});
  std::push_heap(queue_.begin(), queue_.end(), Later());
  return seq;
}

void EventLoop::Cancel(uint64_t event_id) {
  // Only a still-queued event can be cancelled: remembering an id that
  // already ran (or was never issued) would leak it in cancelled_ and
  // skew pending_events(). Cancels are rare, so a scan is fine.
  if (cancelled_.count(event_id) > 0) return;
  const bool queued =
      std::any_of(queue_.begin(), queue_.end(),
                  [event_id](const Event& e) { return e.seq == event_id; });
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
    if (cancelled_.erase(event.seq) > 0) continue;
    MYRAFT_CHECK(event.time >= clock_.now_micros_)
        << "event scheduled in the past";
    clock_.now_micros_ = event.time;
    event.callback();
    return true;
  }
  return false;
}

void EventLoop::RunUntil(uint64_t deadline_micros) {
  while (!queue_.empty()) {
    const Event& next = queue_.front();
    if (cancelled_.count(next.seq) > 0) {
      cancelled_.erase(next.seq);
      PopNext();
      continue;
    }
    if (next.time > deadline_micros) break;
    RunOne();
  }
  if (clock_.now_micros_ < deadline_micros) {
    clock_.now_micros_ = deadline_micros;
  }
}

}  // namespace myraft::sim

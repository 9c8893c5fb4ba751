#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace eprons {

void EventQueue::schedule(SimTime when, Callback callback) {
  if (when < now_) when = now_;
  heap_.push_back(Entry{when, next_seq_++, std::move(callback)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_in(SimTime delay, Callback callback) {
  schedule(now_ + (delay > 0.0 ? delay : 0.0), std::move(callback));
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  // (when, seq) is a strict total order, so the pop order is the same for
  // any correct heap; the earliest entry is moved out, never copied.
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry entry = std::move(heap_.back());
  heap_.pop_back();
  now_ = entry.when;
  entry.callback();
  return true;
}

void EventQueue::run_until(SimTime end) {
  while (!heap_.empty() && heap_.front().when <= end) {
    step();
  }
  if (now_ < end) now_ = end;
}

void EventQueue::run_all() {
  while (step()) {
  }
}

}  // namespace eprons

#include "sim/event_queue.h"

#include <algorithm>

namespace eprons {

EventQueue::~EventQueue() {
  for (const Entry& entry : heap_) {
    Cell& c = cell(entry.slot);
    c.destroy(c.storage);
  }
}

EventQueue::Release::~Release() {
  Cell& c = queue->cell(slot);
  c.destroy(c.storage);
  queue->free_.push_back(slot);  // capacity reserved by grow(): no throw
}

void EventQueue::grow() {
  const auto first = static_cast<std::uint32_t>(chunks_.size()) * kChunkCells;
  const std::size_t total = std::size_t{first} + kChunkCells;
  heap_.reserve(total);
  free_.reserve(total);
  chunks_.push_back(std::make_unique_for_overwrite<Cell[]>(kChunkCells));
  // Highest slot first, so the lowest is handed out next.
  for (std::uint32_t i = kChunkCells; i-- > 0;) free_.push_back(first + i);
}

void EventQueue::push(SimTime when, std::uint32_t slot) {
  if (when < now_) {
    const SimTime gap = now_ - when;
    if (gap > kClampTolerance * std::max(1.0, now_)) {
      ++clamped_;
      max_clamp_ = std::max(max_clamp_, gap);
    }
    when = now_;
  }
  heap_.push_back(Entry{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  // (when, seq) is a strict total order, so the pop order is the same for
  // any correct heap and any cell assignment.
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry next = heap_.back();
  heap_.pop_back();
  now_ = next.when;
  const Release release{this, next.slot};
  Cell& c = cell(next.slot);
  c.invoke(c.storage);
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

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
  // -0.0 + 0.0 is +0.0; every other time is unchanged.
  const Entry entry{std::bit_cast<std::uint64_t>(when + 0.0), next_seq_++,
                    slot};
  const Key key = entry.key();
  std::size_t i = heap_.size();
  heap_.push_back(entry);  // capacity reserved by grow(): no throw
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(key < heap_[parent].key())) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventQueue::pop_root() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  const Key key = last.key();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t child = first;
    Key least = heap_[first].key();
    if (first + 3 < n) {
      // The smallest of four by selects, not branches: which child wins is
      // data-dependent and would mispredict.
      const Key k1 = heap_[first + 1].key();
      const Key k2 = heap_[first + 2].key();
      const Key k3 = heap_[first + 3].key();
      const bool right01 = k1 < least;
      const std::size_t c01 = right01 ? first + 1 : first;
      const Key k01 = right01 ? k1 : least;
      const bool right23 = k3 < k2;
      const std::size_t c23 = right23 ? first + 3 : first + 2;
      const Key k23 = right23 ? k3 : k2;
      const bool right = k23 < k01;
      child = right ? c23 : c01;
      least = right ? k23 : k01;
    } else {
      for (std::size_t c = first + 1; c < n; ++c) {
        const Key k = heap_[c].key();
        if (k < least) {
          child = c;
          least = k;
        }
      }
    }
    if (!(least < key)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = last;
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  // (when, seq) is a strict total order, so the pop order is the same for
  // any correct heap and any cell assignment.
  const Entry next = heap_.front();
  pop_root();
  now_ = next.time();
  const Release release{this, next.slot};
  Cell& c = cell(next.slot);
  c.invoke(c.storage);
  return true;
}

void EventQueue::run_until(SimTime end) {
  while (!heap_.empty() && heap_.front().time() <= end) {
    step();
  }
  if (now_ < end) now_ = end;
}

void EventQueue::run_all() {
  while (step()) {
  }
}

}  // namespace eprons

// Discrete-event simulation core: a time-ordered event queue.
//
// Events at equal timestamps fire in scheduling order (a monotonically
// increasing sequence number breaks ties), which keeps runs deterministic
// for a fixed seed — a hard requirement for reproducible experiments.
//
// Storage. The heap holds 24-byte POD entries {when, seq, slot}; each
// event's callable lives in a slab cell `slot` with its invoke and destroy
// thunks and kInlineCapture bytes of inline storage, so scheduling never
// allocates once the slab has grown to the run's peak. A callable larger
// than a cell does not compile (there is no heap fallback). Cells come in
// fixed-size chunks that never move, so a running callback may schedule
// more events; its own cell is released after it returns or throws. The
// pop order depends only on (when, seq), a strict total order, never on
// which cell an event occupies (docs/DETERMINISM.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/types.h"

namespace eprons {

class EventQueue {
 public:
  /// Bytes a callable may occupy: the largest any caller schedules, the
  /// partition-aggregate fan-out (a whole ServerRequest with its target
  /// and budgets).
  static constexpr std::size_t kInlineCapture = 88;
  /// A schedule earlier than now() by more than this times
  /// max(now(), 1 us) is a clamp; a closer one is round-off.
  static constexpr double kClampTolerance = 1e-12;

  EventQueue() = default;
  /// Destroys the callables of events still pending.
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `callback` (any void() callable of at most kInlineCapture
  /// bytes) at absolute time `when`. Earlier times run at now(); those
  /// earlier by more than round-off are counted (clamped()).
  template <typename F>
  void schedule(SimTime when, F&& callback);
  /// Schedules `callback` `delay` after now (a negative delay runs now).
  template <typename F>
  void schedule_in(SimTime delay, F&& callback) {
    schedule(now_ + (delay > 0.0 ? delay : 0.0), std::forward<F>(callback));
  }

  SimTime now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// Schedules that asked for a time before now() by more than round-off
  /// (see kClampTolerance), and the largest such gap, us.
  std::uint64_t clamped() const { return clamped_; }
  SimTime max_clamp() const { return max_clamp_; }

  /// Runs the earliest event; returns false if none remain.
  bool step();

  /// Runs, in order, every event due at or before `end`, including those
  /// the callbacks themselves schedule at or before `end`, then advances
  /// now() to `end` if it is still earlier. Later events stay pending.
  void run_until(SimTime end);

  /// Runs everything (use only with workloads that naturally terminate).
  void run_all();

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  struct Cell {
    alignas(std::max_align_t) unsigned char storage[kInlineCapture];
    void (*invoke)(void*);
    void (*destroy)(void*) noexcept;
  };
  /// Destroys a fired event's callable and frees its cell, also when the
  /// callback throws.
  struct Release {
    EventQueue* queue;
    std::uint32_t slot;
    ~Release();
  };

  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkCells = 1u << kChunkBits;

  template <typename Fn>
  static void invoke_cell(void* storage) {
    (*std::launder(static_cast<Fn*>(storage)))();
  }
  template <typename Fn>
  static void destroy_cell(void* storage) noexcept {
    std::launder(static_cast<Fn*>(storage))->~Fn();
  }

  Cell& cell(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkCells - 1)];
  }
  /// Adds a chunk of free cells, and reserves the heap and free list for
  /// every cell, so neither reallocates while a cell is in flight.
  void grow();
  void push(SimTime when, std::uint32_t slot);

  // A binary heap under Later (std::push_heap / std::pop_heap).
  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<Cell[]>> chunks_;
  std::vector<std::uint32_t> free_;  // free cell slots, reused last-in first
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t clamped_ = 0;
  SimTime max_clamp_ = 0.0;
};

template <typename F>
void EventQueue::schedule(SimTime when, F&& callback) {
  using Fn = std::decay_t<F>;
  static_assert(std::is_invocable_r_v<void, Fn&>,
                "an event callback is a void() callable");
  static_assert(sizeof(Fn) <= kInlineCapture,
                "event callback larger than an EventQueue cell: capture "
                "less, or capture a pointer to the data");
  static_assert(alignof(Fn) <= alignof(std::max_align_t),
                "event callback over-aligned for an EventQueue cell");
  if (free_.empty()) grow();
  const std::uint32_t slot = free_.back();
  Cell& c = cell(slot);
  // Constructed before the slot leaves the free list, so a throwing copy
  // leaves the queue as it was.
  ::new (static_cast<void*>(c.storage)) Fn(std::forward<F>(callback));
  free_.pop_back();
  c.invoke = &invoke_cell<Fn>;
  c.destroy = &destroy_cell<Fn>;
  push(when, slot);
}

}  // namespace eprons

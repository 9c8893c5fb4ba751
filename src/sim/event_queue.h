// Discrete-event simulation core: a time-ordered event queue.
//
// Events at equal timestamps fire in scheduling order (a monotonically
// increasing sequence number breaks ties), which keeps runs deterministic
// for a fixed seed — a hard requirement for reproducible experiments.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/types.h"

namespace eprons {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `callback` at absolute time `when` (>= now; earlier times
  /// are clamped to now to tolerate round-off in callers).
  void schedule(SimTime when, Callback callback);
  /// Schedules `callback` `delay` after now.
  void schedule_in(SimTime delay, Callback callback);

  SimTime now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// Runs the earliest event; returns false if none remain.
  bool step();

  /// Runs events until the queue empties or the next event is after `end`;
  /// `now()` is left at min(end, last event time... ) — precisely: at the
  /// last executed event, or `end` if execution reached it.
  void run_until(SimTime end);

  /// Runs everything (use only with workloads that naturally terminate).
  void run_all();

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    Callback callback;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  // A binary heap under Later (std::push_heap / std::pop_heap), kept as a
  // plain vector so step() can move the earliest callback out instead of
  // copying it from a const top().
  std::vector<Entry> heap_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace eprons

// Deterministic parallel runtime for the planner hot paths.
//
// The joint optimizer and the slack estimator are embarrassingly parallel
// (independent K candidates; independently-seeded sampling shards), so a
// fixed-size pool plus a blocking parallel_for is all the machinery needed.
// Determinism contract: parallel_for(pool, n, fn) calls fn(i) exactly once
// for every i in [0, n) with each fn(i) writing only to its own slot, so
// results are a pure function of the iteration space — never of the worker
// count or the interleaving. Nested parallel_for calls are safe: the
// calling thread participates in draining its own batch, so a worker that
// starts an inner loop while every other worker is busy simply runs the
// whole inner loop itself instead of deadlocking.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace eprons {

/// Execution-resource knobs threaded through the planner configs
/// (JointOptimizerConfig, EpochControllerConfig, TemporalSchedulerConfig)
/// and exposed as --threads on every bench/example CLI. threads <= 1 means
/// fully serial execution with zero pool overhead.
///
/// The telemetry sinks ride along so one RuntimeConfig carries everything a
/// Scenario needs about *how* to run (vs. *what* to compute); they are
/// plain strings here so util stays dependency-free — src/obs interprets
/// them (obs::configure_telemetry), ScenarioBuilder applies them.
struct RuntimeConfig {
  int threads = 1;
  /// Metrics-registry JSON snapshot written at process exit ("" = off).
  std::string metrics_out;
  /// Chrome trace-event JSON (chrome://tracing / Perfetto) ("" = off).
  std::string trace_out;
  /// Per-epoch JSONL stream from EpochController/TraceReplay ("" = off).
  std::string epoch_log_out;
  /// Log threshold override: debug|info|warn|error|off ("" = keep).
  std::string log_level;
};

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller of parallel_for is always the
  /// remaining participant). threads <= 1 spawns none.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The configured parallelism (including the calling thread).
  int num_threads() const { return num_threads_; }

  /// Enqueues an arbitrary job. Used internally by parallel_for; exposed
  /// for callers that want fire-and-forget work (pair with their own
  /// completion tracking).
  void submit(std::function<void()> job);

 private:
  void worker_loop();

  int num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Runs fn(0) .. fn(n-1), returning when all have completed. With a null
/// pool (or a single-thread pool, or n <= 1) this is a plain serial loop —
/// the serial and parallel paths execute the same calls, so any fn whose
/// iterations are independent yields bit-identical results either way.
/// Participants claim indices in increasing order, so fn(j) may wait for
/// an fn(i) with i < j: fn(i) was claimed first and is running or done.
/// The first exception thrown by any fn(i) is rethrown in the caller after
/// the whole batch has drained.
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace eprons

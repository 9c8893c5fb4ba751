// Simulated multi-core server with per-core request queues and a DVFS
// policy driving each core's frequency.
//
// Mechanics: a request carries its actual drawn work W (cycles). The core
// retires work at the model's effective rate for its current frequency;
// the policy is re-consulted at every arrival and departure instant
// (section III-B's decision points), after which the pending completion
// event is rescheduled. EPRONS-Server additionally keeps the *waiting*
// portion of the queue in earliest-deadline-first order.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dvfs/policy.h"
#include "power/server_power.h"
#include "sim/event_queue.h"
#include "util/types.h"

namespace eprons {

/// A request as the simulator tracks it (the policy sees QueuedRequest).
struct ServerRequest {
  QueuedRequest meta;
  Work work = 0.0;  // actual drawn work, hidden from policies
  /// End-to-end bookkeeping owned by the caller (opaque tag, e.g. query id).
  std::int64_t tag = 0;
  /// Measured request-leg network latency (the latency monitor's sample);
  /// carried through so completion handlers can report full network time.
  SimTime net_request_latency = 0.0;
};

struct ServerCompletion {
  ServerRequest request;
  SimTime completed_at = 0.0;
};

class SimServer {
 public:
  using CompletionHandler = std::function<void(const ServerCompletion&)>;
  using PolicyFactory =
      std::function<std::unique_ptr<DvfsPolicy>(const ServiceModel*)>;

  /// One DvfsPolicy instance is created per core (policies are stateful).
  SimServer(EventQueue* events, const ServiceModel* service_model,
            const ServerPowerModel* power_model,
            const PolicyFactory& policy_factory,
            CompletionHandler on_complete);

  /// Enqueues on the least-loaded core (fewest queued requests).
  void submit(const ServerRequest& request);

  /// Completion feedback for feedback policies (TimeTrader): forwarded to
  /// the policy of the core that served the request.
  void report_latency(int core, SimTime now, SimTime latency,
                      SimTime constraint);

  /// ECN-style congestion signal broadcast to every core's policy.
  void signal_network_congestion(bool congested);

  int num_cores() const { return static_cast<int>(cores_.size()); }
  std::size_t queue_length(int core) const;
  std::size_t total_queued() const;

  /// Flushes energy meters up to `now` (call before reading power).
  void sync_energy(SimTime now);
  /// Restarts all energy meters at `now` (discards warmup energy).
  void reset_energy(SimTime now);
  Energy total_cpu_energy() const;
  /// Mean CPU power (cores only, no platform static) over the metered span.
  Power average_cpu_power() const;
  /// Mean busy fraction across cores (measured utilization).
  double average_core_utilization() const;

  /// Core that served the most recent completion (set during the
  /// CompletionHandler callback).
  int last_completion_core() const { return last_completion_core_; }

 private:
  struct Core {
    std::unique_ptr<DvfsPolicy> policy;
    std::vector<ServerRequest> queue;  // [0] in service
    CoreEnergyMeter meter;
    Freq freq = 0.0;
    Work done = 0.0;            // work retired on queue[0]
    SimTime last_progress = 0.0;
    std::uint64_t epoch = 0;    // invalidates stale completion events

    explicit Core(const ServerPowerModel* power) : meter(power) {}
  };

  void advance_progress(Core& core, SimTime now);
  void reselect_and_schedule(int core_index, bool at_departure);
  void complete_head(int core_index, std::uint64_t epoch);
  /// Fills view_ with the policy-visible queue of `core`.
  void snapshot(const Core& core);

  EventQueue* events_;
  const ServiceModel* service_model_;
  const ServerPowerModel* power_model_;
  CompletionHandler on_complete_;
  std::vector<Core> cores_;
  // Reused by every decision (one at a time: the DES is single-threaded),
  // so a DVFS decision does not allocate.
  std::vector<QueuedRequest> view_;
  int last_completion_core_ = -1;
};

}  // namespace eprons

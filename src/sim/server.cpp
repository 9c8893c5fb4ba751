#include "sim/server.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/telemetry.h"

namespace eprons {

SimServer::SimServer(EventQueue* events, const ServiceModel* service_model,
                     const ServerPowerModel* power_model,
                     const PolicyFactory& policy_factory,
                     CompletionHandler on_complete)
    : events_(events),
      service_model_(service_model),
      power_model_(power_model),
      on_complete_(std::move(on_complete)) {
  cores_.reserve(static_cast<std::size_t>(power_model->num_cores()));
  for (int i = 0; i < power_model->num_cores(); ++i) {
    cores_.emplace_back(power_model);
    cores_.back().policy = policy_factory(service_model);
    // Start metering immediately so idle power before the first request is
    // charged (servers draw idle power from t=0).
    cores_.back().meter.set_state(events_->now(), /*active=*/false, 0.0);
  }
}

std::size_t SimServer::queue_length(int core) const {
  return cores_[static_cast<std::size_t>(core)].queue.size();
}

std::size_t SimServer::total_queued() const {
  std::size_t total = 0;
  for (const Core& core : cores_) total += core.queue.size();
  return total;
}

void SimServer::advance_progress(Core& core, SimTime now) {
  if (!core.queue.empty() && core.freq > 0.0) {
    core.done += service_model_->work_capacity(now - core.last_progress,
                                               core.freq);
    // Round-off can push `done` past the actual work just before the
    // completion event fires; clamp so the residual stays nonnegative.
    core.done = std::min(core.done, core.queue.front().work);
  }
  core.last_progress = now;
}

void SimServer::snapshot(const Core& core) {
  view_.clear();
  for (const ServerRequest& r : core.queue) view_.push_back(r.meta);
}

void SimServer::reselect_and_schedule(int core_index, bool at_departure) {
  Core& core = cores_[static_cast<std::size_t>(core_index)];
  const SimTime now = events_->now();
  ++core.epoch;  // cancel any pending completion event

  if (core.queue.empty()) {
    core.freq = 0.0;
    core.meter.set_state(now, /*active=*/false, 0.0);
    return;
  }

  // EDF policies reorder the *waiting* requests; the in-service head stays.
  if (core.policy->reorder_edf() && core.queue.size() > 2) {
    std::stable_sort(core.queue.begin() + 1, core.queue.end(),
                     [](const ServerRequest& a, const ServerRequest& b) {
                       return a.meta.deadline_with_slack <
                              b.meta.deadline_with_slack;
                     });
  }

  snapshot(core);
  const Work done = at_departure ? 0.0 : core.done;
  core.freq = core.policy->select_frequency(
      now, std::span<const QueuedRequest>(view_), done);
  core.meter.set_state(now, /*active=*/true, core.freq);
  // DES hot path: a single wait-free relaxed add per DVFS decision.
  static obs::Counter& freq_selections =
      obs::metrics().counter("sim.dvfs_selections");
  freq_selections.add();

  const Work remaining = core.queue.front().work - core.done;
  const SimTime finish =
      now + service_model_->service_time(std::max(remaining, 0.0), core.freq);
  const std::uint64_t epoch = core.epoch;
  events_->schedule(finish,
                    [this, core_index, epoch] { complete_head(core_index, epoch); });
}

void SimServer::complete_head(int core_index, std::uint64_t epoch) {
  Core& core = cores_[static_cast<std::size_t>(core_index)];
  if (core.epoch != epoch) return;  // superseded by a newer schedule
  const SimTime now = events_->now();
  advance_progress(core, now);
  assert(!core.queue.empty());

  ServerCompletion completion;
  completion.request = core.queue.front();
  completion.completed_at = now;
  core.queue.erase(core.queue.begin());
  core.done = 0.0;

  reselect_and_schedule(core_index, /*at_departure=*/true);

  last_completion_core_ = core_index;
  if (on_complete_) on_complete_(completion);
}

void SimServer::submit(const ServerRequest& request) {
  // Least-loaded core, ties to the lowest index.
  std::size_t best = 0;
  std::size_t best_len = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].queue.size() < best_len) {
      best_len = cores_[i].queue.size();
      best = i;
    }
  }
  Core& core = cores_[best];
  const SimTime now = events_->now();
  advance_progress(core, now);
  const bool was_idle = core.queue.empty();
  core.queue.push_back(request);
  if (was_idle) core.done = 0.0;
  reselect_and_schedule(static_cast<int>(best), /*at_departure=*/was_idle);
}

void SimServer::report_latency(int core, SimTime now, SimTime latency,
                               SimTime constraint) {
  if (core < 0 || core >= num_cores()) return;
  cores_[static_cast<std::size_t>(core)].policy->on_request_complete(
      now, latency, constraint);
}

void SimServer::signal_network_congestion(bool congested) {
  for (Core& core : cores_) core.policy->on_network_congestion(congested);
}

void SimServer::sync_energy(SimTime now) {
  for (Core& core : cores_) core.meter.advance(now);
}

void SimServer::reset_energy(SimTime now) {
  for (Core& core : cores_) core.meter.reset(now);
}

Energy SimServer::total_cpu_energy() const {
  Energy total = 0.0;
  for (const Core& core : cores_) total += core.meter.energy();
  return total;
}

Power SimServer::average_cpu_power() const {
  Power total = 0.0;
  for (const Core& core : cores_) total += core.meter.average_power();
  return total;
}

double SimServer::average_core_utilization() const {
  double total = 0.0;
  int counted = 0;
  for (const Core& core : cores_) {
    const SimTime span = core.meter.total_time();
    if (span > 0.0) {
      total += core.meter.busy_time() / span;
      ++counted;
    }
  }
  return counted == 0 ? 0.0 : total / counted;
}

}  // namespace eprons

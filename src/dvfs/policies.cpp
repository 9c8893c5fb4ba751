#include "dvfs/policies.h"

#include <algorithm>

#include "dvfs/equivalent_queue.h"

namespace eprons {

namespace {

/// The decision for one fresh request (nothing in service yet) with
/// deadline margin `dt`: the first grid frequency whose threshold dt
/// reaches, f_max if none does. The thresholds fall along the grid, so the
/// unmet ones are a prefix, and counting them finds the first met one
/// without a branch.
Freq one_request_frequency(const std::vector<Freq>& grid,
                           const std::vector<SimTime>& thresholds,
                           SimTime dt) {
  std::size_t unmet = 0;
  for (const SimTime t : thresholds) unmet += dt < t ? 1 : 0;
  return grid[std::min(unmet, grid.size() - 1)];
}

}  // namespace

Freq MaxFreqPolicy::select_frequency(SimTime, std::span<const QueuedRequest>,
                                     Work) {
  return model_->config().f_max;
}

StatisticalPolicy::StatisticalPolicy(const ServiceModel* model,
                                     StatisticalPolicyConfig config)
    : DvfsPolicy(model),
      config_(config),
      one_request_(model->one_request_thresholds(config.target_vp)) {}

double StatisticalPolicy::average_vp(SimTime now,
                                     std::span<const QueuedRequest> queue,
                                     Work in_service_done, Freq f) const {
  const EquivalentQueue equivalents(model_, queue.size(), in_service_done);
  double total = 0.0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    total += model_->violation_probability(equivalents.at(i), now,
                                           deadline_of(queue[i]), f);
  }
  return total / static_cast<double>(queue.size());
}

Freq StatisticalPolicy::select_frequency(SimTime now,
                                         std::span<const QueuedRequest> queue,
                                         Work in_service_done) {
  if (queue.size() == 1 && in_service_done <= 0.0) {
    return one_request_frequency(model_->frequency_grid(), one_request_,
                                 deadline_of(queue[0]) - now);
  }
  const EquivalentQueue equivalents(model_, queue.size(), in_service_done);
  // Feasible(fi): the *average* VP across the queue meets the SLA miss
  // budget at grid frequency fi (section III-A); individual requests may
  // exceed it. Rubik's max-VP rule (average_vp off) asks every request to
  // meet it.
  auto feasible = [&](std::size_t fi) {
    if (config_.average_vp) {
      double total = 0.0;
      for (std::size_t i = 0; i < queue.size(); ++i) {
        total += equivalents.violation_probability_at(
            i, now, deadline_of(queue[i]), fi);
      }
      return total <= config_.target_vp * static_cast<double>(queue.size());
    }
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (equivalents.violation_probability_at(i, now, deadline_of(queue[i]),
                                               fi) > config_.target_vp) {
        return false;
      }
    }
    return true;
  };
  return lowest_feasible_frequency(model_->frequency_grid(), feasible);
}

TimeTraderPolicy::TimeTraderPolicy(const ServiceModel* model,
                                   TimeTraderConfig config)
    : DvfsPolicy(model),
      config_(config),
      window_(config.window),
      grid_index_(model->frequency_grid().size() - 1) {}

Freq TimeTraderPolicy::current_frequency() const {
  return model_->frequency_grid()[grid_index_];
}

void TimeTraderPolicy::on_request_complete(SimTime now, SimTime latency,
                                           SimTime constraint) {
  window_.add(latency);
  latest_constraint_ = constraint;
  maybe_adjust(now);
}

void TimeTraderPolicy::on_network_congestion(bool congested) {
  congested_ = congested;
}

void TimeTraderPolicy::maybe_adjust(SimTime now) {
  if (now - last_adjust_ < config_.adjust_period) return;
  last_adjust_ = now;
  if (window_.empty() || latest_constraint_ == kNoTime) return;
  const double tail = window_.quantile(config_.percentile);
  // ECN congestion: stop borrowing the network budget (conservative
  // target), per the paper's description of TimeTrader's behavior.
  const SimTime target =
      congested_ ? latest_constraint_ - config_.network_budget
                 : latest_constraint_;
  const auto max_index = model_->frequency_grid().size() - 1;
  if (tail > target) {
    // Missing the SLA: climb aggressively (twice the down-step).
    grid_index_ = std::min(max_index,
                           grid_index_ + 2 * static_cast<std::size_t>(
                                                 config_.step));
  } else if (tail < config_.slack_threshold * target) {
    const auto down = static_cast<std::size_t>(config_.step);
    grid_index_ = grid_index_ >= down ? grid_index_ - down : 0;
  }
}

Freq TimeTraderPolicy::select_frequency(SimTime now,
                                        std::span<const QueuedRequest>,
                                        Work) {
  maybe_adjust(now);
  return current_frequency();
}

std::unique_ptr<DvfsPolicy> make_policy(const std::string& name,
                                        const ServiceModel* model,
                                        double target_vp) {
  if (name == "max") return std::make_unique<MaxFreqPolicy>(model);
  if (name == "timetrader") return std::make_unique<TimeTraderPolicy>(model);
  // The statistical names and their switches, as in the header's table.
  struct Setting {
    const char* name;
    bool average_vp;
    bool edf;
    bool use_network_slack;
  };
  static constexpr Setting kSettings[] = {
      {"rubik", false, false, false},
      {"rubik+", false, false, true},
      {"eprons", true, true, true},
      {"eprons-noedf", true, false, true},
      {"eprons-noslack", true, true, false},
      {"eprons-maxvp", false, true, true},
  };
  for (const Setting& setting : kSettings) {
    if (name != setting.name) continue;
    StatisticalPolicyConfig config;
    config.target_vp = target_vp;
    config.average_vp = setting.average_vp;
    config.edf = setting.edf;
    config.use_network_slack = setting.use_network_slack;
    return std::make_unique<StatisticalPolicy>(model, config);
  }
  throw std::invalid_argument("unknown DVFS policy: " + name);
}

bool policy_uses_feedback(const std::string& name) {
  return name == "timetrader";
}

}  // namespace eprons

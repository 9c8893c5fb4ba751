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

RubikPolicy::RubikPolicy(const ServiceModel* model,
                         StatisticalPolicyConfig config,
                         bool use_network_slack)
    : DvfsPolicy(model),
      config_(config),
      use_network_slack_(use_network_slack),
      one_request_(model->one_request_thresholds(config.target_vp)) {}

Freq RubikPolicy::select_frequency(SimTime now,
                                   std::span<const QueuedRequest> queue,
                                   Work in_service_done) {
  if (queue.size() == 1 && in_service_done <= 0.0) {
    return one_request_frequency(model_->frequency_grid(), one_request_,
                                 deadline_of(queue[0]) - now);
  }
  const EquivalentQueue equivalents(model_, queue.size(), in_service_done);
  // Feasible(fi): every equivalent request meets the per-request miss
  // budget at grid frequency fi.
  auto feasible = [&](std::size_t fi) {
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const double vp = model_->violation_probability_at(
          equivalents.at(i), now, deadline_of(queue[i]), fi);
      if (vp > config_.target_vp) return false;
    }
    return true;
  };
  return lowest_feasible_frequency(model_->frequency_grid(), feasible);
}

EpronsServerPolicy::EpronsServerPolicy(const ServiceModel* model,
                                       StatisticalPolicyConfig config,
                                       EpronsFeatures features)
    : DvfsPolicy(model),
      config_(config),
      features_(features),
      one_request_(model->one_request_thresholds(config.target_vp)) {}

double EpronsServerPolicy::average_vp(SimTime now,
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

Freq EpronsServerPolicy::select_frequency(SimTime now,
                                          std::span<const QueuedRequest> queue,
                                          Work in_service_done) {
  if (queue.size() == 1 && in_service_done <= 0.0) {
    return one_request_frequency(model_->frequency_grid(), one_request_,
                                 deadline_of(queue[0]) - now);
  }
  const EquivalentQueue equivalents(model_, queue.size(), in_service_done);
  // Feasible(fi): the *average* VP across the queue meets the SLA miss
  // budget at grid frequency fi (section III-A); individual requests may
  // exceed it. The `average_vp=false` ablation reverts to Rubik's max-VP
  // rule.
  auto feasible = [&](std::size_t fi) {
    if (features_.average_vp) {
      double total = 0.0;
      for (std::size_t i = 0; i < queue.size(); ++i) {
        total += model_->violation_probability_at(equivalents.at(i), now,
                                                  deadline_of(queue[i]), fi);
      }
      return total <= config_.target_vp * static_cast<double>(queue.size());
    }
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (model_->violation_probability_at(equivalents.at(i), now,
                                           deadline_of(queue[i]), fi) >
          config_.target_vp) {
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
  StatisticalPolicyConfig stat;
  stat.target_vp = target_vp;
  if (name == "max") return std::make_unique<MaxFreqPolicy>(model);
  if (name == "rubik") return std::make_unique<RubikPolicy>(model, stat);
  if (name == "rubik+") return std::make_unique<RubikPlusPolicy>(model, stat);
  if (name == "eprons") {
    return std::make_unique<EpronsServerPolicy>(model, stat);
  }
  if (name == "eprons-noedf") {
    EpronsFeatures f;
    f.edf = false;
    return std::make_unique<EpronsServerPolicy>(model, stat, f);
  }
  if (name == "eprons-noslack") {
    EpronsFeatures f;
    f.use_network_slack = false;
    return std::make_unique<EpronsServerPolicy>(model, stat, f);
  }
  if (name == "eprons-maxvp") {
    EpronsFeatures f;
    f.average_vp = false;
    return std::make_unique<EpronsServerPolicy>(model, stat, f);
  }
  if (name == "timetrader") return std::make_unique<TimeTraderPolicy>(model);
  throw std::invalid_argument("unknown DVFS policy: " + name);
}

bool policy_uses_feedback(const std::string& name) {
  return name == "timetrader";
}

}  // namespace eprons

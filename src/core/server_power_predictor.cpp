#include "core/server_power_predictor.h"

#include <algorithm>
#include <cmath>

namespace eprons {

ServerPowerPrediction peak_power_prediction(const ServerPowerModel& model,
                                            Freq f_max) {
  ServerPowerPrediction out;
  out.frequency = f_max;
  out.busy_fraction = 1.0;
  out.achieved_vp = 1.0;
  out.budget_infeasible = true;
  const int cores = model.num_cores();
  const Power core_idle = model.core_power(false, 0.0);
  const Power a_fmax = model.core_power(true, f_max);
  out.idle_w = model.config().static_power + cores * core_idle;
  out.dynamic_w = cores * (a_fmax - core_idle);
  out.dvfs_residual_w = 0.0;
  out.server_power = (out.idle_w + out.dynamic_w) + out.dvfs_residual_w;
  return out;
}

ServerPowerPredictor::ServerPowerPredictor(const ServiceModel* service_model,
                                           const ServerPowerModel* power_model,
                                           ServerPowerPredictorConfig config)
    : service_model_(service_model),
      power_model_(power_model),
      config_(config) {}

ServerPowerPrediction ServerPowerPredictor::predict(double utilization,
                                                    SimTime budget,
                                                    bool reference_dvfs) const {
  ServerPowerPrediction out;
  utilization = std::clamp(utilization, 0.0, 0.99);

  // Expected queue position of an arriving request on its core: with
  // per-core queues and busy fraction rho the geometric estimate is
  // rho / (1 - rho); +1 for the request itself.
  const double rho = utilization;
  const double depth_est = rho / (1.0 - rho);
  const std::size_t depth = 1 + std::min<std::size_t>(
      config_.max_queue_depth - 1,
      static_cast<std::size_t>(std::lround(depth_est)));

  // Frequency a statistical policy would pick: the equivalent request (the
  // arrival plus everything estimated ahead of it) must meet the budget at
  // the target violation probability. The scan records the violation
  // probability achieved at the first qualifying frequency;
  // violation_probability_at's contract makes it the reference's bits.
  const auto& grid = service_model_->frequency_grid();
  const DiscreteDistribution& equivalent =
      service_model_->fresh_convolution(depth);
  Freq chosen = grid.back();
  bool found = false;
  double achieved_vp = 1.0;
  for (std::size_t fi = 0; fi < grid.size(); ++fi) {
    const double vp =
        reference_dvfs
            ? service_model_->violation_probability(equivalent, 0.0, budget,
                                                    grid[fi])
            : service_model_->violation_probability_at(equivalent, 0.0,
                                                       budget, fi);
    if (vp <= config_.target_vp) {
      chosen = grid[fi];
      found = true;
      achieved_vp = vp;
      break;
    }
  }
  out.budget_infeasible = !found;
  out.frequency = chosen;
  out.achieved_vp = achieved_vp;

  // Slowdown inflates the busy fraction.
  const SimTime s_fast =
      service_model_->mean_service_time(service_model_->config().f_max);
  const SimTime s_slow = service_model_->mean_service_time(chosen);
  out.busy_fraction = std::min(0.999, utilization * s_slow / s_fast);

  // Component decomposition (obs/attribution.h): the idle floor, the cost
  // of the work at f_max, and the residual from running at the chosen
  // frequency instead. The headline server_power is *defined* as their
  // fixed-order sum so the ledger sums bit-identically to the total.
  const int cores = power_model_->num_cores();
  const Power core_active = power_model_->core_power(true, chosen);
  const Power core_idle = power_model_->core_power(false, 0.0);
  const Power a_fmax =
      power_model_->core_power(true, service_model_->config().f_max);
  out.idle_w = power_model_->config().static_power + cores * core_idle;
  out.dynamic_w = cores * out.busy_fraction * (a_fmax - core_idle);
  out.dvfs_residual_w = cores * out.busy_fraction * (core_active - a_fmax);
  out.server_power = (out.idle_w + out.dynamic_w) + out.dvfs_residual_w;
  return out;
}

}  // namespace eprons

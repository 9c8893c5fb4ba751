#include "schedule/exact_scheduler.h"

#include <stdexcept>
#include <string>

#include "lp/model.h"
#include "lp/simplex.h"

namespace eprons {

ExactScheduler::ExactScheduler(TemporalSchedulerConfig config)
    : config_(std::move(config)) {
  if (config_.epochs <= 0) {
    throw std::invalid_argument("scheduler horizon must be >= 1 epoch");
  }
}

ExactScheduleResult ExactScheduler::solve(const TimedFlowSet& flows) const {
  const int epochs = config_.epochs;
  const std::size_t n = flows.size();
  ExactScheduleResult result;
  result.epoch_mbit.assign(n, std::vector<double>(
                                  static_cast<std::size_t>(epochs), 0.0));
  if (n == 0) {
    result.feasible = true;
    return result;
  }

  // Effective cost accessor mirroring TemporalScheduler's.
  auto cost_of = [this](int e) {
    return config_.epoch_cost.empty()
               ? 0.0
               : config_.epoch_cost[static_cast<std::size_t>(e)];
  };

  lp::Model model(lp::Sense::Minimize);
  // One variable per (flow, window epoch); var_of[f][e] = -1 outside the
  // window.
  std::vector<std::vector<int>> var_of(
      n, std::vector<int>(static_cast<std::size_t>(epochs), -1));
  for (std::size_t f = 0; f < n; ++f) {
    const TimedFlow& flow = flows[f];
    if (flow.deadline_epoch >= epochs) {
      throw std::invalid_argument("timed flow deadline beyond the horizon");
    }
    for (int e = flow.release_epoch; e <= flow.deadline_epoch; ++e) {
      const double upper = config_.flow_rate_cap_mbit > 0
                               ? static_cast<double>(config_.flow_rate_cap_mbit)
                               : lp::kInfinity;
      var_of[f][static_cast<std::size_t>(e)] = model.add_variable(
          "x_" + std::to_string(f) + "_" + std::to_string(e), 0.0, upper,
          cost_of(e));
    }
  }
  for (std::size_t f = 0; f < n; ++f) {
    const int row = model.add_row("vol_" + std::to_string(f),
                                  lp::RowType::Equal,
                                  static_cast<double>(flows[f].volume_mbit));
    for (int e = flows[f].release_epoch; e <= flows[f].deadline_epoch; ++e) {
      model.add_coeff(row, var_of[f][static_cast<std::size_t>(e)], 1.0);
    }
  }
  for (int e = 0; e < epochs; ++e) {
    const int row = model.add_row("cap_" + std::to_string(e),
                                  lp::RowType::LessEqual,
                                  static_cast<double>(config_.epoch_cap_mbit));
    bool any = false;
    for (std::size_t f = 0; f < n; ++f) {
      const int var = var_of[f][static_cast<std::size_t>(e)];
      if (var >= 0) {
        model.add_coeff(row, var, 1.0);
        any = true;
      }
    }
    (void)any;
  }

  const lp::Solution solution = lp::SimplexSolver().solve(model);
  if (solution.status != lp::SolveStatus::Optimal) {
    result.feasible = false;
    return result;
  }
  result.feasible = true;
  result.objective_cost = solution.objective;
  for (std::size_t f = 0; f < n; ++f) {
    for (int e = 0; e < epochs; ++e) {
      const int var = var_of[f][static_cast<std::size_t>(e)];
      if (var >= 0) {
        result.epoch_mbit[f][static_cast<std::size_t>(e)] =
            solution.x[static_cast<std::size_t>(var)];
      }
    }
  }
  return result;
}

}  // namespace eprons

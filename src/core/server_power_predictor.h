// First-order analytical server power model for the joint optimizer
// (section IV-A: "we measure the server power consumption for different
// utilizations and tail latency constraints that may then be used to
// parameterize our model").
//
// Given a server time budget B (server SLA share + borrowed network slack)
// and a target utilization u (defined at f_max), the predictor:
//   1. estimates the expected queue depth a new request sees on a core
//      (M/M/c-lite: depth ~ u / (1 - u) capped), and the frequency a
//      statistical policy would pick so the equivalent request still meets
//      B with the target miss probability;
//   2. converts the slowdown into a busy fraction u * s(f) / s(f_max);
//   3. returns static + sum over cores of busy * P(f) + idle * P_idle.
//
// It deliberately trades accuracy for speed: the joint optimizer evaluates
// it once per (K, epoch); the full DES validates its decisions in the
// figure benches.
#pragma once

#include "dvfs/service_model.h"
#include "power/server_power.h"

namespace eprons {

/// The predictor's answer for one (utilization, budget) query.
///
/// `server_power` is *defined* as the fixed-order sum
/// (idle_w + dynamic_w) + dvfs_residual_w, so the attribution ledger's
/// per-component breakdown (obs/attribution.h) sums bit-identically to the
/// headline total — the total flows through the components, never the other
/// way around.
struct ServerPowerPrediction {
  /// Core frequency a statistical policy would settle on, GHz.
  Freq frequency = 0.0;
  /// Busy fraction per core after slowdown.
  double busy_fraction = 0.0;
  /// Violation probability achieved at the chosen frequency (1.0 when the
  /// budget is unreachable even at f_max).
  double achieved_vp = 1.0;
  /// Power of the server fully idle: platform static + clock-gated cores.
  Power idle_w = 0.0;
  /// Cost of the offered work at f_max: busy cores above the idle floor.
  Power dynamic_w = 0.0;
  /// Delta from running at `frequency` instead of f_max (negative when the
  /// DVFS slowdown saves power — the watts network slack bought).
  Power dvfs_residual_w = 0.0;
  /// Whole-server power: (idle_w + dynamic_w) + dvfs_residual_w, W.
  Power server_power = 0.0;
  /// True if even f_max cannot meet the budget at the target VP.
  bool budget_infeasible = false;
};

/// The decomposition of one server pinned at f_max with every core busy —
/// the "no power management" peak baseline, split into the same components
/// as predict() so infeasible-budget plans still carry a ledger.
ServerPowerPrediction peak_power_prediction(const ServerPowerModel& model,
                                            Freq f_max);

struct ServerPowerPredictorConfig {
  /// Acceptable per-request violation probability (the paper's 5%).
  double target_vp = 0.05;
  /// Queue-depth cap used in the equivalent-request estimate.
  std::size_t max_queue_depth = 8;
};

/// Closed-form stand-in for the DES on the joint optimizer's hot path:
/// answers "what would one server draw if it may take `budget` us per
/// request?" without simulating (section IV-A's parameterized model).
class ServerPowerPredictor {
 public:
  /// All pointees must outlive the predictor (not owned).
  /// config.max_queue_depth must be >= 1.
  ServerPowerPredictor(const ServiceModel* service_model,
                       const ServerPowerModel* power_model,
                       ServerPowerPredictorConfig config = {});

  /// Predicts power for one server at `utilization` (at f_max) with
  /// per-request server time budget `budget` us. The frequency scan reads
  /// the model's fresh_convolution(depth) — section III-C's cached
  /// equivalent request, grown on first use — and evaluates each grid
  /// frequency by index (ServiceModel::violation_probability_at), or, with
  /// `reference_dvfs`, through the frequency-valued
  /// ServiceModel::violation_probability; both pick the same frequency bit
  /// for bit. Reading a convolution the cache already holds is safe from
  /// several threads; growing it is not (see fresh_convolution).
  ServerPowerPrediction predict(double utilization, SimTime budget,
                                bool reference_dvfs = false) const;

 private:
  const ServiceModel* service_model_;
  const ServerPowerModel* power_model_;
  ServerPowerPredictorConfig config_;
};

}  // namespace eprons

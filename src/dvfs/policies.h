// The DVFS policies evaluated in the paper (section V-B2, Fig. 12):
//
//   * MaxFreqPolicy      — "no power management": always f_max.
//   * StatisticalPolicy  — the per-request statistical model of section
//     III-B in the three variants the paper compares. They differ along
//     three switches of StatisticalPolicyConfig:
//       average_vp         the feasibility rule: the *average* VP over the
//                          queued requests meets the miss budget (EPRONS),
//                          or every request's VP does (max-VP, Rubik's);
//       edf                earliest-deadline-first order of the waiting
//                          requests (EPRONS), or FIFO;
//       use_network_slack  deadlines include the measured per-request
//                          network slack (Rubik+, EPRONS), or the server
//                          budget only (Rubik).
//     make_policy's names are settings of these switches:
//
//       name              average_vp  edf  use_network_slack
//       "rubik"           no          no   no    Rubik [10]
//       "rubik+"          no          no   yes   the paper's Rubik+
//       "eprons"          yes         yes  yes   EPRONS-Server
//       "eprons-noedf"    yes         no   yes   ablation
//       "eprons-noslack"  yes         yes  no    ablation
//       "eprons-maxvp"    no          yes  yes   ablation
//   * TimeTraderPolicy   — TimeTrader [7]: coarse feedback; every 5 s,
//     compares the observed 95th-percentile latency with the constraint and
//     steps the frequency up or down. Responds sluggishly to bursts —
//     exactly the behavior Fig. 12(a) penalizes.
//
// A StatisticalPolicy decides in one of two ways, with the same result.
// For one fresh request — nothing in service yet, nothing waiting — both
// VP rules reduce to VP <= target, so the frequency is the first whose
// one-request threshold (ServiceModel::one_request_thresholds, built when
// the policy is made) the deadline margin reaches. Every other queue runs
// the VP search of section III-C (lowest_feasible_frequency), reading each
// VP from the model's chain caches through
// EquivalentQueue::violation_probability_at.
#pragma once

#include <memory>
#include <vector>

#include "dvfs/policy.h"
#include "stats/percentile.h"

namespace eprons {

class MaxFreqPolicy final : public DvfsPolicy {
 public:
  explicit MaxFreqPolicy(const ServiceModel* model) : DvfsPolicy(model) {}
  Freq select_frequency(SimTime now, std::span<const QueuedRequest> queue,
                        Work in_service_done) override;
  std::string name() const override { return "no-power-management"; }
};

struct StatisticalPolicyConfig {
  /// Allowed deadline miss probability: 5% for a 95th-percentile SLA.
  /// A negative or NaN value makes the policy's constructor throw
  /// std::invalid_argument.
  double target_vp = 0.05;
  /// Average-VP frequency selection (false = max-VP, Rubik's rule).
  bool average_vp = true;
  /// Earliest-deadline-first ordering of waiting requests.
  bool edf = true;
  /// Borrow measured network slack (false = server budget only).
  bool use_network_slack = true;
};

/// Rubik, Rubik+ and EPRONS-Server: one selection rule, three switches
/// (see the table above). The defaults are EPRONS-Server.
class StatisticalPolicy final : public DvfsPolicy {
 public:
  explicit StatisticalPolicy(const ServiceModel* model,
                             StatisticalPolicyConfig config = {});

  Freq select_frequency(SimTime now, std::span<const QueuedRequest> queue,
                        Work in_service_done) override;
  bool reorder_edf() const override { return config_.edf; }
  /// "rubik" or "rubik+" for Rubik's rule in FIFO order, otherwise
  /// "eprons-server".
  std::string name() const override {
    if (config_.average_vp || config_.edf) return "eprons-server";
    return config_.use_network_slack ? "rubik+" : "rubik";
  }

  /// Average VP across the queue at a given frequency (exposed for tests
  /// and the Fig. 4/5 bench).
  double average_vp(SimTime now, std::span<const QueuedRequest> queue,
                    Work in_service_done, Freq f) const;

 private:
  SimTime deadline_of(const QueuedRequest& request) const {
    return config_.use_network_slack ? request.deadline_with_slack
                                     : request.deadline_server;
  }

  StatisticalPolicyConfig config_;
  const std::vector<SimTime>& one_request_;  // the model's, for target_vp
};

struct TimeTraderConfig {
  /// Feedback period (5 s in the paper).
  SimTime adjust_period = sec(5.0);
  /// Observed-latency window used for the tail estimate.
  std::size_t window = 2000;
  /// Tail percentile compared against the constraint.
  double percentile = 0.95;
  /// Step down only when the tail is below this fraction of the constraint
  /// (hysteresis against oscillation).
  double slack_threshold = 0.9;
  /// Grid steps to move per adjustment (up is doubled: misses hurt more).
  int step = 1;
  /// Network budget assumed borrowable while ECN reports no congestion;
  /// under congestion the effective latency target shrinks by this much
  /// (TimeTrader then "does not provide any slack to the servers").
  SimTime network_budget = ms(5.0);
};

class TimeTraderPolicy final : public DvfsPolicy {
 public:
  TimeTraderPolicy(const ServiceModel* model, TimeTraderConfig config = {});

  Freq select_frequency(SimTime now, std::span<const QueuedRequest> queue,
                        Work in_service_done) override;
  void on_request_complete(SimTime now, SimTime latency,
                           SimTime constraint) override;
  void on_network_congestion(bool congested) override;
  std::string name() const override { return "timetrader"; }

  Freq current_frequency() const;
  bool network_congested() const { return congested_; }

 private:
  void maybe_adjust(SimTime now);

  TimeTraderConfig config_;
  WindowedPercentile window_;
  SimTime last_adjust_ = 0.0;
  SimTime latest_constraint_ = kNoTime;
  bool congested_ = false;
  std::size_t grid_index_;  // index into model frequency grid
};

/// Shared selection helper: smallest grid frequency satisfying a monotone
/// predicate over grid indices (true at an index implies true at every
/// higher one); returns f_max when even it fails. Binary search per section
/// III-C. The predicate takes the index so it can read per-frequency caches
/// (ServiceModel::violation_probability_at), and is a template parameter,
/// so a decision neither allocates nor calls through a type-erased wrapper.
template <typename Feasible>
Freq lowest_feasible_frequency(const std::vector<Freq>& grid,
                               Feasible&& feasible) {
  if (!feasible(grid.size() - 1)) return grid.back();
  std::size_t lo = 0;
  std::size_t hi = grid.size() - 1;  // known feasible
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (feasible(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return grid[lo];
}

/// Factory by name: "max" | "timetrader" | one of the six statistical names
/// in the table above ("rubik", "rubik+", "eprons" and the ablations
/// "eprons-noedf", "eprons-noslack", "eprons-maxvp"). Throws
/// std::invalid_argument for unknown names and, for the statistical
/// policies, for a negative or NaN target_vp.
std::unique_ptr<DvfsPolicy> make_policy(const std::string& name,
                                        const ServiceModel* model,
                                        double target_vp = 0.05);

/// True for the policies that consume completion and congestion feedback
/// (on_request_complete / on_network_congestion): "timetrader". Every other
/// policy ignores both hooks.
bool policy_uses_feedback(const std::string& name);

}  // namespace eprons

// Per-flow bandwidth demand prediction (paper section II, step i).
//
// "The 90th %tile traffic data rate of the last epoch is used to predict the
// flow's bandwidth demand in the next epoch [3] ... we incorporate a safety
// margin for the required link capacity."
//
// The predictor keeps a bounded window of rate samples per flow; the
// consolidation layer queries the 90th percentile at each re-optimization
// epoch. The safety margin is applied to *link capacity* (not demand) by
// the consolidation algorithms, mirroring Fig. 2's "950 Mbps available".
#pragma once

#include <unordered_map>
#include <vector>

#include "stats/percentile.h"
#include "util/types.h"

namespace eprons {

struct DemandPredictorConfig {
  /// Percentile of last-epoch samples used as next-epoch demand.
  double percentile = 0.90;
  /// Samples retained per flow (one epoch's worth at the polling cadence;
  /// the paper's POX controller polls every 2 s over a 10 min epoch).
  std::size_t window = 300;
};

class DemandPredictor {
 public:
  explicit DemandPredictor(DemandPredictorConfig config = {});

  /// Records an observed data-rate sample (Mbps) for a flow.
  void add_sample(FlowId flow, Bandwidth rate);

  /// Predicted next-epoch demand: the configured percentile of the window.
  /// Unknown flows predict 0 (they contribute no reservation).
  Bandwidth predict(FlowId flow) const;

  /// Number of samples currently held for a flow.
  std::size_t sample_count(FlowId flow) const;

  /// The sample window of a flow, created empty on first use. The
  /// reference stays valid until forget() or clear(), so a caller may
  /// look windows up serially and then fill distinct flows' windows from
  /// several threads (add_sample is window(flow).add(rate)).
  WindowedPercentile& window(FlowId flow);
  /// The prediction predict() makes from a flow's window.
  Bandwidth predict(const WindowedPercentile& window) const;

  /// Drops state for flows that ended.
  void forget(FlowId flow);
  void clear();

 private:
  DemandPredictorConfig config_;
  std::unordered_map<FlowId, WindowedPercentile> windows_;
};

}  // namespace eprons

#include "flow/demand_predictor.h"

namespace eprons {

DemandPredictor::DemandPredictor(DemandPredictorConfig config)
    : config_(config) {}

void DemandPredictor::add_sample(FlowId flow, Bandwidth rate) {
  // Constructs the window in place, and only for a new flow: passing a
  // WindowedPercentile temporary would build (and free) a deque on every
  // sample.
  windows_.try_emplace(flow, config_.window).first->second.add(rate);
}

Bandwidth DemandPredictor::predict(FlowId flow) const {
  const auto it = windows_.find(flow);
  if (it == windows_.end() || it->second.empty()) return 0.0;
  return it->second.quantile(config_.percentile);
}

std::size_t DemandPredictor::sample_count(FlowId flow) const {
  const auto it = windows_.find(flow);
  return it == windows_.end() ? 0 : it->second.count();
}

void DemandPredictor::forget(FlowId flow) { windows_.erase(flow); }

void DemandPredictor::clear() { windows_.clear(); }

}  // namespace eprons
